import json
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import actalab as al
from actalab import axioms
from actalab.act import _law_violation
from actalab.axioms import (
    Equation,
    Sentence,
    Term,
    _holds,
    act_axioms,
    check_table,
    model_check_table,
    satisfies_all,
    sentence_to_text,
)
from actalab.cli import run_command
from actalab.conditions import as_pairs
from actalab.errors import SideMismatchError, ValidationError
from actalab.monoid import min_generating_set
from actalab.serialize import dump_json, monoid_to_dict


def test_act_axioms_present_in_every_set(zoo_monoids):
    for M in zoo_monoids:
        laws = act_axioms(M)
        for cls in ("P", "E", "EP", "W", "PWP"):
            sentences = al.emit_axioms(M, cls).sentences
            names = [s.name for s in sentences]
            assert "unit" in names
            assert any(n.startswith("assoc[") for n in names)
            # every set holds the same law objects, so their plans are shared
            assert all(a is b for a, b in zip(sentences, laws))


def test_shared_verdicts_stay_with_their_table(null2, left_zero):
    """`satisfies_all` keeps each plan's verdict under the carrier size and
    the rows the plan reads.  Over more interleaved acts than the memo
    holds, over tables of sizes 1 and 2 (law-breaking ones too) against the
    act laws and a sentence that reads no row, and over one table that is
    an act of two monoids whose sentences carry the same names, every
    answer is the one a fresh evaluation of each sentence gives."""
    classes = ("P", "E", "EP", "W", "PWP")

    def check(run, sets):
        answers = set()
        for B in run:
            for name, sentences in sets(B.monoid):
                got = satisfies_all(B, sentences)
                assert got == all(check_table(B.table, s)[0] for s in sentences), (
                    B.monoid.name, B.table, name)
                answers.add((B.monoid.name, name, got))
        return answers

    axsets = {}

    def class_sets(M):
        if M not in axsets:
            axsets[M] = [(cls, al.emit_axioms(M, cls).sentences) for cls in classes]
        return axsets[M]

    iow2 = al.build("inverse_omega_chain", n=2)
    acts = list(al.enumerate_acts(iow2, "left", 4))
    assert len(acts) > _holds.cache_info().maxsize
    _holds.cache_clear()
    answers = check([B for pair in zip(acts, reversed(acts)) for B in pair], class_sets)
    memo = _holds.cache_info()  # the memo was both hit and evicted from
    assert memo.hits and memo.misses > memo.maxsize
    assert {(iow2.name, "P", True), (iow2.name, "P", False)} <= answers
    acts = list(al.enumerate_acts(null2, "left", 3))
    answers = check([B for pair in zip(acts, reversed(acts)) for B in pair], class_sets)
    assert {("null_adjoined(2)", "P", True), ("null_adjoined(2)", "P", False)} <= answers

    # every table of sizes 1 and 2, valid or not, read as a left act
    everything = Sentence("all equal", ("x", "y"), "equation",
                          Equation(Term((), "x"), Term((), "y")))
    laws = [("laws", act_axioms(null2)), ("all equal", (everything,))]
    tables = [rows for k in (1, 2) for rows in product(product(range(k), repeat=k), repeat=3)]
    raw = [al.Act(null2, "left", tuple("ab"[: len(t[0])]), t) for t in tables]
    answers = check([B for pair in zip(raw, reversed(raw)) for B in pair], lambda M: laws)
    assert {(null2.name, n, v) for n in ("laws", "all equal") for v in (True, False)} <= answers

    z3 = al.monoid_from_indices("z3", left_zero.element_names,
                                [[0, 1, 2], [1, 2, 0], [2, 0, 1]], 0)
    points = [al.validate_act(M, "left", ["o"], [[0]] * 3) for M in (z3, left_zero)]
    assert points[0].table == points[1].table
    answers = check(points * 3, class_sets)
    assert {("z3", "P", True), (left_zero.name, "P", False)} <= answers


def test_pwp_schema_z2(z2):
    ax = al.emit_axioms(z2, "PWP")
    phi_g = next(s for s in ax.sentences if s.name == "PWP[g]")
    # R(g,g) is the diagonal; its single generator is (1,1)
    assert ax.provenance["PWP[g]"]["generators"] == [["1", "1"]]
    expected = Sentence(
        "PWP[g]",
        ("x", "x'"),
        "implication",
        antecedent=(Equation(Term((1,), "x"), Term((1,), "x'")),),
        exists=("z",),
        consequent=((Equation(Term((), "x"), Term((0,), "z")),
                     Equation(Term((), "x'"), Term((0,), "z"))),),
    )
    assert phi_g == expected


def test_w_empty_intersection_gives_inequation(left_zero):
    ax = al.emit_axioms(left_zero, "W")
    a, b = left_zero.index("a"), left_zero.index("b")
    assert not al.ideal_intersection(left_zero, a, b).members
    sent = next(s for s in ax.sentences if s.name == "W[a,b]")
    assert sent.kind == "inequation"
    assert "≠" in sentence_to_text(left_zero, sent)


def test_p_empty_solution_set_gives_inequation(left_zero):
    a, b = left_zero.index("a"), left_zero.index("b")
    assert not al.R_set(left_zero, a, b).pairs
    ax = al.emit_axioms(left_zero, "P")
    sent = next(s for s in ax.sentences if s.name == "P[a,b]")
    assert sent.kind == "inequation"


def test_emission_deterministic(zoo_monoids):
    for M in zoo_monoids:
        first = al.emit_axioms(M, "W")
        second = al.emit_axioms(M, "W")
        assert first.sentences == second.sentences
        assert first.provenance == second.provenance


def test_unknown_class_rejected(z2):
    with pytest.raises(ValidationError):
        al.emit_axioms(z2, "SF")


def test_model_check_act_axiom(z2):
    B = al.regular_act(z2, "left")
    for sent in act_axioms(z2):
        ok, _ = al.model_check(B, sent)
        assert ok


def test_model_check_inequation_counterexample(left_zero):
    # a*x = a*y everywhere on the one-point act, so "a x != a y" fails
    B = al.validate_act(left_zero, "left", ["p"], [[0], [0], [0]])
    sent = Sentence(
        "neq", ("x", "y"), "inequation",
        Equation(Term((1,), "x"), Term((1,), "y")),
    )
    ok, env = al.model_check(B, sent)
    assert not ok and env == {"x": "p", "y": "p"}


def test_w_sentences_hold_on_regular_act(zoo_monoids):
    for M in zoo_monoids:
        B = al.regular_act(M, "left")
        for sent in al.emit_axioms(M, "W").sentences:
            assert al.model_check(B, sent)[0], sent.name


def test_right_act_rejected(natmin3):
    """Sentences of the left-act language refuse a right act, also when a
    whole set is checked at once."""
    B = al.regular_act(natmin3, "right")
    sentences = al.emit_axioms(natmin3, "P").sentences
    with pytest.raises(SideMismatchError):
        satisfies_all(B, sentences)
    with pytest.raises(SideMismatchError):
        al.model_check(B, sentences[0])


def test_act_axioms_characterize_valid_tables(z2, null2):
    """The act-law sentences hold exactly on tables accepted by validation."""
    for M in (z2, null2):
        sigma = act_axioms(M)
        for k in (1, 2):
            rows = list(product(range(k), repeat=k))
            for table in product(rows, repeat=M.size):
                sat = all(model_check_table(M, table, s)[0] for s in sigma)
                valid = _law_violation(M, "left", table) is None
                assert sat == valid


def test_verify_axiomatisation_trivial(trivial):
    for cls in ("P", "E", "EP", "W", "PWP"):
        report = al.verify_axiomatisations(trivial, (cls,), 3)[0]
        assert report.ok and report.acts_checked == 3


def test_verify_axiomatisations_match_each_class(null2, natmin3):
    """One act-major walk over all classes reports what one walk per class does."""
    classes = ("P", "E", "EP", "W", "PWP")
    for M in (null2, natmin3):
        reports = al.verify_axiomatisations(M, classes, 3)
        assert [r.to_dict() for r in reports] == [
            al.verify_axiomatisations(M, (cls,), 3)[0].to_dict() for cls in classes
        ]


def test_verify_axiomatisation_z2_w(z2):
    report = al.verify_axiomatisations(z2, ("W",), 4)[0]
    assert report.ok and report.acts_checked == 17


def test_verify_axiomatisation_null2_pwp(null2):
    report = al.verify_axiomatisations(null2, ("PWP",), 3)[0]
    assert report.ok
    # the sweep includes acts that fail the condition
    assert any(
        not al.check_condition(B, "PWP").holds
        for B in al.enumerate_acts(null2, "left", 3)
    )


def test_verify_reports_a_corrupted_schema(null2, tmp_path, monkeypatch, capsys):
    """With one disjunct dropped from the first sentence that has two, the
    sweep must find the regular act S: it is in (P), but the instance
    s·u = t·v of the dropped generator (u, v) lies outside the orbits of the
    other generators, so S no longer models the sentences."""
    emit = axioms.emit_axioms

    def corrupted(M, class_id):
        ax = emit(M, class_id)
        sentences = list(ax.sentences)
        i = next(i for i, s in enumerate(sentences) if len(s.consequent) >= 2)
        sentences[i] = replace(sentences[i], consequent=sentences[i].consequent[:-1])
        return replace(ax, sentences=tuple(sentences))

    monkeypatch.setattr(axioms, "emit_axioms", corrupted)
    report = al.verify_axiomatisations(null2, ("P",), 4)[0]
    assert not report.ok and report.acts_checked == 121
    regular = [list(r) for r in al.regular_act(null2, "left").table]
    assert {"act_table": regular, "condition": True, "models_sentences": False} in (
        report.divergences
    )
    # the CLI exits 1 and reports the same count, as text and as JSON
    mfile = tmp_path / "null2.json"
    dump_json(monoid_to_dict(null2), mfile)
    argv = ["axioms", "verify", "--class", "p", "--monoid", str(mfile), "--max-size", "4"]
    assert run_command(argv) == 1
    assert capsys.readouterr().out == (
        f"class P over {null2.name}: 121 acts checked, "
        f"{len(report.divergences)} divergences\n"
    )
    assert run_command(argv + ["--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["equivalent"] is False and data["divergences"] == report.divergences


def test_ep_schema_scaled_instances_cover(natmin3):
    """Every diagonal interpolation instance is reachable from the witness
    set by scaling, the property the EP consequent relies on."""
    M = natmin3
    ax = al.emit_axioms(M, "EP")
    for s in M.elements():
        for t in M.elements():
            R = al.R_set(M, s, t)
            if not R.pairs:
                continue
            name = f"EP[{M.label(s)},{M.label(t)}]"
            gens = [
                (M.index(u), M.index(v))
                for u, v in ax.provenance[name]["generators"]
            ]
            scaled = {
                (M.mul[u][w], M.mul[v][w]) for u, v in gens for w in M.elements()
            }
            assert scaled == R.pairs


def test_sentence_text_round_shape(z2):
    ax = al.emit_axioms(z2, "P")
    texts = [sentence_to_text(z2, s) for s in ax.sentences]
    assert any("∀" in t for t in texts)
    assert any("∃" in t and "→" in t for t in texts)
    # an implication with no exists part, whose consequent reads bare variables
    g = z2.index("g")
    cancel = Sentence("cancel[g]", ("x", "y"), "implication",
                      antecedent=(Equation(Term((g,), "x"), Term((g,), "y")),),
                      consequent=((Equation(Term((), "x"), Term((), "y")),),))
    assert sentence_to_text(z2, cancel) == "(∀x)(∀y)(g·x = g·y → x = y)"


def _all_sentences(M):
    """The act laws, (∀x)(∀y)(s·x = s·y → x = y) for every s, which fails on
    some act unless s is a unit, and the emitted sentences, each act law
    once: every emitted set repeats `act_axioms`."""
    out = list(act_axioms(M))
    for s in M.elements():
        cancel = Equation(Term((s,), "x"), Term((s,), "y"))
        out.append(Sentence(f"cancel[{M.label(s)}]", ("x", "y"), "implication",
                            antecedent=(cancel,),
                            consequent=((Equation(Term((), "x"), Term((), "y")),),)))
    for cls in ("P", "E", "EP", "W", "PWP"):
        out.extend(al.emit_axioms(M, cls).sentences)
    return list(dict.fromkeys(out))


def test_all_emitted_sentences_are_well_formed(zoo_monoids, left_zero):
    """Every variable occurring in a term is bound by a quantifier prefix."""
    def term_vars(sent):
        if sent.kind in ("equation", "inequation"):
            eqs = [sent.equation]
        else:
            eqs = list(sent.antecedent) + [
                eq for conj in sent.consequent for eq in conj
            ]
        for eq in eqs:
            yield eq.lhs.var
            yield eq.rhs.var

    for M in list(zoo_monoids) + [left_zero]:
        for sent in _all_sentences(M):
            bound = set(sent.forall) | set(sent.exists)
            assert set(term_vars(sent)) <= bound, sent.name


def test_plans_match_walker_on_small_acts(zoo_monoids, left_zero):
    """The compiled plans give the walker's verdict and counterexample for
    every act-law, cancellation and emitted sentence on every act of size <=3."""
    for M in list(zoo_monoids) + [left_zero]:
        sentences = _all_sentences(M)
        for B in al.enumerate_acts(M, "left", 3):
            for sent in sentences:
                expected = model_check_table(M, B.table, sent)
                assert check_table(B.table, sent) == expected, (M.name, B.table, sent.name)


def _variants(sent):
    """The sentence with every equation mirrored, and with the second
    equation of each disjunct moved onto a second exists variable."""
    def mirror(eqs):
        return tuple(Equation(eq.rhs, eq.lhs) for eq in eqs)

    def split(conj):
        return conj[:1] + tuple(Equation(eq.lhs, Term(eq.rhs.word, "w")) for eq in conj[1:])

    yield replace(sent, antecedent=mirror(sent.antecedent),
                  consequent=tuple(map(mirror, sent.consequent)))
    yield replace(sent, exists=sent.exists + ("w",),
                  consequent=tuple(map(split, sent.consequent)))


def test_plans_match_walker_on_sentence_variants(zoo_monoids, left_zero):
    """Shapes that no schema emits: triggers written y-side first, and
    disjuncts over two exists variables."""
    for M in list(zoo_monoids) + [left_zero]:
        variants = [
            v for cls in ("P", "E", "EP", "W", "PWP")
            for sent in al.emit_axioms(M, cls).sentences if sent.kind == "implication"
            for v in _variants(sent)
        ]
        for B in al.enumerate_acts(M, "left", 3):
            for sent in variants:
                assert check_table(B.table, sent) == model_check_table(M, B.table, sent)


def _theta_chain_sentence(M, a, n):
    """(∀x)(∀y)(a·x = a·y → (∃z1)...(∃zn) ⋁ θ_a-chains of length ≤ n), a
    chain x = u1·z1 ∧ v1·z1 = u2·z2 ∧ ... ∧ vl·zl = y taking each (ui, vi)
    from the generators of R(a,a): disjuncts whose middle equations pair
    two exists variables."""
    gens = as_pairs(min_generating_set(al.R_set(M, a, a)))
    zs = tuple(f"z{i}" for i in range(1, n + 1))
    consequent = []
    for length in range(1, n + 1):
        for chain in product(gens, repeat=length):
            eqs = [Equation(Term((), "x"), Term((chain[0][0],), zs[0]))]
            eqs += [
                Equation(Term((chain[i][1],), zs[i]), Term((chain[i + 1][0],), zs[i + 1]))
                for i in range(length - 1)
            ]
            eqs.append(Equation(Term((chain[-1][1],), zs[length - 1]), Term((), "y")))
            consequent.append(tuple(eqs))
    return Sentence(f"theta[{M.label(a)},{n}]", ("x", "y"), "implication",
                    antecedent=(Equation(Term((a,), "x"), Term((a,), "y")),),
                    exists=zs, consequent=tuple(consequent))


def test_plans_match_walker_on_theta_chains(zoo_monoids, left_zero):
    """θ_a-chain sentences with up to three exists variables: the plans
    give the walker's verdict and counterexample on every act of size <=3."""
    for M in list(zoo_monoids) + [left_zero]:
        sentences = [_theta_chain_sentence(M, a, n) for a in M.elements() for n in (1, 2, 3)]
        for B in al.enumerate_acts(M, "left", 3):
            for sent in sentences:
                expected = model_check_table(M, B.table, sent)
                assert check_table(B.table, sent) == expected, (M.name, B.table, sent.name)


def test_plans_match_walker_on_law_breaking_tables(z2, null2):
    """Raw tables, most of them no act, with rows given as lists."""
    for M in (z2, null2):
        sentences = _all_sentences(M)
        for k in (1, 2):
            rows = list(product(range(k), repeat=k))
            for table in product(rows, repeat=M.size):
                table = [list(row) for row in table]
                for sent in sentences:
                    assert check_table(table, sent) == model_check_table(M, table, sent)


def test_plan_rejects_unbound_and_twice_bound_variables(z2):
    B = al.regular_act(z2, "left")
    unbound = Sentence("free", ("x",), "equation",
                       Equation(Term((1,), "x"), Term((), "y")))
    twice = Sentence("twice", ("x",), "implication", antecedent=(),
                     exists=("x",), consequent=())
    for sent in (unbound, twice):
        with pytest.raises(ValidationError):
            al.model_check(B, sent)


def test_plan_composes_long_words(z3):
    """Words far longer than the recursion limit compose row by row."""
    B = al.regular_act(z3, "left")
    g = z3.index("g")
    for n in (3000, 3001):
        sent = Sentence("long", ("x",), "equation",
                        Equation(Term((g,) * n, "x"), Term((), "x")))
        assert al.model_check(B, sent) == (n % 3 == 0, None if n % 3 == 0 else {"x": "1"})


_FORALL = ("x", "y", "w")
_EXISTS = ("z", "v")
# (kind, forall variables, antecedent equations, exists variables)
_SHAPES = [(kind, n, 0, 0) for kind in ("equation", "inequation") for n in (1, 2, 3)]
_SHAPES += [("implication", *shape) for shape in product((1, 2, 3), (0, 1, 2), (0, 1, 2))]


@st.composite
def _sentence_and_table(draw):
    """A raw table over 1..3 rows and 1..3 points, and a sentence with 1..3
    forall and 0..2 exists variables: an equation, an inequation, or an
    implication with 0..2 antecedent equations and 0..3 disjuncts."""
    n_rows = draw(st.integers(1, 3))
    k = draw(st.integers(1, 3))
    # uniform entries: tables of Hypothesis's favoured small values are
    # mostly constant, and constant rows hide the order of a search
    rng = draw(st.randoms(use_true_random=False))
    table = [[rng.randrange(k) for _ in range(k)] for _ in range(n_rows)]
    kind, n, n_ante, m = draw(st.sampled_from(_SHAPES))
    forall, exists = _FORALL[:n], _EXISTS[:m]
    words = st.lists(st.integers(0, n_rows - 1), max_size=2).map(tuple)

    def equation(lhs_names, rhs_names):
        return st.builds(
            Equation,
            st.builds(Term, words, st.sampled_from(lhs_names)),
            st.builds(Term, words, st.sampled_from(rhs_names)),
        )

    if kind != "implication":
        return table, Sentence("s", forall, kind, draw(equation(forall, forall)))
    antecedent = tuple(draw(equation(forall, forall)) for _ in range(n_ante))
    # right-hand sides lean to exists variables, so that most disjuncts pair
    # forall-side terms with exists-side terms, in either orientation
    conj = st.lists(equation(forall + exists, exists or forall), max_size=3).map(tuple)
    consequent = tuple(draw(st.lists(conj, max_size=3)))
    return table, Sentence("s", forall, kind, antecedent=antecedent,
                           exists=exists, consequent=consequent)


@settings(max_examples=200)
@given(_sentence_and_table())
def test_plan_matches_walker_on_random_sentences(case):
    """Verdict and counterexample agree for the sentence and, so that the
    trigger search and each disjunct are compared on their own, for its
    variants with no disjunct and with one disjunct."""
    table, sent = case
    variants = [sent]
    if sent.kind == "implication":
        variants += [replace(sent, consequent=()), *(
            replace(sent, consequent=(conj,)) for conj in sent.consequent
        )]
    for variant in variants:
        # the walker reads only the table; any monoid will do for its signature
        assert check_table(table, variant) == model_check_table(None, table, variant)
