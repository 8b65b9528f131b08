import hashlib
import json
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

import actalab as al
from actalab.axioms import satisfies_all
from actalab.conditions import INTERPOLATION_CLASSES, _pwf_failure
from actalab.errors import UnknownConditionError, ValidationError
from actalab.monoid import left_cancellable_elements
from conftest import build_zoo
from helpers import (
    _c_flat,
    all_right_ideals,
    condition_holds_brute,
    condition_violated,
    elementary_tensor,
    first_violation_oracle,
    flat_bounded_oracle,
    is_right_closed,
    restrict_act,
    standard_subact_oracle,
    wf_witness_is_genuine,
)


def test_regular_act_satisfies_w_and_pwp(zoo_monoids):
    for M in zoo_monoids:
        B = al.regular_act(M, "left")
        assert al.check_condition(B, "W").holds
        assert al.check_condition(B, "PWP").holds


def test_trivial_monoid_acts_satisfy_p(trivial):
    for B in al.enumerate_acts(trivial, "left", 3):
        assert al.check_condition(B, "P").holds


def test_pwp_counterexample_exists(null2):
    found = None
    for B in al.enumerate_acts(null2, "left", 3):
        report = al.check_condition(B, "PWP")
        if not report.holds:
            found = (B, report)
            break
    assert found is not None
    B, report = found
    assert condition_violated(B, "PWP", report.witness)


def test_all_fail_witnesses_revalidate(null2, natmin3):
    for M in (null2, natmin3):
        for B in al.enumerate_acts(M, "left", 3):
            for cond in ("P", "E", "EP", "W", "PWP"):
                report = al.check_condition(B, cond)
                if not report.holds:
                    assert condition_violated(B, cond, report.witness), (
                        cond,
                        B.table,
                        report.witness,
                    )


def test_every_act_is_torsion_free(zoo_monoids, left_zero):
    """TF is answered without a scan: in a finite monoid the left-cancellable
    elements are the units, and a unit's row is injective on every act.
    Both are checked from the definitions over every act of size <=4 (<=3
    when |S| > 4)."""
    for M in list(zoo_monoids) + [left_zero, al.build("null_adjoined", n=3)]:
        e, mul = M.identity, M.mul
        units = tuple(
            s for s in M.elements() if any(mul[s][u] == e == mul[u][s] for u in M.elements())
        )
        cancellable = tuple(s for s in M.elements() if len(set(mul[s])) == M.size)
        assert left_cancellable_elements(M) == cancellable == units, M.name
        for B in al.enumerate_acts(M, "left", 4 if M.size <= 4 else 3):
            assert all(len(set(B.table[s])) == B.size for s in units), (M.name, B.table)
            assert al.check_condition(B, "TF").verdict == "holds"


def _is_interpolant(B, cond, inst) -> bool:
    """Re-check one reported success instance against the definition."""
    M = B.monoid
    if cond == "W":
        s, t, u = M.index(inst["s"]), M.index(inst["t"]), M.index(inst["u"])
        a, a2, d = B.index(inst["a"]), B.index(inst["a2"]), B.index(inst["d"])
        c = B.apply(s, a)
        return (
            B.apply(t, a2) == c
            and B.apply(u, d) == c
            and u in al.ideal_intersection(M, s, t).members
        )
    # labels of s, t, b, b', u, v in the trigger s·b = t·b' and the
    # interpolant b = u·c, b' = v·c, su = tv
    labels = {
        "P": ("s", "s2", "b", "b2", "u", "u2"),
        "E": ("s", "s2", "b", "b", "u", "u"),
        "EP": ("s", "t", "a", "a", "u", "v"),
        "PWP": ("t", "t", "a", "a2", "u", "v"),
    }[cond]
    s, t, b, b2, u, v = (inst[k] for k in labels)
    s, t, u, v = M.index(s), M.index(t), M.index(u), M.index(v)
    b, b2, c = B.index(b), B.index(b2), B.index(inst["through"])
    return (
        B.apply(s, b) == B.apply(t, b2)
        and B.apply(u, c) == b
        and B.apply(v, c) == b2
        and M.mul[s][u] == M.mul[t][v]
    )


def test_success_witnesses_are_real_interpolants(z2, natmin3):
    for M in (z2, natmin3):
        acts = [al.regular_act(M, "left")] + list(al.enumerate_acts(M, "left", 3))
        for B in acts:
            for cond in ("P", "E", "EP", "W", "PWP"):
                report = al.check_condition(B, cond, want_witnesses=True)
                if not report.holds:
                    continue
                for inst in report.details["instances"]:
                    assert _is_interpolant(B, cond, inst), (cond, B.table, inst)
        regular = al.check_condition(acts[0], "W", want_witnesses=True)
        assert regular.holds and regular.details["instances"]


def test_holds_verdicts_match_instance_oracle(zoo_monoids, left_zero):
    for M in [*zoo_monoids, left_zero]:
        for B in al.enumerate_acts(M, "left", 3):
            for cond in ("P", "E", "EP", "W", "PWP"):
                assert al.check_condition(B, cond).holds == condition_holds_brute(
                    B, cond
                ), (M.name, cond, B.table)


def test_first_violations_match_oracle(zoo_monoids, left_zero):
    """Each class's report, verdict and first witness, is the one a brute
    scan of parameters and then instances in carrier order finds.  The acts
    come first, last, second, second to last and so on, and each class is
    asked twice, so the second report is built from the kept decision: it
    is equal to the first but shares no witness with it."""
    for M in [*zoo_monoids, left_zero]:
        acts = list(al.enumerate_acts(M, "left", 4))
        for B in [B for pair in zip(acts, reversed(acts)) for B in pair][: len(acts)]:
            first = {}
            for cond in ("P", "E", "EP", "W", "PWP"):
                first[cond] = al.check_condition(B, cond)
                assert first[cond].to_dict() == first_violation_oracle(B, cond), (
                    M.name, cond, B.table)
            for cond, report in first.items():
                again = al.check_condition(B, cond)
                assert again == report
                assert again.witness is None or again.witness is not report.witness


# sha256 of check_condition(B, cond, want_witnesses=True).to_dict() as JSON
# with sorted keys, and the number of instances, for one act of natmin3 per
# class; recorded from the decider that scanned every pair (b, b') of B
SUCCESS_DETAILS = {
    "P": ([[0, 0, 0], [0, 1, 1], [0, 1, 2], [0, 1, 2]], 56,
          "33052b2d6b481c5e62f69497cb6bd3c276d5b9fd79be86a0ae360107ed5e15e7"),
    "E": ([[0, 1, 2], [0, 1, 2], [0, 1, 2], [0, 1, 2]], 48,
          "87e08422c3b6e0db13dafe5cf672dc0535ebba6f88650a2a43ab96f8113aaf04"),
    "EP": ([[0, 0, 0], [0, 1, 1], [0, 1, 2], [0, 1, 2]], 32,
           "51c04472570e47d004296ffe64c341e964bef64c58cf97c709489bbede6eb686"),
    "W": ([[0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 1, 2]], 102,
          "1aebedcc4e0a583d0ec2686a06a65ba4fa4b2905bc96de28b226711defb74740"),
    "PWP": ([[0, 0, 0], [0, 0, 0], [0, 1, 1], [0, 1, 2]], 26,
            "3cbd61d6b6889f5da0ee39279522de95ee9f9de793ff560f2aaf124d9af42597"),
}


@pytest.mark.parametrize("cond", sorted(SUCCESS_DETAILS))
def test_success_details_are_unchanged(natmin3, cond):
    table, count, digest = SUCCESS_DETAILS[cond]
    B = al.validate_act(natmin3, "left", ["a", "b", "c"], table)
    report = al.check_condition(B, cond, want_witnesses=True).to_dict()
    assert len(report["details"]["instances"]) == count
    text = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_sf_is_p_and_e(null2):
    for B in al.enumerate_acts(null2, "left", 3):
        sf = al.check_condition(B, "SF").holds
        p = al.check_condition(B, "P").holds
        e = al.check_condition(B, "E").holds
        assert sf == (p and e)


def test_unknown_condition(z2):
    with pytest.raises(UnknownConditionError):
        al.check_condition(al.regular_act(z2, "left"), "XYZ")


def test_right_side_act_rejected(z2, natmin3):
    """Every public decider refuses a right act, whatever its verdict on
    the table read as a left act would be."""
    from actalab.errors import SideMismatchError
    from actalab.replacement import verify_replacements

    for M in (z2, natmin3):
        B = al.regular_act(M, "right")
        e = M.identity
        calls = [
            lambda: al.check_condition(B, "TF"),
            lambda: al.check_condition(B, "P"),
            lambda: al.check_condition(B, "SF"),
            lambda: al.condition_profile(B),
            lambda: al.check_pwf(B),
            lambda: al.check_wf(B),
            lambda: al.check_flat_bounded(B),
            lambda: al.verify_replacement(B, e, e, "P"),
            lambda: verify_replacements(B, [(e, e)], "W"),
        ]
        for call in calls:
            with pytest.raises(SideMismatchError):
                call()


def test_pwf_and_wf_on_regular_act(zoo_monoids):
    for M in zoo_monoids:
        B = al.regular_act(M, "left")
        assert al.check_pwf(B).holds
        assert al.check_wf(B).holds


def test_group_acts_are_flat_every_way(z2):
    for B in al.enumerate_acts(z2, "left", 3):
        assert al.check_pwf(B).holds
        assert al.check_wf(B).holds
        assert al.check_flat_bounded(B, 2).verdict == "passes-up-to-bound"


def test_wf_decomposition_small(null2, semilattice22):
    """WF = PWF and (W), with both flatness verdicts from the tensor oracle."""
    for M in (null2, semilattice22):
        for B in al.enumerate_acts(M, "left", 3):
            wf = _c_flat(B, principal=False).holds
            assert wf == (
                _c_flat(B, principal=True).holds
                and al.check_condition(B, "W").holds
            )


def test_pwf_wf_match_tensor_oracle(zoo_monoids, left_zero):
    """The table deciders against the tensor-product oracle: identical PWF
    reports, identical WF verdicts, and every WF witness split in K ⊗ B
    but joined in S ⊗ B.  On the zoo, WF fails only where PWF does;
    left_zero's disjoint ideals aS, bS make (W) fail on its own."""
    failures = {"PWF": 0, "W only": 0}
    for M in zoo_monoids + [left_zero]:
        for B in al.enumerate_acts(M, "left", 4):
            pwf = al.check_pwf(B)
            assert pwf.to_dict() == _c_flat(B, principal=True).to_dict(), B.table
            wf = al.check_wf(B)
            assert wf.holds == _c_flat(B, principal=False).holds, B.table
            if not wf.holds:
                failures["W only" if pwf.holds else "PWF"] += 1
                assert wf_witness_is_genuine(B, wf.witness), (B.table, wf)
    assert all(failures.values()), failures


def test_pwf_decided_once_and_reported_afresh(null2, natmin3):
    """`check_pwf` and `check_wf` on one act decide PWF once between them.
    Each report builds its own witness, so no two reports share a dict, and
    a WF failure at PWF splits PWF's pairs."""
    _pwf_failure.cache_clear()
    acts = [B for M in (null2, natmin3) for B in al.enumerate_acts(M, "left", 3)]
    failures = 0
    for B in acts:
        first, second, wf = al.check_pwf(B), al.check_pwf(B), al.check_wf(B)
        assert first == second
        if not first.holds:
            failures += 1
            assert first.witness is not second.witness
            assert first.witness["pair1"] is not second.witness["pair1"]
            assert (wf.witness["pair1"], wf.witness["pair2"]) == (
                first.witness["pair1"], first.witness["pair2"])
    assert failures and _pwf_failure.cache_info().misses == len(acts)


def test_pwf_failure_witness_is_genuine(null2, natmin3):
    """A PWF witness names (a, b, b2-ish pairs) equal in S⊗B but split in aS⊗B."""
    found = 0
    for M in (null2, natmin3):
        for B in al.enumerate_acts(M, "left", 3):
            report = al.check_pwf(B)
            if report.holds:
                continue
            found += 1
            w = report.witness
            a = M.index(w["a"])
            S = al.regular_act(M, "right")
            members = sorted(al.principal_right_ideal(M, a).members)
            K, pos = restrict_act(S, members)
            SB = elementary_tensor(S, B)
            KB = elementary_tensor(K, B)
            m1, b1 = M.index(w["pair1"][0]), B.index(w["pair1"][1])
            m2, b2 = M.index(w["pair2"][0]), B.index(w["pair2"][1])
            assert SB.same_class(m1, b1, m2, b2)
            assert not KB.same_class(members.index(m1), b1, members.index(m2), b2)
            # the (a, b, b2) pullback separates the same way
            bb, bb2 = B.index(w["b"]), B.index(w["b2"])
            assert SB.same_class(a, bb, a, bb2)
            assert not KB.same_class(members.index(a), bb, members.index(a), bb2)
    assert found > 0


def test_all_right_ideals_are_ideals(zoo_monoids):
    for M in zoo_monoids:
        ideals = all_right_ideals(M)
        assert all(is_right_closed(M, members) for members in ideals)
        assert all(members for members in ideals)
        assert len(set(ideals)) == len(ideals)
        # every principal ideal appears
        for a in M.elements():
            assert al.principal_right_ideal(M, a).members in ideals


def test_flat_bounded_regular_act(zoo_monoids):
    for M in zoo_monoids:
        B = al.regular_act(M, "left")
        report = al.check_flat_bounded(B, 2)
        assert report.verdict == "passes-up-to-bound"
        assert report.details["m_max"] == 2
        with pytest.raises(ValidationError, match="flatness bound must be at least 1"):
            al.check_flat_bounded(B, 0)


def test_flat_bounded_matches_tensor_oracle(zoo_monoids, left_zero, null2):
    """The prefix-composed search against a full ([x]S ∪ [x']S) ⊗ B and a
    gamma_pairs walk per skeleton: identical reports, the witness being the
    least split pair, at m=2 on every left act of size <= 3 of the zoo and
    left_zero and on the 101 of size 4 of null2, and at m=3 on those of
    size <= 3 of null2 and left_zero."""
    verdicts = set()
    cases = [(M, 2, al.enumerate_acts(M, "left", 3)) for M in zoo_monoids + [left_zero]]
    cases += [(M, 3, al.enumerate_acts(M, "left", 3)) for M in (null2, left_zero)]
    size4 = [B for B in al.enumerate_acts(null2, "left", 4) if B.size == 4]
    cases.append((null2, 2, size4))
    for M, m, acts in cases:
        for B in acts:
            report = al.check_flat_bounded(B, m)
            assert report.to_dict() == flat_bounded_oracle(B, m).to_dict(), B.table
            verdicts.add(report.verdict)
    assert verdicts == {"fails", "passes-up-to-bound"}
    assert len(size4) == 101
    assert sum(not al.check_flat_bounded(B, 2).holds for B in size4) == 76


def test_flat_bound_three_walks_natmin3_automaton(natmin3):
    """The standard subacts of the skeletons of length <= 3 over natmin3
    are 84 states of its automaton.  A sweep of its left acts of size <= 2
    at m=3 reaches all of them, and a second sweep adds no state and no
    transition: each act reads the transitions the first sweep filled."""
    from actalab.tensor import subact_automaton

    subact_automaton.cache_clear()
    acts = list(al.enumerate_acts(natmin3, "left", 2))
    auto = subact_automaton(natmin3)
    for _ in range(2):
        for B in acts:
            al.check_flat_bounded(B, 3)
        # the 62 states of skeletons of length <= 2 each took all 16 steps
        assert len(auto.tables) == 84
        assert sum(state is not None for row in auto.delta for state in row) == 62 * 16


def test_flat_bounded_failure_witness_revalidates(null2):
    """If the bounded check refutes flatness, the witness reproduces it."""
    from actalab.tensor import Skeleton

    hits = 0
    for B in al.enumerate_acts(null2, "left", 3):
        report = al.check_flat_bounded(B, 2)
        if report.verdict != "fails":
            continue
        hits += 1
        w = report.witness
        entries = tuple(null2.index(x) for x in w["skeleton"])
        sk = Skeleton(entries)
        b, b2 = B.index(w["b"]), B.index(w["b2"])
        assert al.eval_gamma(B, sk, b, b2)[0]
        U, x, xp = standard_subact_oracle(null2, entries)
        UB = elementary_tensor(U, B)
        assert not UB.same_class(x, b, xp, b2)
    # at least one refutation should exist at this scale, else the check
    # would be vacuous here
    assert hits > 0


def test_wf_failure_witness_is_genuine(null2):
    """A WF witness names an ideal and two pairs equal in S⊗B but split
    in K⊗B; re-derive both tensor products and confirm."""
    found = 0
    for B in al.enumerate_acts(null2, "left", 3):
        report = al.check_wf(B)
        if report.holds:
            continue
        found += 1
        assert wf_witness_is_genuine(B, report.witness), (B.table, report)
    assert found > 0


ZOO = build_zoo()


@lru_cache(maxsize=None)
def _left_acts(M):
    return list(al.enumerate_acts(M, "left", 4))


@given(st.data())
def test_verdicts_do_not_depend_on_carrier_labelling(data):
    """Relabelling an act's carrier keeps every verdict: the conditions, the
    sentence sets, PWF, WF and bounded flatness are first-order properties.
    This is why one act per isomorphism class can stand for its class."""
    M = data.draw(st.sampled_from(ZOO))
    B = data.draw(st.sampled_from(_left_acts(M)))
    perm = data.draw(st.permutations(range(B.size)))
    table = [[0] * B.size for _ in M.elements()]
    for s in M.elements():
        for a in B.carrier():
            table[s][perm[a]] = perm[B.table[s][a]]
    C = al.validate_act(M, "left", B.carrier_names, table)
    for cond in ("P", "E", "EP", "W", "PWP", "SF"):
        assert al.check_condition(C, cond).verdict == al.check_condition(B, cond).verdict
    for cls in INTERPOLATION_CLASSES:
        sentences = al.emit_axioms(M, cls).sentences
        assert satisfies_all(C, sentences) == satisfies_all(B, sentences)
    for check in (al.check_pwf, al.check_wf, lambda A: al.check_flat_bounded(A, 2)):
        assert check(C).verdict == check(B).verdict
