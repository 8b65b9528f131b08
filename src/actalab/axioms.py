"""First-order sentence schemas for the act conditions over a fixed finite
monoid, plus a model checker that makes "this sentence set axiomatises the
class" an executable equivalence on finite acts.

The sentence language has one unary function symbol per monoid element; a
term is a word of elements folded onto a variable, so "s(t(x))" is the word
(s, t) on x.  Every schema here is a universal sentence whose body is an
equation, an inequation, or an implication from a conjunction of equations
into an existentially quantified disjunction of conjunctions of equations.

Each sentence is compiled once, on first use, into a plan (`_Plan`) of row
vectors: on a table, a term's values at every carrier element are one
composition of the rows of its word.  `model_check` and `satisfies_all`
evaluate plans; `model_check_table`, which walks the terms once per
assignment, is kept as their oracle.  A plan reads only the rows of its
letters, so `satisfies_all` keeps its recent verdicts under the carrier
size and those rows: acts that share them, in whatever order they come,
share the verdict, and every class's set shares one tuple of act laws.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import product, repeat
from operator import itemgetter, ne
from typing import Iterator

from .act import Act, enumerate_acts
from .conditions import INTERPOLATION_CLASSES, _structures, check_condition
from .errors import SideMismatchError, ValidationError
from .monoid import FiniteMonoid


@dataclass(frozen=True)
class Term:
    """A word of monoid elements applied right-to-left to a variable."""

    word: tuple[int, ...]
    var: str


@dataclass(frozen=True)
class Equation:
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Sentence:
    """A restricted first-order schema.

    kind "equation" and "inequation" use the `equation` field under the
    universal prefix; kind "implication" quantifies `exists` over a
    disjunction of conjunctions of equations.
    """

    name: str
    forall: tuple[str, ...]
    kind: str  # "equation" | "inequation" | "implication"
    equation: Equation | None = None
    antecedent: tuple[Equation, ...] = ()
    exists: tuple[str, ...] = ()
    consequent: tuple[tuple[Equation, ...], ...] = ()

    @cached_property
    def _plan(self) -> _Plan:
        return _Plan(self)


@dataclass
class AxiomSet:
    class_id: str
    monoid: FiniteMonoid
    sentences: tuple[Sentence, ...]
    provenance: dict = field(default_factory=dict)


def _t(var: str, *word: int) -> Term:
    return Term(tuple(word), var)


@lru_cache(maxsize=8)
def act_axioms(M: FiniteMonoid) -> tuple[Sentence, ...]:
    """The act laws (∀x)(1x = x) and all (∀x)(s(t(x)) = (st)x), one tuple per monoid."""
    names = M.element_names
    out = [
        Sentence(
            "unit",
            ("x",),
            "equation",
            Equation(_t("x", M.identity), _t("x")),
        )
    ]
    for s in M.elements():
        for t in M.elements():
            out.append(
                Sentence(
                    f"assoc[{names[s]},{names[t]}]",
                    ("x",),
                    "equation",
                    Equation(_t("x", s, t), _t("x", M.mul[s][t])),
                )
            )
    return tuple(out)


def emit_axioms(M: FiniteMonoid, class_id: str) -> AxiomSet:
    """Sentence set for one condition class, one sentence per parameter.

    Each sentence states the class's trigger s·x = t·y and, for each
    minimum generator of its structure, one interpolant disjunct (see
    `INTERPOLATION_CLASSES`).  Parameters whose structure is empty get the
    corresponding inequation sentence.
    """
    cid = class_id.upper()
    if cid not in INTERPOLATION_CLASSES:
        raise ValidationError(f"no axiom schema for class {class_id!r}")
    cls = INTERPOLATION_CLASSES[cid]
    names = M.element_names
    x, y = cls.trigger[0], cls.trigger[-1]
    forall = tuple(dict.fromkeys(cls.trigger))
    sentences = list(act_axioms(M))
    provenance: dict[str, dict] = {}
    for (s, t), gen_pairs in _structures(cid, M).items():
        params = [names[t]] if cls.diagonal else [names[s], names[t]]
        name = f"{cid}[{','.join(params)}]"
        trigger = Equation(_t(x, s), _t(y, t))
        if gen_pairs:
            sides = [
                _t(v, p) if cls.scaled else _t(v) for v, p in zip(cls.trigger, (s, t))
            ]
            consequent = tuple(
                tuple(Equation(side, _t("z", u)) for side, u in zip(sides, pair))
                for pair in gen_pairs
            )
            sentences.append(
                Sentence(name, forall, "implication", antecedent=(trigger,),
                         exists=("z",), consequent=consequent)
            )
        else:
            sentences.append(Sentence(name, forall, "inequation", trigger))
        provenance[name] = {
            "params": params,
            "generators": [names[u] if cls.ideal else [names[u], names[v]] for u, v in gen_pairs],
        }
    return AxiomSet(cid, M, tuple(sentences), provenance)


def _eval_term(table, term: Term, env: dict[str, int]) -> int:
    v = env[term.var]
    for s in reversed(term.word):
        v = table[s][v]
    return v


def model_check_table(
    M: FiniteMonoid, table, sentence: Sentence
) -> tuple[bool, dict | None]:
    """Evaluate a sentence on a raw action table (valid act or not)."""
    k = len(table[0]) if table else 0
    carrier = range(k)
    for assignment in product(carrier, repeat=len(sentence.forall)):
        env = dict(zip(sentence.forall, assignment))
        if sentence.kind == "equation":
            eq = sentence.equation
            if _eval_term(table, eq.lhs, env) != _eval_term(table, eq.rhs, env):
                return (False, env)
        elif sentence.kind == "inequation":
            eq = sentence.equation
            if _eval_term(table, eq.lhs, env) == _eval_term(table, eq.rhs, env):
                return (False, env)
        else:
            if any(
                _eval_term(table, eq.lhs, env) != _eval_term(table, eq.rhs, env)
                for eq in sentence.antecedent
            ):
                continue
            satisfied = False
            for zs in product(carrier, repeat=len(sentence.exists)):
                env.update(zip(sentence.exists, zs))
                for disjunct in sentence.consequent:
                    if all(
                        _eval_term(table, eq.lhs, env)
                        == _eval_term(table, eq.rhs, env)
                        for eq in disjunct
                    ):
                        satisfied = True
                        break
                if satisfied:
                    break
            if not satisfied:
                env = {v: env[v] for v in sentence.forall}
                return (False, env)
    return (True, None)


class _RowVectors(dict):
    """The row vectors of a table over a carrier of size k, keyed by word and
    built on demand from `rows`, which maps each letter to its row: entry x of
    a word's vector is the value of its term at carrier element x.  Rows may
    be lists or tuples; vectors are always tuples, a tuple row is its own."""

    def __init__(self, rows, k: int):
        self.rows, self.k = rows, k

    def __missing__(self, word):
        vec = tuple(self.rows[word[-1]] if word else range(self.k))
        for s in reversed(word[:-1]):
            vec = tuple(map(self.rows[s].__getitem__, vec))
        self[word] = vec
        return vec


@lru_cache(maxsize=64)
def _assignments(k: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Every assignment of n variables over a carrier of size k, in product order."""
    return tuple(product(range(k), repeat=n))


def _values(vecs: _RowVectors, terms, assignments: list) -> Iterator[tuple]:
    """The tuple of the terms' values at each assignment."""
    cols = [map(vecs[w].__getitem__, map(itemgetter(i), assignments)) for i, w in terms]
    return zip(*cols) if cols else repeat((), len(assignments))


def _satisfying(vecs: _RowVectors, equations, assignments: list) -> list:
    """The assignments at which every equation holds, in their order."""
    for (i, wl), (j, wr) in equations:
        L, R = vecs[wl], vecs[wr]
        assignments = [a for a in assignments if L[a[i]] == R[a[j]]]
    return assignments


class _Plan:
    """A sentence compiled for evaluation on any table.

    An equation is the implication from nothing to it, and an inequation the
    implication from it to nothing.  A term becomes (position, word): the
    forall variables take positions 0..n-1 of a trigger assignment in
    quantifier order, the exists variables positions 0..m-1 of an exists
    assignment.  Each equation of a consequent disjunct is a test on the
    trigger (forall against forall), a key term with the exists-side term
    it must meet (forall against exists), or a filter on the exists
    assignments (exists against exists).  Disjuncts with the same tests and
    key terms form a group.  On a table a group's reach is the set of
    tuples its exists-side terms take at the exists assignments that pass
    their filter, and a trigger satisfies the group when it meets the tests
    and its key tuple is in the reach.
    """

    def __init__(self, sentence: Sentence):
        names = sentence.forall + sentence.exists
        if len(set(names)) != len(names):
            raise ValidationError(f"sentence {sentence.name!r} binds a variable twice")
        self.n = len(sentence.forall)
        ante, exists, cons = sentence.antecedent, sentence.exists, sentence.consequent
        negated = sentence.kind == "inequation"
        if sentence.kind != "implication":
            body = sentence.equation
            ante, exists, cons = ((body,), (), ()) if negated else ((), (), ((body,),))
        self.m = len(exists)
        forall_pos = {v: i for i, v in enumerate(sentence.forall)}
        letters = set()  # the monoid elements whose rows the words read

        def term(t: Term, scope: dict) -> tuple[int, tuple[int, ...]]:
            if t.var not in scope:
                raise ValidationError(
                    f"sentence {sentence.name!r} uses the unbound variable {t.var!r}"
                )
            letters.update(t.word)
            return (scope[t.var], t.word)

        def equation(e: Equation):
            return (term(e.lhs, forall_pos), term(e.rhs, forall_pos))

        self.antecedent = tuple(map(equation, ante))
        # an equation or inequation is first tried on whole row vectors
        self.whole = None if sentence.kind == "implication" else (negated, equation(body))
        exists_pos = {v: i for i, v in enumerate(exists)}
        self.groups: dict[tuple, list] = {}
        for conj in cons:
            tests, key, eterms, filt = [], [], [], []
            for e in conj:
                f = [term(t, forall_pos) for t in (e.lhs, e.rhs) if t.var in forall_pos]
                z = [term(t, exists_pos) for t in (e.lhs, e.rhs) if t.var not in forall_pos]
                if f and z:
                    key += f
                    eterms += z
                else:
                    (filt if z else tests).append(tuple(f or z))
            self.groups.setdefault((tuple(tests), tuple(key)), []).append((filt, eterms))
        self.letters = tuple(sorted(letters))

    def _holds_everywhere(self, vecs: _RowVectors) -> bool:
        negated, ((i, wl), (j, wr)) = self.whole
        L, R = vecs[wl], vecs[wr]
        if negated:
            return all(map(ne, L, R)) if i == j else set(L).isdisjoint(R)
        return L == R if i == j else len(set(L).union(R)) <= 1

    def first_failure(self, vecs: _RowVectors) -> tuple[int, ...] | None:
        """The first forall assignment, in product order, at which the
        sentence fails on the table of `vecs`; None when it holds."""
        if self.whole is not None and self._holds_everywhere(vecs):
            return None
        pending = _satisfying(vecs, self.antecedent, _assignments(vecs.k, self.n))
        if not pending:
            return None
        zss = _assignments(vecs.k, self.m)
        for (tests, key), disjuncts in self.groups.items():
            reach = set()
            for filt, eterms in disjuncts:
                reach.update(_values(vecs, eterms, _satisfying(vecs, filt, zss)))
            met = _satisfying(vecs, tests, pending)
            missed = [a for a, values in zip(met, _values(vecs, key, met)) if values not in reach]
            # the triggers that fail the tests stay pending too, in product order
            pending = sorted({*pending}.difference(met).union(missed)) if tests else missed
        return pending[0] if pending else None


def check_table(table, sentence: Sentence) -> tuple[bool, dict | None]:
    """Evaluate a sentence's plan on a raw action table (valid act or not);
    the same answer and counterexample as `model_check_table`."""
    a = sentence._plan.first_failure(_RowVectors(table, len(table[0]) if table else 0))
    if a is None:
        return (True, None)
    return (False, dict(zip(sentence.forall, a)))


def _require_left(B: Act):
    if B.side != "left":
        raise SideMismatchError("sentences of the left-act language need a left act")


def model_check(B: Act, sentence: Sentence) -> tuple[bool, dict | None]:
    """Satisfaction, with the first failing assignment as counterexample."""
    _require_left(B)
    ok, env = check_table(B.table, sentence)
    if env is not None:
        env = {v: B.label(i) for v, i in env.items()}
    return (ok, env)


@lru_cache(maxsize=256)
def _holds(plan: _Plan, k: int, rows: tuple) -> bool:
    """Whether the plan's sentence holds on every table over a carrier of
    size k whose rows at `plan.letters` are `rows`: they fix every vector."""
    return plan.first_failure(_RowVectors(dict(zip(plan.letters, rows)), k)) is None


def satisfies_all(B: Act, sentences) -> bool:
    """Whether B satisfies every sentence.  A plan's verdict is kept under the
    carrier size and the rows it reads, so acts that share those rows share it."""
    _require_left(B)
    k, row = B.size, B.table.__getitem__
    return all(_holds(p, k, tuple(map(row, p.letters))) for p in (s._plan for s in sentences))


@dataclass
class AxiomCheckReport:
    class_id: str
    monoid: str
    max_act_size: int
    acts_checked: int
    divergences: list

    @property
    def ok(self) -> bool:
        return not self.divergences

    def to_dict(self) -> dict:
        return {
            "class": self.class_id,
            "monoid": self.monoid,
            "max_act_size": self.max_act_size,
            "acts_checked": self.acts_checked,
            "equivalent": self.ok,
            "divergences": self.divergences,
        }


def verify_axiomatisations(
    M: FiniteMonoid, class_ids, max_act_size: int
) -> list[AxiomCheckReport]:
    """Check "satisfies the schema ⇔ satisfies the condition" on every left
    act up to the size bound, for each class; any divergence is a hard
    failure.  The acts are enumerated once and each is checked against every
    class in turn."""
    axsets = [emit_axioms(M, c) for c in class_ids]
    reports = [AxiomCheckReport(ax.class_id, M.name, max_act_size, 0, []) for ax in axsets]
    for B in enumerate_acts(M, "left", max_act_size):
        for axset, report in zip(axsets, reports):
            report.acts_checked += 1
            semantic = check_condition(B, axset.class_id).holds
            syntactic = satisfies_all(B, axset.sentences)
            if semantic != syntactic:
                report.divergences.append(
                    {
                        "act_table": [list(r) for r in B.table],
                        "condition": semantic,
                        "models_sentences": syntactic,
                    }
                )
    return reports


def term_to_text(M: FiniteMonoid, term: Term) -> str:
    return "".join(f"{M.label(s)}·" for s in term.word) + term.var


def sentence_to_text(M: FiniteMonoid, sentence: Sentence) -> str:
    """Render in conventional notation, e.g.
    (∀x)(∀y)(s·x = t·y → (∃z)(s·x = u·z ∧ t·y = u·z))."""
    def conjunction(eqs, rel: str = "=") -> str:
        return " ∧ ".join(
            f"{term_to_text(M, e.lhs)} {rel} {term_to_text(M, e.rhs)}" for e in eqs
        )

    prefix = "".join(f"(∀{v})" for v in sentence.forall)
    if sentence.kind != "implication":
        rel = "≠" if sentence.kind == "inequation" else "="
        return f"{prefix}({conjunction((sentence.equation,), rel)})"
    ante = conjunction(sentence.antecedent)
    disjuncts = []
    for conj in sentence.consequent:
        body = conjunction(conj)
        disjuncts.append(f"({body})" if len(conj) > 1 else body)
    cons = " ∨ ".join(disjuncts)
    ex = "".join(f"(∃{v})" for v in sentence.exists)
    if ex:
        return f"{prefix}({ante} → {ex}({cons}))"
    return f"{prefix}({ante} → {cons})"
