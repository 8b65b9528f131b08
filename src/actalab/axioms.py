"""First-order sentence schemas for the act conditions over a fixed finite
monoid, plus a brute-force model checker that makes "this sentence set
axiomatises the class" an executable equivalence on finite acts.

The sentence language has one unary function symbol per monoid element; a
term is a word of elements folded onto a variable, so "s(t(x))" is the word
(s, t) on x.  Every schema here is a universal sentence whose body is an
equation, an inequation, or an implication from a conjunction of equations
into an existentially quantified disjunction of conjunctions of equations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .act import Act, enumerate_acts
from .conditions import INTERPOLATION_CLASSES, as_pairs, check_condition
from .errors import SideMismatchError, ValidationError
from .monoid import FiniteMonoid, left_cancellable_elements, min_generating_set


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


@dataclass
class AxiomSet:
    class_id: str
    monoid: FiniteMonoid
    sentences: tuple[Sentence, ...]
    provenance: dict = field(default_factory=dict)


def _t(var: str, *word: int) -> Term:
    return Term(tuple(word), var)


def _eq(lhs: Term, rhs: Term) -> Equation:
    return Equation(lhs, rhs)


def act_axioms(M: FiniteMonoid) -> tuple[Sentence, ...]:
    """The act laws as sentences: (∀x)(1x = x) and all (∀x)(s(t(x)) = (st)x)."""
    names = M.element_names
    out = [
        Sentence(
            "unit",
            ("x",),
            "equation",
            _eq(_t("x", M.identity), _t("x")),
        )
    ]
    for s in M.elements():
        for t in M.elements():
            out.append(
                Sentence(
                    f"assoc[{names[s]},{names[t]}]",
                    ("x",),
                    "equation",
                    _eq(_t("x", s, t), _t("x", M.mul[s][t])),
                )
            )
    return tuple(out)


def torsion_free_axioms(M: FiniteMonoid) -> tuple[Sentence, ...]:
    """Act laws plus (∀x)(∀y)(sx = sy → x = y) for left cancellable s."""
    out = list(act_axioms(M))
    for s in left_cancellable_elements(M):
        out.append(
            Sentence(
                f"cancel[{M.label(s)}]",
                ("x", "y"),
                "implication",
                antecedent=(_eq(_t("x", s), _t("y", s)),),
                exists=(),
                consequent=((_eq(_t("x"), _t("y")),),),
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
    for s, t in cls.params(M):
        params = [names[t]] if cls.diagonal else [names[s], names[t]]
        name = f"{cid}[{','.join(params)}]"
        trigger = _eq(_t(x, s), _t(y, t))
        gens = min_generating_set(cls.structure(M, s, t))
        if gens:
            sides = [
                _t(v, p) if cls.scaled else _t(v) for v, p in zip(cls.trigger, (s, t))
            ]
            consequent = tuple(
                tuple(_eq(side, _t("z", u)) for side, u in zip(sides, pair))
                for pair in as_pairs(gens)
            )
            sentences.append(
                Sentence(name, forall, "implication", antecedent=(trigger,),
                         exists=("z",), consequent=consequent)
            )
        else:
            sentences.append(Sentence(name, forall, "inequation", trigger))
        provenance[name] = {
            "params": params,
            "generators": [
                [names[u] for u in g] if isinstance(g, tuple) else names[g]
                for g in gens
            ],
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


def model_check(B: Act, sentence: Sentence) -> tuple[bool, dict | None]:
    """Brute-force satisfaction, with a counterexample assignment on failure."""
    if B.side != "left":
        raise SideMismatchError("sentences of the left-act language need a left act")
    ok, env = model_check_table(B.monoid, B.table, sentence)
    if env is not None:
        env = {v: B.label(i) for v, i in env.items()}
    return (ok, env)


def satisfies_all(B: Act, sentences) -> bool:
    return all(model_check_table(B.monoid, B.table, s)[0] for s in sentences)


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


def verify_axiomatisation(
    M: FiniteMonoid, class_id: str, max_act_size: int
) -> AxiomCheckReport:
    """Check "satisfies the schema ⇔ satisfies the condition" on every left
    act up to the size bound; any divergence is a hard failure."""
    axset = emit_axioms(M, class_id)
    checked = 0
    divergences = []
    for B in enumerate_acts(M, "left", max_act_size):
        checked += 1
        semantic = check_condition(B, axset.class_id).holds
        syntactic = satisfies_all(B, axset.sentences)
        if semantic != syntactic:
            divergences.append(
                {
                    "act_table": [list(r) for r in B.table],
                    "condition": semantic,
                    "models_sentences": syntactic,
                }
            )
    return AxiomCheckReport(axset.class_id, M.name, max_act_size, checked, divergences)


def term_to_text(M: FiniteMonoid, term: Term) -> str:
    if not term.word:
        return term.var
    return "".join(f"{M.label(s)}·" for s in term.word) + term.var


def sentence_to_text(M: FiniteMonoid, sentence: Sentence) -> str:
    """Render in conventional notation, e.g.
    (∀x)(∀y)(s·x = t·y → (∃z)(s·x = u·z ∧ t·y = u·z))."""
    prefix = "".join(f"(∀{v})" for v in sentence.forall)
    if sentence.kind == "equation":
        eq = sentence.equation
        return f"{prefix}({term_to_text(M, eq.lhs)} = {term_to_text(M, eq.rhs)})"
    if sentence.kind == "inequation":
        eq = sentence.equation
        return f"{prefix}({term_to_text(M, eq.lhs)} ≠ {term_to_text(M, eq.rhs)})"
    ante = " ∧ ".join(
        f"{term_to_text(M, eq.lhs)} = {term_to_text(M, eq.rhs)}"
        for eq in sentence.antecedent
    )
    disjuncts = []
    for conj in sentence.consequent:
        body = " ∧ ".join(
            f"{term_to_text(M, eq.lhs)} = {term_to_text(M, eq.rhs)}" for eq in conj
        )
        disjuncts.append(f"({body})" if len(conj) > 1 else body)
    cons = " ∨ ".join(disjuncts)
    ex = "".join(f"(∃{v})" for v in sentence.exists)
    if ex:
        return f"{prefix}({ante} → {ex}({cons}))"
    return f"{prefix}({ante} → {cons})"
