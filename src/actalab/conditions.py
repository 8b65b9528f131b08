"""Decision procedures for the act-level conditions on a finite left act:
the interpolation conditions (P), (E), (EP), (W), (PWP), strong flatness as
(P) and (E) combined, principal weak flatness, weak flatness, and a bounded
refutation procedure for flatness itself.  Torsion-freeness needs no search:
every act over a finite monoid is torsion-free.

PWF, WF and the flatness search build no tensor product: PWF reads the
classes of aS ⊗ B that `tensor.present` numbers on one copy of B, the
flatness search joins ([x]S ∪ [x']S) ⊗ B on two copies of B as bits, and
WF is PWF together with (W).  Each interpolation class is decided from its
entry in `INTERPOLATION_CLASSES`: every trigger instance, listed with its
legs, must have the legs in the orbit of the structure's minimum generators.

Every "fails" verdict carries a concrete counterexample that re-checks as a
violation; interpolant reporting on success is opt-in to keep sweeps cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .act import Act
from .errors import SideMismatchError, UnknownConditionError, ValidationError
from .monoid import (
    FiniteMonoid,
    PairSubact,
    R_set,
    RightIdeal,
    generated_pair_subact,
    ideal_intersection,
    min_generating_set,
    r_set,
)
from .tensor import _relations, present, subact_automaton

CONDITION_IDS = ("TF", "P", "E", "EP", "W", "PWP", "SF")


@dataclass(frozen=True)
class ConditionReport:
    condition: str
    verdict: str  # "holds" | "fails" | "passes-up-to-bound"
    witness: dict | None = None
    details: dict | None = None

    @property
    def holds(self) -> bool:
        return self.verdict != "fails"

    def to_dict(self) -> dict:
        out = {"condition": self.condition, "verdict": self.verdict}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.details is not None:
            out["details"] = self.details
        return out


@dataclass(frozen=True)
class InterpolationClass:
    """One interpolation class: a trigger s·x = t·y and the finite structure
    over (s, t) whose elements interpolate each instance of it.

    A pair (u, v) of the structure interpolates an instance through some z
    by x = u·z and y = v·z; an element u of a right ideal stands for the
    pair (u, u).  A `scaled` class interpolates the trigger's two sides
    instead: s·x = u·z and t·y = u·z.
    """

    structure: Callable[[FiniteMonoid, int, int], RightIdeal | PairSubact]
    # x and y of s·x = t·y, one per leg of the interpolant: the element u
    # of r(s,t) meets x once, a pair (u, v) of R(s,t) may meet x twice
    trigger: tuple[str, ...]
    # report keys for (s, t), for the trigger's values (b, b'), for (u, v)
    # and for the element the interpolant passes through
    keys: tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...], str]
    diagonal: bool = False  # the parameters are (t, t) only
    scaled: bool = False

    @property
    def ideal(self) -> bool:
        """The structure is a right ideal: an interpolant is one element u."""
        return len(self.keys[2]) == 1

    def params(self, M: FiniteMonoid) -> list[tuple[int, int]]:
        if self.diagonal:
            return [(t, t) for t in M.elements()]
        return [(s, t) for s in M.elements() for t in M.elements()]

    def instances(self, B: Act, s: int, t: int) -> list[tuple[int, int, tuple]]:
        """Trigger instances s·b = t·b', where b' = b when y is x, as
        (b, b', legs) in order of b and then b', with the legs an interpolant
        must reach: (b, b'), or (s·b, s·b) for a scaled class."""
        srow = B.table[s]
        if self.trigger[0] == self.trigger[-1]:
            return [(b, b, (b, b)) for b, v in enumerate(srow) if v == B.table[t][b]]
        fibre = _fibre(B.table[t])
        return [
            (b, b2, (v, v) if self.scaled else (b, b2))
            for b, v in enumerate(srow) for b2 in fibre.get(v, ())
        ]


# The classes that the deciders, the sentence schemas and the replacement
# skeletons all read; the key order is the order every listing uses.
INTERPOLATION_CLASSES = {
    "P": InterpolationClass(
        R_set, ("x", "y"), (("s", "s2"), ("b", "b2"), ("u", "u2"), "through")
    ),
    "E": InterpolationClass(r_set, ("x",), (("s", "s2"), ("b",), ("u",), "through")),
    "EP": InterpolationClass(
        R_set, ("x", "x"), (("s", "t"), ("a",), ("u", "v"), "through")
    ),
    "W": InterpolationClass(
        ideal_intersection, ("x", "y"), (("s", "t"), ("a", "a2"), ("u",), "d"),
        scaled=True,
    ),
    "PWP": InterpolationClass(
        R_set, ("x", "x'"), (("t",), ("a", "a2"), ("u", "v"), "through"),
        diagonal=True,
    ),
}


def as_pairs(items) -> tuple[tuple[int, int], ...]:
    """Structure elements as pairs (u, v); an ideal's member u is (u, u)."""
    return tuple(g if isinstance(g, tuple) else (g, g) for g in items)


@lru_cache(maxsize=1024)
def _structure(
    structure: Callable, M: FiniteMonoid, s: int, t: int
) -> tuple[tuple[int, int], ...]:
    """One parameter's entry of the class table: the minimum generators of
    its structure as pairs, from which the rest of it is generated.  Keyed
    by the structure, so (P), (EP) and (PWP) share their R(s,t) entries."""
    return as_pairs(min_generating_set(structure(M, s, t)))


@lru_cache(maxsize=64)
def _structures(cid: str, M: FiniteMonoid) -> dict:
    """The class table (s, t) -> its `_structure` entry in parameter order,
    read by deciders and schemas; kept for the most recent monoids."""
    cls = INTERPOLATION_CLASSES[cid]
    return {(s, t): _structure(cls.structure, M, s, t) for s, t in cls.params(M)}


@lru_cache(maxsize=64)
def _fibre(row: tuple[int, ...]) -> dict[int, tuple[int, ...]]:
    """A recent act row indexed by value: value -> the carrier elements that
    the row takes to it, in carrier order."""
    return {v: tuple(b for b, w in enumerate(row) if w == v) for v in dict.fromkeys(row)}


def _require_left(B: Act):
    if B.side != "left":
        raise SideMismatchError("condition checks run on left acts")


@lru_cache(maxsize=16)
def _interpolate(B: Act, cid: str) -> tuple[int, int, int, int] | None:
    """The first trigger instance (s, t, b, b') of a recent act whose legs
    are outside the union of the generators' orbits, which is the
    structure's orbit: legs = (u·c, v·c) for a generator (u, v) and c in B.
    None when the act is in the class."""
    cls = INTERPOLATION_CLASSES[cid]
    rows = B.table
    orbits = {}  # generator pairs -> their orbit, shared by the parameters
    for (s, t), gen_pairs in _structures(cid, B.monoid).items():
        orbit = orbits.get(gen_pairs)
        if orbit is None:
            orbit = orbits[gen_pairs] = {x for u, v in gen_pairs for x in zip(rows[u], rows[v])}
        for b, b2, legs in cls.instances(B, s, t):
            if legs not in orbit:
                return s, t, b, b2
    return None


def _decide(B: Act, cid: str, want: bool) -> ConditionReport:
    """A class's report, built afresh from the decision `_interpolate` keeps."""
    cls = INTERPOLATION_CLASSES[cid]
    failure = _interpolate(B, cid)
    if failure is not None:
        return ConditionReport(cid, "fails", _instance(B, cls, *failure))
    if not want:
        return ConditionReport(cid, "holds")
    M, rows, found = B.monoid, B.table, []
    firsts = {}  # generator pairs -> their map, shared by the parameters
    for (s, t), gen_pairs in _structures(cid, M).items():
        first = firsts.get(gen_pairs)
        if first is None:
            # legs (u·c, v·c) -> the first (u, v, c) over the structure's
            # sorted pairs: smallest c first, or smallest u first for a
            # scaled class, whose pairs are all (u, u)
            pairs = sorted(generated_pair_subact(M, gen_pairs).pairs)
            order = [(u, v, c) for c in B.carrier() for u, v in pairs]
            first = firsts[gen_pairs] = {}
            for u, v, c in sorted(order) if cls.scaled else order:
                first.setdefault((rows[u][c], rows[v][c]), (u, v, c))
        for b, b2, legs in cls.instances(B, s, t):
            found.append(_instance(B, cls, s, t, b, b2, first[legs]))
    return ConditionReport(cid, "holds", None, {"instances": found})


def _instance(B: Act, cls, s, t, b, b2, interpolant=None) -> dict:
    """A trigger instance, with its interpolant when given, under the
    class's report keys."""
    mn, bn = B.monoid.element_names, B.carrier_names
    param_keys, value_keys, interpolant_keys, through_key = cls.keys
    out = dict(zip(param_keys, (mn[s], mn[t])))
    out.update(zip(value_keys, (bn[b], bn[b2])))
    if interpolant is not None:
        u, v, c = interpolant
        out.update(zip(interpolant_keys, (mn[u], mn[v])))
        out[through_key] = bn[c]
    return out


def check_condition(B: Act, cond: str, want_witnesses: bool = False) -> ConditionReport:
    """One condition of a left act: TF, which every act over a finite monoid
    satisfies, SF as (P) and then (E), or a class, checked exhaustively
    over B's carrier and S."""
    _require_left(B)
    cond = cond.upper()
    if cond == "TF":
        # a left-cancellable element of a finite monoid is a unit, whose row is injective
        return ConditionReport("TF", "holds")
    if cond in INTERPOLATION_CLASSES:
        return _decide(B, cond, want_witnesses)
    if cond != "SF":
        raise UnknownConditionError(cond)
    details = {}
    for cid in ("P", "E"):
        part = _decide(B, cid, want_witnesses)
        if not part.holds:
            return ConditionReport("SF", "fails", part.witness)
        details[cid] = part.details
    return ConditionReport("SF", "holds", None, details if want_witnesses else None)


def condition_profile(B: Act, conds=CONDITION_IDS) -> dict[str, ConditionReport]:
    """All requested condition verdicts of one act."""
    _require_left(B)
    return {c: check_condition(B, c) for c in conds}


@lru_cache(maxsize=16)
def _pwf_failure(B: Act) -> tuple[int, int, int, int, int] | None:
    """For a recent act, the first a whose aS ⊗ B does not embed in S ⊗ B,
    with the first two pairs (k1, b1), (k, b) of aS × B whose classes meet
    there, as (a, k1, b1, k, b); None when B is principally weakly flat.

    aS ≅ S/R(a,a), so aS ⊗ B is B modulo θ_a, the equivalence that the
    pairs (u·c, v·c) with (u, v) in R(a,a) generate: k ⊗ b is the θ_a-class
    of u·b when a·u = k, and lands on k·b in S ⊗ B ≅ B.  The first pair
    (k, b) whose image an earlier pair of another class has, and that
    earlier pair, are the first members of the first two classes to meet.
    """
    M, rows = B.monoid, B.table
    for a in M.elements():
        arow = M.mul[a]
        class_of, _ = present(rows, 1, _relations(arow, M.size))
        seen: dict[int, tuple[int, int, int]] = {}
        for k in sorted(set(arow)):
            urow = rows[arow.index(k)]
            for b in B.carrier():
                ci = class_of[urow[b]]
                ci1, k1, b1 = seen.setdefault(rows[k][b], (ci, k, b))
                if ci1 != ci:
                    return a, k1, b1, k, b
    return None


def check_pwf(B: Act) -> ConditionReport:
    """Principal weak flatness: aS ⊗ B embeds in S ⊗ B for every a.

    A failure gives the first two classes of aS ⊗ B that meet in S ⊗ B as
    pair1 and pair2, and (a, b, b2) with a ⊗ b = a ⊗ b2 in S ⊗ B but not in
    aS ⊗ B, pulled back through the elementary step (a*u, b) ~ (a, u*b).
    """
    _require_left(B)
    failure = _pwf_failure(B)
    if failure is None:
        return ConditionReport("PWF", "holds")
    M, rows = B.monoid, B.table
    a, k1, b1, k, b = failure
    arow = M.mul[a]
    return ConditionReport("PWF", "fails", {
        "a": M.label(a), "b": B.label(rows[arow.index(k1)][b1]),
        "b2": B.label(rows[arow.index(k)][b]),
        "pair1": [M.label(k1), B.label(b1)],
        "pair2": [M.label(k), B.label(b)],
    })


def check_wf(B: Act) -> ConditionReport:
    """Weak flatness: K ⊗ B embeds in S ⊗ B for every right ideal K, which
    holds exactly when B is principally weakly flat and satisfies (W).

    A PWF failure at a is reported on the ideal aS, split at PWF's pairs;
    otherwise the first (W) failure s·b = t·b2 splits s ⊗ b from t ⊗ b2 in
    (sS ∪ tS) ⊗ B.
    """
    _require_left(B)
    M = B.monoid
    pwf = _pwf_failure(B)
    if pwf is not None:
        gens, (s, b, t, b2) = [pwf[0]], pwf[1:]
    else:
        failure = _interpolate(B, "W")
        if failure is None:
            return ConditionReport("WF", "holds")
        s, t, b, b2 = failure
        gens = [s, t]
    ideal = sorted(set().union(*(M.mul[g] for g in gens)))
    witness = {"ideal": [M.label(k) for k in ideal],
               "pair1": [M.label(s), B.label(b)], "pair2": [M.label(t), B.label(b2)]}
    return ConditionReport("WF", "fails", witness)


def _joined(relations, edges: dict, rows, nb: int) -> int:
    """The pairs (b, b2) with x ⊗ b = x' ⊗ b2 in ([x]S ∪ [x']S) ⊗ B, bit
    b*|B| + b2, for the subact presented by `relations`.

    The tensor product is two copies of B, node i*|B| + c for x_i ⊗ c,
    modulo (i, u*c) ~ (j, v*c).  A relation's |B| edges are kept in
    `edges` as one int, bit p*2|B| + q for the edge p-q, so the adjacency
    rows of a subact are an OR of ints and each component is grown by a
    bit frontier from a node x ⊗ b not yet reached.
    """
    width = 2 * nb
    adj = 0
    for rel in relations:
        bits = edges.get(rel)
        if bits is None:
            i, u, j, v = rel
            bits = 0
            for c, d in zip(rows[u], rows[v]):
                p, q = i * nb + c, j * nb + d
                bits |= 1 << p * width + q | 1 << q * width + p
            edges[rel] = bits
        adj |= bits
    row_mask, low = (1 << width) - 1, (1 << nb) - 1
    joined, unseen = 0, low
    while unseen:
        comp = frontier = unseen & -unseen
        while frontier:
            reach = 0
            while frontier:
                node = frontier & -frontier
                reach |= adj >> (node.bit_length() - 1) * width & row_mask
                frontier ^= node
            frontier = reach & ~comp
            comp |= frontier
        unseen &= ~comp
        xs, x2s = comp & low, comp >> nb
        while xs:
            b = xs & -xs
            joined |= x2s << (b.bit_length() - 1) * nb
            xs ^= b
    return joined


def _compose(rel: int, succ: list[int], nb: int) -> int:
    """The relation rel followed by the step whose successor sets are succ,
    bit b*|B| + b2 in each."""
    low, out = (1 << nb) - 1, 0
    for shift in range(0, nb * nb, nb):
        reach, v = rel >> shift & low, 0
        while reach:
            if reach & 1:
                out |= succ[v] << shift
            reach >>= 1
            v += 1
    return out


def _gamma_walk(B: Act, auto, m_max: int):
    """Yield (m, state, rel, entries) for each distinct pair of a state of
    `auto` and a gamma relation in B reached by a skeleton of length
    m <= m_max, entries being the least such skeleton in `product` order.

    Bit b*|B| + b2 of rel is set when (b, b2) is a gamma pair.  A step
    (s, t) takes v to {t*x : s*x = v}, and the walk extends the pairs of
    each level in the order they were reached by the steps in `product`
    order, so the first skeleton that reaches a pair is its least, and the
    pairs come in the order of their least skeletons.  A relation that is
    empty is not extended; its extensions are empty too.
    """
    rows, n, nb = B.table, B.monoid.size, B.size
    steps = []  # (s, t), its letter, successor sets, the compositions made with them
    for s, srow in enumerate(rows):
        for t, trow in enumerate(rows):
            succ = [0] * nb
            for v, w in zip(srow, trow):
                succ[v] |= 1 << w
            steps.append((s, t, s * n + t, succ, {}))
    level = {(0, sum(1 << b * (nb + 1) for b in range(nb))): ()}
    for m in range(1, m_max + 1):
        reached: dict[tuple[int, int], tuple[int, ...]] = {}
        for (state, rel), entries in level.items():
            row = auto.delta[state]
            for s, t, letter, succ, made in steps:
                nxt = made.get(rel)
                if nxt is None:
                    nxt = made[rel] = _compose(rel, succ, nb)
                if not nxt:
                    continue
                state2 = row[letter]
                if state2 is None:
                    state2 = auto.step(state, s, t)
                if (state2, nxt) not in reached:
                    reached[state2, nxt] = skeleton = entries + (s, t)
                    yield m, state2, nxt, skeleton
        level = reached


def check_flat_bounded(B: Act, m_max: int = 2) -> ConditionReport:
    """Refutation procedure for flatness over skeletons of length <= m_max.

    For each skeleton the standard quotient connects ([x], b) to ([x'], b2)
    whenever the gamma chain holds in B; flatness forces the same equality
    in ([x]S ∪ [x']S) ⊗ B.  A skeleton matters only through its state in
    the monoid's `SubactAutomaton` and its gamma relation, so the search
    reads each distinct pair once, from `_gamma_walk`, in the order of its
    least skeleton; the first failing pair gives the least failing
    skeleton.  ([x]S ∪ [x']S) ⊗ B is joined once per call for each state.
    The witness is the failing skeleton's least split pair (b, b2): the
    lowest bit b*|B| + b2 of its relation outside the joined pairs.  A
    failure here is a definitive non-flatness witness; exhausting the
    bound is only "passes-up-to-bound".
    """
    _require_left(B)
    if m_max < 1:
        raise ValidationError("flatness bound must be at least 1")
    M, rows, nb = B.monoid, B.table, B.size
    auto = subact_automaton(M)
    edges: dict = {}  # a relation's edges in ([x]S ∪ [x']S) ⊗ B
    joined: dict[int, int] = {}  # state -> its joined pairs
    for m, state, rel, entries in _gamma_walk(B, auto, m_max):
        # skip m = 1: [x]S ∪ [x']S is its whole quotient, which joins every gamma pair
        if m == 1:
            continue
        same = joined.get(state)
        if same is None:
            same = joined[state] = _joined(auto.pairs[state], edges, rows, nb)
        split = rel & ~same
        if split:
            b, b2 = divmod((split & -split).bit_length() - 1, nb)
            witness = {"skeleton": [M.label(e) for e in entries],
                       "b": B.label(b), "b2": B.label(b2)}
            return ConditionReport("FLAT", "fails", witness)
    checked = sum(M.size ** (2 * m) for m in range(1, m_max + 1))
    return ConditionReport(
        "FLAT", "passes-up-to-bound", None, {"m_max": m_max, "skeletons": checked}
    )
