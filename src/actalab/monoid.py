"""Finite monoids given by multiplication tables.

Elements are referenced by index internally and by label externally.  The
pair-solution set R(s,t) = {(u,v) : su = tv}, the equalizer ideal
r(s,t) = {u : su = tu} and the intersection sS ∩ tS are the right-action
structures whose minimum generating sets drive everything downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from .errors import (
    BadIdentityError,
    DuplicateNameError,
    NonAssociativeError,
    ValidationError,
)


@dataclass(frozen=True)
class FiniteMonoid:
    """A monoid on indices 0..n-1 with mul[i][j] = i*j and a two-sided identity."""

    name: str
    element_names: tuple[str, ...]
    mul: tuple[tuple[int, ...], ...]
    identity: int

    def __hash__(self) -> int:
        # once per instance, set as the frozen fields are: a write to
        # __dict__, as cached_property makes, would slow every later read
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash((self.mul, self.identity)))
            return self._hash

    @property
    def size(self) -> int:
        return len(self.element_names)

    def op(self, i: int, j: int) -> int:
        return self.mul[i][j]

    def elements(self) -> range:
        return range(len(self.element_names))

    def index(self, label: str) -> int:
        try:
            return self.element_names.index(label)
        except ValueError:
            raise ValidationError(
                f"{label!r} is not an element of {self.name}"
            ) from None

    def label(self, i: int) -> str:
        return self.element_names[i]


@dataclass(frozen=True)
class RightIdeal:
    """A subset of S closed under right multiplication (possibly empty)."""

    monoid: FiniteMonoid
    members: frozenset[int]

    def labels(self) -> tuple[str, ...]:
        return tuple(self.monoid.element_names[i] for i in sorted(self.members))


@dataclass(frozen=True)
class PairSubact:
    """A subset of S x S closed under the componentwise right action."""

    monoid: FiniteMonoid
    pairs: frozenset[tuple[int, int]]


def _check_tables(name, names, mul, identity):
    seen = set()
    for label in names:
        if label in seen:
            raise DuplicateNameError(label)
        seen.add(label)
    n = len(names)
    if not (0 <= identity < n):
        raise ValidationError(f"identity index {identity} out of range")
    for i in range(n):
        if mul[identity][i] != i:
            raise BadIdentityError(names[identity], names[i])
        if mul[i][identity] != i:
            raise BadIdentityError(names[identity], names[i])
    for i in range(n):
        row = mul[i]
        for j in range(n):
            ij = row[j]
            for k in range(n):
                if mul[ij][k] != mul[i][mul[j][k]]:
                    raise NonAssociativeError(names[i], names[j], names[k])
    return FiniteMonoid(name, tuple(names), tuple(tuple(r) for r in mul), identity)


def monoid_from_indices(
    name: str, names: Sequence[str], mul: Sequence[Sequence[int]], identity: int
) -> FiniteMonoid:
    """Build and validate a monoid from an index-valued table."""
    n = len(names)
    if len(mul) != n or any(len(row) != n for row in mul):
        raise ValidationError("multiplication table is not total")
    for row in mul:
        for v in row:
            if not (0 <= v < n):
                raise ValidationError(f"table entry {v} out of range")
    return _check_tables(name, names, mul, identity)


def validate_monoid(
    names: Sequence[str],
    table: Sequence[Sequence[str]],
    identity_label: str,
    name: str = "S",
) -> FiniteMonoid:
    """Validate a label-valued table, the interchange format for monoids.

    The first failing triple or element is named in the raised error.
    """
    names = list(names)
    pos = {}
    for i, label in enumerate(names):
        if label in pos:
            raise DuplicateNameError(label)
        pos[label] = i
    if identity_label not in pos:
        raise ValidationError(f"identity label {identity_label!r} not among elements")
    n = len(names)
    if len(table) != n or any(len(row) != n for row in table):
        raise ValidationError("multiplication table is not total")
    mul = []
    for row in table:
        out = []
        for entry in row:
            if entry not in pos:
                raise ValidationError(f"table entry {entry!r} is not an element")
            out.append(pos[entry])
        mul.append(out)
    return _check_tables(name, names, mul, pos[identity_label])


def principal_right_ideal(M: FiniteMonoid, a: int) -> RightIdeal:
    """The ideal aS; always contains a via the identity."""
    row = M.mul[a]
    return RightIdeal(M, frozenset(row[s] for s in M.elements()))


def ideal_intersection(M: FiniteMonoid, s: int, t: int) -> RightIdeal:
    """sS ∩ tS as a right ideal, possibly empty."""
    return RightIdeal(
        M, principal_right_ideal(M, s).members & principal_right_ideal(M, t).members
    )


def r_set(M: FiniteMonoid, s: int, t: int) -> RightIdeal:
    """r(s,t) = {u : su = tu}.  Closed on the right since su=tu gives suw=tuw."""
    srow, trow = M.mul[s], M.mul[t]
    return RightIdeal(M, frozenset(u for u in M.elements() if srow[u] == trow[u]))


def R_set(M: FiniteMonoid, s: int, t: int) -> PairSubact:
    """R(s,t) = {(u,v) : su = tv}, closed under the componentwise right action."""
    srow, trow = M.mul[s], M.mul[t]
    pairs = frozenset(
        (u, v) for u in M.elements() for v in M.elements() if srow[u] == trow[v]
    )
    return PairSubact(M, pairs)


def left_cancellable_elements(M: FiniteMonoid) -> tuple[int, ...]:
    """The s for which sa = sb forces a = b: in a finite monoid, the units."""
    return tuple(s for s in M.elements() if len(set(M.mul[s])) == M.size)


Structure = Union[RightIdeal, PairSubact]


def min_generating_set(structure: Structure):
    """Minimum-cardinality generating set of a right-closed structure: the
    first item, in index order (lexicographic for pairs), of each maximal
    class of the generation preorder x <= y iff x in yS.

    The orbit yS is transitively closed, so a set generates iff its orbits
    cover everything, and any generating set must meet every maximal
    class; one item per maximal class is therefore a true minimum.  One
    pass finds them: take the items by decreasing orbit size, ties in item
    order, and keep each item not yet covered by a kept item's orbit.
    Suppose x is still uncovered when its turn comes.  Any y whose orbit
    holds x has an orbit at least as large; had y come earlier, y or the
    kept item covering y would cover x.  So every such y comes later, with
    an orbit of the same size that contains x's, hence equal to it: y is in
    x's class and after it in item order.  So x is maximal and the first of
    its class.  Conversely the first x of a maximal class is covered only
    by a member of its class, and none comes before it.  The kept items,
    in item order, are returned; the empty structure yields ().
    """
    mul = structure.monoid.mul
    if isinstance(structure, RightIdeal):
        orbit = {u: set(mul[u]) for u in sorted(structure.members)}
    else:
        orbit = {(u, v): set(zip(mul[u], mul[v])) for u, v in sorted(structure.pairs)}
    chosen, covered = [], set()
    for x in sorted(orbit, key=lambda x: -len(orbit[x])):
        if x not in covered:
            chosen.append(x)
            covered |= orbit[x]
    return tuple(sorted(chosen))


def generated_pair_subact(
    M: FiniteMonoid, generators: Iterable[tuple[int, int]]
) -> PairSubact:
    pairs = set()
    for u, v in generators:
        pairs.update((M.mul[u][s], M.mul[v][s]) for s in M.elements())
    return PairSubact(M, frozenset(pairs))
