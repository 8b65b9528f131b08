"""Finite left and right acts of a monoid, morphisms, act congruences, and
exhaustive enumeration of all action tables up to a carrier size.

An act stores its action as table[s][a]: for a left act this is s*a, for a
right act a*s.  Both laws then read table[s][table[t][a]] == table[st][a]
(left) and table[t][table[s][a]] == table[st][a] (right).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain, product
from typing import Iterable, Iterator, Sequence

from .errors import (
    CompatibilityError,
    EmptyCarrierError,
    IdentityLawError,
    ValidationError,
)
from .monoid import FiniteMonoid


@dataclass(frozen=True)
class Act:
    monoid: FiniteMonoid
    side: str  # "left" | "right"
    carrier_names: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]  # table[s][a]

    def __hash__(self) -> int:
        try:  # once per instance, as FiniteMonoid's
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash((self.monoid, self.table)))
            return self._hash

    @property
    def size(self) -> int:
        return len(self.carrier_names)

    def apply(self, s: int, a: int) -> int:
        """s*a for a left act, a*s for a right act."""
        return self.table[s][a]

    def carrier(self) -> range:
        return range(len(self.carrier_names))

    def index(self, label: str) -> int:
        try:
            return self.carrier_names.index(label)
        except ValueError:
            raise ValidationError(f"{label!r} is not in the carrier") from None

    def label(self, a: int) -> str:
        return self.carrier_names[a]


@dataclass(frozen=True)
class ActCongruence:
    """An action-compatible partition of an act's carrier."""

    act: Act
    block_of: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)


@dataclass(frozen=True)
class ActMorphism:
    source: Act
    target: Act
    mapping: tuple[int, ...]


def morphism_is_valid(f: ActMorphism) -> bool:
    """Check the homomorphism law (s a)θ = s(aθ) on every instance."""
    src, tgt = f.source, f.target
    if src.side != tgt.side or src.monoid != tgt.monoid:
        return False
    if len(f.mapping) != src.size:
        return False
    m = f.mapping
    for s in src.monoid.elements():
        srow, trow = src.table[s], tgt.table[s]
        for a in src.carrier():
            if m[srow[a]] != trow[m[a]]:
                return False
    return True


def _law_violation(M: FiniteMonoid, side: str, table) -> tuple | None:
    """First failing act-law instance of a raw table, or None."""
    e = M.identity
    k = len(table[0])
    for a in range(k):
        if table[e][a] != a:
            return ("identity", a)
    mul = M.mul
    left = side == "left"
    for s in M.elements():
        for t in M.elements():
            # the row applied last: s in s·(t·a), t in (a·s)·t
            outer, inner = (table[s], table[t]) if left else (table[t], table[s])
            st_row = table[mul[s][t]]
            for a in range(k):
                if outer[inner[a]] != st_row[a]:
                    return ("compat", s, t, a)
    return None


def validate_act(
    M: FiniteMonoid,
    side: str,
    names: Sequence[str],
    action_table: Sequence[Sequence[int]],
) -> Act:
    """Validate an action table, naming the failing law instance on error."""
    if side not in ("left", "right"):
        raise ValidationError(f"side must be 'left' or 'right', got {side!r}")
    if not names:
        raise EmptyCarrierError()
    k = len(names)
    if len(set(names)) != k:
        raise ValidationError("carrier labels must be distinct")
    if len(action_table) != M.size or any(len(row) != k for row in action_table):
        raise ValidationError("action table is not total")
    for row in action_table:
        for v in row:
            if not (0 <= v < k):
                raise ValidationError(f"action entry {v} out of range")
    table = tuple(tuple(row) for row in action_table)
    bad = _law_violation(M, side, table)
    if bad is not None:
        if bad[0] == "identity":
            raise IdentityLawError(names[bad[1]])
        _, s, t, a = bad
        raise CompatibilityError(M.label(s), M.label(t), names[a], side)
    return Act(M, side, tuple(names), table)


def regular_act(M: FiniteMonoid, side: str) -> Act:
    """S acting on itself by multiplication."""
    if side == "left":
        table = M.mul
    else:
        table = tuple(tuple(M.mul[a][s] for a in M.elements()) for s in M.elements())
    return Act(M, side, M.element_names, tuple(tuple(r) for r in table))


def find_root(parent: list[int], x: int) -> int:
    """The root of x in a merge-find forest, halving its path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def congruence_closure(act: Act, seed_pairs: Iterable[tuple[int, int]]) -> ActCongruence:
    """Smallest act congruence containing the seeds.

    Merge-find with a worklist: each merge of a and b enqueues (sa, sb)
    for every s, so compatibility propagates along merge chains.
    """
    k = act.size
    parent = list(range(k))
    table = act.table
    els = act.monoid.elements()
    work = deque(seed_pairs)
    for a, b in work:
        if not (0 <= a < k and 0 <= b < k):
            raise ValidationError("seed pair outside the carrier")
    while work:
        a, b = work.popleft()
        ra, rb = find_root(parent, a), find_root(parent, b)
        if ra == rb:
            continue
        parent[rb] = ra
        for s in els:
            row = table[s]
            work.append((row[a], row[b]))
    groups: dict[int, list[int]] = {}
    for x in range(k):
        groups.setdefault(find_root(parent, x), []).append(x)
    blocks = tuple(tuple(g) for g in sorted(groups.values(), key=lambda g: g[0]))
    block_of = [0] * k
    for bi, block in enumerate(blocks):
        for x in block:
            block_of[x] = bi
    return ActCongruence(act, tuple(block_of), blocks)


def enumerate_acts(
    M: FiniteMonoid, side: str, max_size: int, distinct: bool = False
) -> Iterator[Act]:
    """Stream every act on carriers of size 1..max_size, in deterministic order.

    Rows (one per non-identity element) are assigned in element order, so
    tables come in lexicographic order.  Writing f∘g for the row f applied
    after the row g, each act law a new row x completes is kept at x once
    its target h is known (assigned, or a product of assigned rows), else
    at h: the laws where x occurs once, and f∘x = x, narrow each entry of
    x; unless x is such a product, x∘x = h, once h is x or known, is kept
    by a search for the rows r with r[r[a]] = h[a]; x∘g = x is checked on
    each candidate.  With distinct=True only the lexicographically-canonical
    member of each isomorphism class is emitted: the search is orderly,
    cutting a prefix as soon as some carrier relabelling maps it onto a
    smaller one (McKay, J. Algorithms 26, 1998).  The first row is decided
    by a search over partial relabellings; its automorphisms, the leaves of
    that search, are the only relabellings the later rows are scanned by.
    """
    if max_size < 1:
        raise ValidationError("max_size must be at least 1")
    if side not in ("left", "right"):
        raise ValidationError(f"side must be 'left' or 'right', got {side!r}")
    # checked before the stream is returned, so that a stream never read fails too
    return chain.from_iterable(
        _enumerate_size(M, side, k, distinct) for k in range(1, max_size + 1)
    )


def _rows_squaring_to(
    domains: Sequence[Sequence[int]], square: Sequence[int] | None
) -> list:
    """The rows r with r[a] in domains[a] and r[r[a]] = square[a], or
    r[r[a]] = r[a] when square is None, in lexicographic order when each
    domain is sorted.  Entries are filled in order; a value v beyond the
    entry being filled leaves `need[v]`, the value r[v] must take."""
    k = len(domains)
    row = [0] * k
    need: list[int | None] = [None] * k
    found = []

    def fill(a: int) -> None:
        values = domains[a]
        if need[a] is not None:
            values = [need[a]] if need[a] in values else []
        for v in values:
            row[a] = v
            want = v if square is None else square[a]
            if v > a:
                if need[v] in (None, want):
                    before, need[v] = need[v], want
                    fill(a + 1)
                    need[v] = before
            elif row[v] == want:
                if a + 1 == k:
                    found.append(tuple(row))
                else:
                    fill(a + 1)

    fill(0)
    return found


def _enumerate_size(M: FiniteMonoid, side: str, k: int, distinct: bool) -> Iterator[Act]:
    n = M.size
    e = M.identity
    order = [i for i in range(n) if i != e]
    mul = M.mul
    left = side == "left"
    names = tuple(f"a{i}" for i in range(k))
    # the trivial monoid's one act, returned before the 2^k-entry `points_in`
    # table below: when |S| = 1 the CLI guard bounds k only by k^2 <= its budget
    if not order:
        yield Act(M, side, names, (tuple(range(k)),))
        return

    # the row of comp(f, g) is the map rows[f] after rows[g]
    def comp(f: int, g: int) -> int:
        return mul[f][g] if left else mul[g][f]

    # Each law f∘g = comp(f, g) that the new row x completes is kept at x
    # once its target h is known: assigned, as the pair (h, e), or the
    # product f'∘g' of assigned rows that h's `forced` law will fix it to;
    # else at h.  Those where x occurs once, and f∘x = x, narrow each entry
    # of x before any candidate is tried:
    #   forced   x = f∘g           x read once, from the first (f, g); the
    #                              branch is cut unless the others agree
    #   preimage f∘x = h           x(a) in f^-1(h(a))
    #   pinned   x∘g = h           x(g(a)) = h(a)
    #   fixing   f∘x = x           x(a) in Fix(f)
    # x's own square x∘x = h, once h is x or known and x is not forced, is
    # kept by the row search (`squares`), and x∘g = x is checked on each
    # candidate (`absorbing`).
    forced, preimage, pinned, fixing, squares, absorbing = [], [], [], [], [], []
    assigned = {e}
    for x in order:
        fixed = sorted(assigned - {e})
        known = {comp(f, g): (f, g) for f in fixed for g in fixed}
        known.update({h: (h, e) for h in assigned})
        known.pop(x, None)  # f∘x = x stays `fixing`
        forced.append([(f, g) for f in fixed for g in fixed if comp(f, g) == x])
        preimage.append([(f, known[comp(f, x)]) for f in fixed if comp(f, x) in known])
        pinned.append([(g, known[comp(x, g)]) for g in fixed if comp(x, g) in known])
        fixing.append([f for f in fixed if comp(f, x) == x])
        h = comp(x, x)
        # x = f∘g needs no square: x∘x = f∘(g∘x) follows from the other laws
        squares.append(None if forced[-1] else (x, e) if h == x else known.get(h))
        absorbing.append([g for g in fixed if comp(x, g) == x])
        assigned.add(x)

    full = (1 << k) - 1
    points_in = [[v for v in range(k) if m >> v & 1] for m in range(1 << k)]
    rows: list[tuple[int, ...] | None] = [None] * n
    rows[e] = tuple(range(k))

    def row(f: int, g: int):
        """The row of a known element: rows[f] after rows[g]."""
        return rows[f] if g == e else [rows[f][v] for v in rows[g]]

    def domains(pos: int) -> list[list[int]]:
        """The values each entry of the row at `pos` may take, as bitmasks
        narrowed by the laws with the assigned rows, then as sorted lists."""
        allowed = [full] * k
        if forced[pos]:
            (f, g), *rest = forced[pos]
            X = row(f, g)
            if any(row(f2, g2) != X for f2, g2 in rest):
                return [[]] * k
            allowed = [1 << v for v in X]
        for f, h in preimage[pos]:
            F, H = rows[f], row(*h)
            pre = [0] * k
            for a in range(k):
                pre[F[a]] |= 1 << a
            for a in range(k):
                allowed[a] &= pre[H[a]]
        for g, h in pinned[pos]:
            G, H = rows[g], row(*h)
            for a in range(k):
                allowed[G[a]] &= 1 << H[a]
        for f in fixing[pos]:
            F = rows[f]
            fix = sum(1 << v for v in range(k) if F[v] == v)
            for a in range(k):
                allowed[a] &= fix
        return [points_in[m] for m in allowed]

    def candidates(pos: int):
        """The rows within the domains of `pos`, searched by x's own square
        where `squares` keeps it, else read lazily as their product."""
        allowed, h = domains(pos), squares[pos]
        if h is None:
            return product(*allowed)
        return _rows_squaring_to(allowed, None if h[0] == order[pos] else row(*h))

    # Orderly generation: a relabelling p maps row r to r^p with
    # r^p[p(a)] = p(r[a]), and fixes the identity row.  Rows are assigned in
    # the table's lexicographic order, so once some p maps the assigned
    # prefix onto a smaller one, no completion is canonical.  `stab` holds
    # the relabellings that map the prefix onto itself, which alone can make
    # a later row smaller; it is empty at the first row, fixed by all k!.
    def backtrack(pos: int, stab) -> Iterator[Act]:
        if pos == len(order):
            yield Act(M, side, names, tuple(rows))  # type: ignore[arg-type]
            return
        x = order[pos]
        laws = [rows[g] for g in absorbing[pos]]
        for cand in candidates(pos):
            if laws and any(tuple([cand[v] for v in G]) != cand for G in laws):
                continue
            rows[x] = cand
            if stab is None:
                yield from backtrack(pos + 1, None)
                continue
            kept = [] if pos else _automorphisms(cand)
            for perm, inv in stab:
                image = tuple([perm[cand[i]] for i in inv])
                if image < cand:
                    kept = None
                    break
                if image == cand:
                    kept.append((perm, inv))
            if kept is not None:
                yield from backtrack(pos + 1, kept)
        rows[x] = None

    yield from backtrack(0, () if distinct else None)


def _automorphisms(row: Sequence[int]) -> list | None:
    """The relabellings (p, p^-1) with row^p = row, or None once some p gives
    row^p < row.  Filling p^-1 in order, y at i gives row^p[i] = p(row[y]) if
    row[y] is placed, else a later position: only i+1 can tie with row[i]."""
    # position 0 without the search: a fixed point there gives row^p[0] = 0
    if row[0] > 1 or row[0] == 1 and any(v == a for a, v in enumerate(row)):
        return None
    k = len(row)
    found: list = []
    return found if _place(row, [None] * k, [None] * k, found, 0, range(k)) else None


def _place(row, perm: list, inv: list, found: list, i: int, points) -> bool:
    """Place each free y of `points` at position i; False once one gives
    row^p < row.  Not a closure, whose self-reference would need the GC."""
    if i == len(row):
        found.append((perm[:], inv[:]))
        return True
    for y in points:
        if perm[y] is None:
            perm[y], inv[i] = i, y
            at, later = perm[row[y]], range(len(row))
            if at is None:
                at, later = i + 1, (row[y],)
            if at < row[i] or at == row[i] and not _place(row, perm, inv, found, i + 1, later):
                return False
            perm[y] = inv[i] = None
    return True
