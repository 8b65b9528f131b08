"""Tensor products of acts, tossings, skeleton formulas, and the induced
morphism out of a finitely presented quotient of a free act.

A ⊗ B is the quotient of A x B by the equivalence generated by the
elementary pairs (a*s, b) ~ (a, s*b).  A tossing is the explicit scheme of
equations certifying a ⊗ b = a' ⊗ b':

             b     = s1*b1
  a *s1 = a2*t1    t1*b1 = s2*b2
  a2*s2 = a3*t2    t2*b2 = s3*b3
   ...                ...
  am*sm = a'*tm    tm*bm = b'

with skeleton (s1,t1,...,sm,tm).  A tossing is exactly an alternating path
in the elementary-step graph on A x B: each step moves one monoid element
across the pair, and the two columns of the scheme are the R and L steps.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from .act import (
    Act,
    ActMorphism,
    congruence_closure,
    free_base_point,
    free_right_act,
    morphism_is_valid,
    quotient_act,
    restrict_act,
    subact_generated,
)
from .errors import (
    ElementNotFoundError,
    MonoidMismatchError,
    SideMismatchError,
    ValidationError,
    WitnessesInvalidError,
)
from .monoid import FiniteMonoid


@dataclass(frozen=True)
class Skeleton:
    """An even-length sequence (s1,t1,...,sm,tm) of monoid element indices."""

    entries: tuple[int, ...]

    def __post_init__(self):
        if len(self.entries) < 2 or len(self.entries) % 2 != 0:
            raise ValidationError("skeleton needs even length >= 2")

    @property
    def length(self) -> int:
        return len(self.entries) // 2

    def s(self, i: int) -> int:
        """s_i, 1-based."""
        return self.entries[2 * (i - 1)]

    def t(self, i: int) -> int:
        """t_i, 1-based."""
        return self.entries[2 * (i - 1) + 1]

    def labels(self, M: FiniteMonoid) -> tuple[str, ...]:
        return tuple(M.element_names[e] for e in self.entries)


@dataclass(frozen=True)
class Tossing:
    """A fully witnessed scheme connecting (a,b) to (a2,b2) over A and B.

    a_witnesses holds a_2..a_m (empty when m = 1); b_witnesses holds
    b_1..b_m.
    """

    right_act: Act
    left_act: Act
    skeleton: Skeleton
    start: tuple[int, int]
    end: tuple[int, int]
    a_witnesses: tuple[int, ...]
    b_witnesses: tuple[int, ...]


@dataclass(frozen=True)
class TensorProduct:
    """The partition of A x B into ⊗-classes; pair (a,b) has index a*|B|+b."""

    right_act: Act
    left_act: Act
    class_of: tuple[int, ...]
    classes: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def _pair_index(self, a: int, b: int) -> int:
        nb = self.left_act.size
        if not (0 <= a < self.right_act.size):
            raise ElementNotFoundError(str(a), "right act carrier")
        if not (0 <= b < nb):
            raise ElementNotFoundError(str(b), "left act carrier")
        return a * nb + b

    def class_index(self, a: int, b: int) -> int:
        return self.class_of[self._pair_index(a, b)]

    def same_class(self, a: int, b: int, a2: int, b2: int) -> bool:
        return self.class_index(a, b) == self.class_index(a2, b2)


def _check_sides(A: Act, B: Act):
    if A.side != "right":
        raise SideMismatchError("first tensor factor must be a right act")
    if B.side != "left":
        raise SideMismatchError("second tensor factor must be a left act")
    if A.monoid != B.monoid:
        raise MonoidMismatchError("tensor factors live over different monoids")


def tensor_product(A: Act, B: Act) -> TensorProduct:
    """Merge-find over A x B on all elementary pairs ((a*s, b), (a, s*b))."""
    _check_sides(A, B)
    na, nb = A.size, B.size
    parent = list(range(na * nb))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s in A.monoid.elements():
        arow, brow = A.table[s], B.table[s]
        for a in range(na):
            asb = arow[a] * nb
            ab = a * nb
            for b in range(nb):
                ra, rb = find(asb + b), find(ab + brow[b])
                if ra != rb:
                    parent[rb] = ra
    index_of: dict[int, int] = {}
    class_of = []
    members: list[list[tuple[int, int]]] = []
    for a in range(na):
        for b in range(nb):
            root = find(a * nb + b)
            ci = index_of.setdefault(root, len(index_of))
            if ci == len(members):
                members.append([])
            members[ci].append((a, b))
            class_of.append(ci)
    return TensorProduct(A, B, tuple(class_of), tuple(tuple(c) for c in members))


def tensor_equal(T: TensorProduct, a: int, b: int, a2: int, b2: int) -> bool:
    """a ⊗ b = a' ⊗ b' iff the pairs share a class."""
    return T.same_class(a, b, a2, b2)


def validate_tossing(t: Tossing) -> bool:
    """Re-check every defining equation of the scheme in its two acts."""
    A, B, sk = t.right_act, t.left_act, t.skeleton
    m = sk.length
    if len(t.a_witnesses) != m - 1 or len(t.b_witnesses) != m:
        return False
    a, b = t.start
    a2, b2 = t.end
    achain = (a,) + t.a_witnesses + (a2,)
    bs = t.b_witnesses
    if B.table[sk.s(1)][bs[0]] != b:
        return False
    for i in range(1, m + 1):
        if A.table[sk.s(i)][achain[i - 1]] != A.table[sk.t(i)][achain[i]]:
            return False
    for i in range(1, m):
        if B.table[sk.t(i)][bs[i - 1]] != B.table[sk.s(i + 1)][bs[i]]:
            return False
    return B.table[sk.t(m)][bs[m - 1]] == b2


def _edges(A: Act, B: Act):
    """Elementary-step edges on A x B.

    The generator (p, q, s) links (p*s, q) and (p, s*q); traversing towards
    (p, s*q) factors the A side (an L step), the reverse factors the B side
    (an R step).
    """
    na, nb = A.size, B.size
    adj: list[list[tuple[int, str, int]]] = [[] for _ in range(na * nb)]
    for s in A.monoid.elements():
        arow, brow = A.table[s], B.table[s]
        for p in range(na):
            u_base = arow[p] * nb
            v_base = p * nb
            for q in range(nb):
                u = u_base + q
                v = v_base + brow[q]
                adj[u].append((v, "L", s))
                adj[v].append((u, "R", s))
    return adj


def find_tossing(A: Act, B: Act, a: int, b: int, a2: int, b2: int) -> Tossing | None:
    """Search the elementary-step graph and normalize the path into a tossing.

    BFS gives a shortest raw path; consecutive same-direction steps are
    separated by identity-labelled self-loops so the result alternates
    R, L, R, L, ... as the scheme requires.  Returns None when the pairs
    are not ⊗-equal.
    """
    _check_sides(A, B)
    nb = B.size
    e = A.monoid.identity
    for x, bound, where in (
        (a, A.size, "right act carrier"),
        (a2, A.size, "right act carrier"),
        (b, nb, "left act carrier"),
        (b2, nb, "left act carrier"),
    ):
        if not (0 <= x < bound):
            raise ElementNotFoundError(str(x), where)
    src = a * nb + b
    dst = a2 * nb + b2
    if src == dst:
        steps = [("R", e), ("L", e)]
        return _assemble(A, B, a, b, steps, [(a, b), (a, b), (a, b)])
    adj = _edges(A, B)
    prev: dict[int, tuple[int, str, int]] = {src: (-1, "", -1)}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        if u == dst:
            break
        for v, kind, s in adj[u]:
            if v not in prev:
                prev[v] = (u, kind, s)
                queue.append(v)
    if dst not in prev:
        return None
    steps = []
    nodes = []
    cur = dst
    while cur != src:
        p, kind, s = prev[cur]
        steps.append((kind, s))
        nodes.append(divmod(cur, nb))
        cur = p
    steps.reverse()
    nodes.reverse()
    nodes.insert(0, (a, b))

    norm_steps: list[tuple[str, int]] = []
    norm_nodes: list[tuple[int, int]] = [nodes[0]]
    expect = "R"
    for (kind, s), node in zip(steps, nodes[1:]):
        if kind != expect:
            norm_steps.append((expect, e))
            norm_nodes.append(norm_nodes[-1])
            expect = "L" if expect == "R" else "R"
        norm_steps.append((kind, s))
        norm_nodes.append(node)
        expect = "L" if expect == "R" else "R"
    if expect == "L":
        norm_steps.append(("L", e))
        norm_nodes.append(norm_nodes[-1])
    return _assemble(A, B, a, b, norm_steps, norm_nodes)


def _assemble(A, B, a, b, steps, nodes) -> Tossing:
    """Read the skeleton and witnesses off an alternating step sequence."""
    s_entries = [s for kind, s in steps if kind == "R"]
    t_entries = [s for kind, s in steps if kind == "L"]
    assert len(s_entries) == len(t_entries), "normalization must alternate"
    entries = []
    for se, te in zip(s_entries, t_entries):
        entries.extend((se, te))
    sk = Skeleton(tuple(entries))
    m = sk.length
    # after each R step the B coordinate is b_i; after each non-final L
    # step the A coordinate is a_{i+1}
    b_wit = tuple(nodes[2 * i + 1][1] for i in range(m))
    a_wit = tuple(nodes[2 * i][0] for i in range(1, m))
    end = nodes[-1]
    toss = Tossing(A, B, sk, (a, b), end, a_wit, b_wit)
    assert validate_tossing(toss), "assembled tossing failed its own equations"
    return toss


def eval_delta(
    A: Act, sk: Skeleton, a: int, a2: int
) -> tuple[bool, tuple[int, ...] | None]:
    """Right-act side of the skeleton: does the chain
    x*s1 = x2*t1, x2*s2 = x3*t2, ..., xn*sn = x'*tn
    have witnesses x2..xn with x = a, x' = a2?

    Solved left-to-right: each layer keeps the candidates reachable so far,
    with back-pointers for witness extraction.
    """
    if A.side != "right":
        raise SideMismatchError("delta formulas evaluate in a right act")
    m = sk.length
    tbl = A.table
    if m == 1:
        ok = tbl[sk.s(1)][a] == tbl[sk.t(1)][a2]
        return (ok, () if ok else None)
    target0 = tbl[sk.s(1)][a]
    layers: list[dict[int, int | None]] = [
        {x: None for x in A.carrier() if tbl[sk.t(1)][x] == target0}
    ]
    for i in range(2, m):
        nxt: dict[int, int | None] = {}
        trow = tbl[sk.t(i)]
        srow = tbl[sk.s(i)]
        for y in A.carrier():
            ty = trow[y]
            for x in layers[-1]:
                if srow[x] == ty:
                    nxt[y] = x
                    break
        layers.append(nxt)
    final = tbl[sk.t(m)][a2]
    srow = tbl[sk.s(m)]
    for x in layers[-1]:
        if srow[x] == final:
            wits = [x]
            for i in range(m - 2, 0, -1):
                wits.append(layers[i][wits[-1]])
            wits.reverse()
            return (True, tuple(wits))
    return (False, None)


def eval_gamma(
    B: Act, sk: Skeleton, b: int, b2: int
) -> tuple[bool, tuple[int, ...] | None]:
    """Left-act side of the skeleton: witnesses x1..xn for
    x = s1*x1, t1*x1 = s2*x2, ..., tn*xn = x' with x = b, x' = b2."""
    if B.side != "left":
        raise SideMismatchError("gamma formulas evaluate in a left act")
    m = sk.length
    tbl = B.table
    layers: list[dict[int, int | None]] = [
        {x: None for x in B.carrier() if tbl[sk.s(1)][x] == b}
    ]
    for i in range(1, m):
        nxt: dict[int, int | None] = {}
        trow = tbl[sk.t(i)]
        srow = tbl[sk.s(i + 1)]
        for y in B.carrier():
            sy = srow[y]
            for x in layers[-1]:
                if trow[x] == sy:
                    nxt[y] = x
                    break
        layers.append(nxt)
    trow = tbl[sk.t(m)]
    for x in layers[-1]:
        if trow[x] == b2:
            wits = [x]
            for i in range(m - 1, 0, -1):
                wits.append(layers[i][wits[-1]])
            wits.reverse()
            return (True, tuple(wits))
    return (False, None)


def gamma_pairs(B: Act, sk: Skeleton) -> frozenset[tuple[int, int]]:
    """All (b, b2) with a gamma witness chain, in one sweep per source."""
    m = sk.length
    tbl = B.table
    out = set()
    for b in B.carrier():
        layer = {x for x in B.carrier() if tbl[sk.s(1)][x] == b}
        for i in range(1, m):
            if not layer:
                break
            trow = tbl[sk.t(i)]
            srow = tbl[sk.s(i + 1)]
            reach = {trow[x] for x in layer}
            layer = {y for y in B.carrier() if srow[y] in reach}
        trow = tbl[sk.t(m)]
        for x in layer:
            out.add((b, trow[x]))
    return frozenset(out)


@lru_cache(maxsize=4096)
def _standard_parts(M: FiniteMonoid, entries: tuple[int, ...]):
    sk = Skeleton(entries)
    m = sk.length
    n = M.size
    F = free_right_act(M, m + 1)
    seeds = [(i * n + sk.s(i + 1), (i + 1) * n + sk.t(i + 1)) for i in range(m)]
    cong = congruence_closure(F, seeds)
    Q, proj = quotient_act(F, cong)
    marks = tuple(proj.mapping[free_base_point(M, copy)] for copy in range(1, m + 2))
    return cong, Q, marks


def standard_tossing_act(M: FiniteMonoid, sk: Skeleton) -> tuple[Act, tuple[int, ...]]:
    """Quotient of the free act on m+1 generators by the relations
    x_i*s_i ~ x_{i+1}*t_i, plus the classes [x], [x_2], ..., [x'].

    The delta formula of sk holds between [x] and [x'] by construction.
    """
    _, Q, marks = _standard_parts(M, sk.entries)
    return Q, marks


@lru_cache(maxsize=4096)
def standard_subact(M: FiniteMonoid, entries: tuple[int, ...]):
    """Cached ([x]S ∪ [x']S, position of [x], position of [x']) for a skeleton."""
    Q, marks = standard_tossing_act(M, Skeleton(entries))
    members = subact_generated(Q, {marks[0], marks[-1]})
    U, pos = restrict_act(Q, members)
    return U, pos[marks[0]], pos[marks[-1]]


def induced_morphism(
    M: FiniteMonoid, sk: Skeleton, target: Act, witnesses: tuple[int, ...]
) -> ActMorphism:
    """The morphism from the standard quotient into `target` determined by a
    witness chain a = a_1, a_2, ..., a_{m+1} = a' for the delta equations
    a_i*s_i = a_{i+1}*t_i.

    The free act maps by (copy i, s) -> a_i * s; both sides of every
    relation pair land on equal elements exactly because the chain
    satisfies its equations, so the map factors through the quotient.
    Raises WitnessesInvalid when an equation fails.
    """
    if target.side != "right":
        raise SideMismatchError("induced morphism lands in a right act")
    m = sk.length
    if len(witnesses) != m + 1:
        raise WitnessesInvalidError(-1)
    ttbl = target.table
    for i in range(1, m + 1):
        if ttbl[sk.s(i)][witnesses[i - 1]] != ttbl[sk.t(i)][witnesses[i]]:
            raise WitnessesInvalidError(i)
    cong, Q, marks = _standard_parts(M, sk.entries)
    n = M.size
    mapping = [-1] * Q.size
    for copy in range(m + 1):
        base = witnesses[copy]
        for s in range(n):
            q = cong.block_of[copy * n + s]
            img = ttbl[s][base]
            if mapping[q] == -1:
                mapping[q] = img
            else:
                # the generated congruence sits inside the kernel of any
                # map respecting the relation pairs
                assert mapping[q] == img, "relation class mapped inconsistently"
    nu = ActMorphism(Q, target, tuple(mapping))
    assert morphism_is_valid(nu), "induced map failed the morphism law"
    assert mapping[marks[0]] == witnesses[0] and mapping[marks[-1]] == witnesses[-1]
    return nu


def format_tossing(t: Tossing) -> str:
    """Two-column text table of the scheme, in carrier and element labels."""
    A, B, sk = t.right_act, t.left_act, t.skeleton
    ml = A.monoid.element_names
    m = sk.length
    a, b = t.start
    a2, b2 = t.end
    achain = (a,) + t.a_witnesses + (a2,)
    bs = t.b_witnesses
    an, bn = A.carrier_names, B.carrier_names

    left_col = [""]
    right_col = [f"{bn[b]} = {ml[sk.s(1)]}*{bn[bs[0]]}"]
    for i in range(1, m + 1):
        left_col.append(
            f"{an[achain[i - 1]]}*{ml[sk.s(i)]} = {an[achain[i]]}*{ml[sk.t(i)]}"
        )
        if i < m:
            right_col.append(
                f"{ml[sk.t(i)]}*{bn[bs[i - 1]]} = {ml[sk.s(i + 1)]}*{bn[bs[i]]}"
            )
        else:
            right_col.append(f"{ml[sk.t(m)]}*{bn[bs[m - 1]]} = {bn[b2]}")
    width = max(len(s) for s in left_col) + 4
    lines = [l.ljust(width) + r for l, r in zip(left_col, right_col)]
    return "\n".join(lines)
