"""Tensor products of acts, tossings, skeleton formulas, and the induced
morphism out of a finitely presented quotient of a free act.

A ⊗ B is the quotient of A x B by the equivalence generated by the
elementary pairs (a*s, b) ~ (a, s*b).  Every tensor product here, and the
standard quotient of a skeleton, is one `present` call: copies of a left
act, one per generator of a presented right act, merged and numbered.  A
tossing is the explicit scheme of equations certifying a ⊗ b = a' ⊗ b':

             b     = s1*b1
  a *s1 = a2*t1    t1*b1 = s2*b2
  a2*s2 = a3*t2    t2*b2 = s3*b3
   ...                ...
  am*sm = a'*tm    tm*bm = b'

with skeleton (s1,t1,...,sm,tm).  A tossing is exactly an alternating path
in the elementary-step graph on A x B: each step moves one monoid element
across the pair, and the two columns of the scheme are the R and L steps.

Each column is one zigzag.  It starts from a value v0, and each step (q, p)
picks an x with q*x = v(i-1) and moves on to v(i) = p*x, where q*x is
x*q in a right act.  Steps are held flat, step i being (steps[2i],
steps[2i+1]).  The left column (gamma) runs the skeleton's own steps
(si, ti) from b to b'; the right column (delta) runs the skeleton without
its two ends, the steps (ti, s(i+1)), from a*s1 to a'*tm.  Solving,
checking and printing a column all read its steps.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from .act import Act, ActMorphism, find_root
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

    def class_index(self, a: int, b: int) -> int:
        return self.class_of[_pair_index(self.right_act, self.left_act, a, b)]

    def same_class(self, a: int, b: int, a2: int, b2: int) -> bool:
        return self.class_index(a, b) == self.class_index(a2, b2)


def _pair_index(A: Act, B: Act, a: int, b: int) -> int:
    """The index a*|B|+b of the pair (a, b) of A x B."""
    if not (0 <= a < A.size):
        raise ElementNotFoundError(str(a), "right act carrier")
    if not (0 <= b < B.size):
        raise ElementNotFoundError(str(b), "left act carrier")
    return a * B.size + b


def _check_indices(values, size: int, where: str):
    """Raise ElementNotFoundError for the first value outside range(size)."""
    for v in values:
        if not (0 <= v < size):
            raise ElementNotFoundError(str(v), where)


def _check_sides(A: Act, B: Act):
    if A.side != "right":
        raise SideMismatchError("first tensor factor must be a right act")
    if B.side != "left":
        raise SideMismatchError("second tensor factor must be a left act")
    if A.monoid != B.monoid:
        raise MonoidMismatchError("tensor factors live over different monoids")


def _relations(blocks, n: int):
    """The defining relations (i, u, j, v), each x_i*u = x_j*v, of a right
    act generated by x_0, x_1, ..., with blocks[i*n + u] naming x_i*u:
    each position chained to the first position of its block."""
    first: dict[int, int] = {}
    for pos, k in enumerate(blocks):
        pos0 = first.setdefault(k, pos)
        if pos0 != pos:
            yield divmod(pos, n) + divmod(pos0, n)


def present(rows, copies: int, relations) -> tuple[list[int], list[int]]:
    """U ⊗ B, for the left act B with table `rows` and the right act U
    presented by `copies` generators x_i and the relations (i, u, j, v),
    each x_i*u = x_j*v: tensoring is right exact, so U ⊗ B is copies of B,
    i*|B| + c standing for x_i ⊗ c, modulo (i, u*c) ~ (j, v*c) for every
    relation and c.  Returns the class of each position, classes numbered
    by their first position, and those first positions."""
    nb = len(rows[0])
    parent = list(range(copies * nb))
    # the later root joins the earlier, so every parent precedes its child
    for i, u, j, v in relations:
        for c, d in zip(rows[u], rows[v]):
            ra, rb = find_root(parent, i * nb + c), find_root(parent, j * nb + d)
            parent[ra if ra > rb else rb] = rb if ra > rb else ra
    class_of, firsts = [], []
    for pos, p in enumerate(parent):
        class_of.append(class_of[p] if p < pos else len(firsts))
        if p == pos:
            firsts.append(pos)
    return class_of, firsts


def tensor_product(A: Act, B: Act) -> TensorProduct:
    """A ⊗ B presented by A's elements as generators, x_a*s = x_(a*s): copy
    a of B holds the pairs (a, b), and the relation (a, s) ~ (a*s, 1) joins
    every elementary pair (a, s*b) ~ (a*s, b)."""
    _check_sides(A, B)
    n, na, nb = A.monoid.size, A.size, B.size
    blocks = [A.table[s][a] for a in range(na) for s in range(n)]
    class_of, firsts = present(B.table, na, _relations(blocks, n))
    members: list[list[tuple[int, int]]] = [[] for _ in firsts]
    for pos, ci in enumerate(class_of):
        members[ci].append(divmod(pos, nb))
    return TensorProduct(A, B, tuple(class_of), tuple(tuple(c) for c in members))


def _walk(table, steps, v0):
    """Run a zigzag forward from v0 without fixing its witnesses.

    Returns each step's layer, the x in carrier order whose q*x is a value
    reached so far, and the set of values the last step reaches.
    """
    reach = {v0}
    layers = []
    for i in range(len(steps) // 2):
        prow = table[steps[2 * i + 1]]
        layer = []
        nxt = set()
        for x, v in enumerate(table[steps[2 * i]]):
            if v in reach:
                layer.append(x)
                nxt.add(prow[x])
        layers.append(layer)
        reach = nxt
    return layers, reach


def _solve(table, steps, v0, end):
    """(True, witnesses) for a zigzag from v0 to `end`, else (False, None).
    The witnesses are picked walking back from the end: the first x in
    each layer whose p*x is the value the next step needs.  Among all
    witness tuples this is the one whose reverse is lexicographically
    least."""
    layers, reach = _walk(table, steps, v0)
    if end not in reach:
        return (False, None)
    wits = []
    for i in range(len(layers) - 1, -1, -1):
        prow = table[steps[2 * i + 1]]
        for x in layers[i]:
            if prow[x] == end:
                break
        wits.append(x)
        end = table[steps[2 * i]][x]
    wits.reverse()
    return (True, tuple(wits))


def _equations(table, steps, xs, first, last):
    """The equations of a zigzag through the witnesses xs,
    first = q1*x1, p1*x1 = q2*x2, ..., pk*xk = last, read off table[q][x]
    as the list of their left sides and the list of their right sides.
    The column holds when the lists are equal; where they differ first,
    counting from 1, is the first broken equation."""
    lhs, rhs = [first], []
    for i, x in enumerate(xs):
        rhs.append(table[steps[2 * i]][x])
        lhs.append(table[steps[2 * i + 1]][x])
    rhs.append(last)
    return lhs, rhs


def validate_tossing(t: Tossing) -> bool:
    """Re-check every defining equation of the scheme in its two acts;
    False as well for an index outside the monoid or its act."""
    A, B, sk = t.right_act, t.left_act, t.skeleton
    m = sk.length
    if len(t.a_witnesses) != m - 1 or len(t.b_witnesses) != m:
        return False
    a, b = t.start
    a2, b2 = t.end
    if not (
        all(0 <= s < A.monoid.size for s in sk.entries)
        and all(0 <= x < A.size for x in (a, a2, *t.a_witnesses))
        and all(0 <= x < B.size for x in (b, b2, *t.b_witnesses))
    ):
        return False
    at, e = A.table, sk.entries
    dl, dr = _equations(at, e[1:-1], t.a_witnesses, at[e[0]][a], at[e[-1]][a2])
    gl, gr = _equations(B.table, e, t.b_witnesses, b, b2)
    return dl == dr and gl == gr


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


@lru_cache(maxsize=16)
def _tossing_index(A: Act, B: Act):
    """The elementary-step graph of A x B and its BFS forests by source,
    each forest filled on the first query from its source."""
    return _edges(A, B), {}


def find_tossing(A: Act, B: Act, a: int, b: int, a2: int, b2: int) -> Tossing | None:
    """Read a shortest path off the BFS forest and normalize it into a tossing.

    The forest from (a, b) is built once per (A, B) and source.
    Consecutive same-direction steps are separated by identity-labelled
    self-loops so the result alternates R, L, R, L, ... as the scheme
    requires.  Returns None when the pairs are not ⊗-equal.
    """
    _check_sides(A, B)
    nb = B.size
    e = A.monoid.identity
    src = _pair_index(A, B, a, b)
    dst = _pair_index(A, B, a2, b2)
    adj, forests = _tossing_index(A, B)
    prev = forests.get(src)
    if prev is None:
        # a full BFS gives every node the parent a search stopping at dst would
        prev = forests[src] = {src: (-1, "", -1)}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v, kind, s in adj[u]:
                if v not in prev:
                    prev[v] = (u, kind, s)
                    queue.append(v)
    if dst not in prev:
        return None
    path: list[tuple[str, int, tuple[int, int]]] = []  # (kind, s, node reached)
    cur = dst
    while cur != src:
        p, kind, s = prev[cur]
        path.append((kind, s, divmod(cur, nb)))
        cur = p
    path.reverse()

    # R steps take the even places of the skeleton and L steps the odd ones;
    # an identity step fills a place the path skips and makes the count even
    entries: list[int] = []
    nodes = [(a, b)]
    for kind, s, node in path:
        if (kind == "R") != (len(entries) % 2 == 0):
            entries.append(e)
            nodes.append(nodes[-1])
        entries.append(s)
        nodes.append(node)
    while not entries or len(entries) % 2:
        entries.append(e)
        nodes.append(nodes[-1])
    m = len(entries) // 2
    # after each R step the B coordinate is b_i; after each non-final L
    # step the A coordinate is a_{i+1}
    return Tossing(
        A, B, Skeleton(tuple(entries)), (a, b), nodes[-1],
        tuple(nodes[2 * i][0] for i in range(1, m)),
        tuple(nodes[2 * i + 1][1] for i in range(m)),
    )


def eval_delta(
    A: Act, sk: Skeleton, a: int, a2: int
) -> tuple[bool, tuple[int, ...] | None]:
    """Right-act side of the skeleton: does the chain
    x*s1 = x2*t1, x2*s2 = x3*t2, ..., xn*sn = x'*tn
    have witnesses x2..xn with x = a, x' = a2?

    Solved as the zigzag of steps (t_i, s_{i+1}) from a*s1 to a2*tn.
    Raises ElementNotFoundError for an entry or point outside M or A.
    """
    if A.side != "right":
        raise SideMismatchError("delta formulas evaluate in a right act")
    tbl, e = A.table, sk.entries
    _check_indices(e, len(tbl), "monoid")
    _check_indices((a, a2), A.size, "right act carrier")
    return _solve(tbl, e[1:-1], tbl[e[0]][a], tbl[e[-1]][a2])


def eval_gamma(
    B: Act, sk: Skeleton, b: int, b2: int
) -> tuple[bool, tuple[int, ...] | None]:
    """Left-act side of the skeleton: witnesses x1..xn for
    x = s1*x1, t1*x1 = s2*x2, ..., tn*xn = x' with x = b, x' = b2,
    solved as the zigzag of steps (s_i, t_i) from b to b2.  Raises
    ElementNotFoundError for an entry or point outside M or B."""
    if B.side != "left":
        raise SideMismatchError("gamma formulas evaluate in a left act")
    _check_indices(sk.entries, len(B.table), "monoid")
    _check_indices((b, b2), B.size, "left act carrier")
    return _solve(B.table, sk.entries, b, b2)


def gamma_pairs(B: Act, sk: Skeleton) -> frozenset[tuple[int, int]]:
    """All (b, b2) with a gamma witness chain, in one walk per source b;
    a b outside the image of s1 has no first witness."""
    if B.side != "left":
        raise SideMismatchError("gamma formulas evaluate in a left act")
    tbl, e = B.table, sk.entries
    _check_indices(e, len(tbl), "monoid")  # one row per monoid element
    return frozenset((b, b2) for b in set(tbl[e[0]]) for b2 in _walk(tbl, e, b)[1])


def _standard_classes(M: FiniteMonoid, entries: tuple[int, ...]):
    """The classes of the standard quotient Q, as `present` numbers them, on
    positions i*|S| + u, each standing for x_(i+1)*u.  Q ⊗ S = Q, so Q is
    m+1 copies of S merged along the relations x_i*s_(i+1) = x_(i+1)*t_(i+1)."""
    _check_indices(entries, M.size, "monoid")
    m = Skeleton(entries).length
    return present(M.mul, m + 1, zip(range(m), entries[::2], range(1, m + 1), entries[1::2]))


@lru_cache(maxsize=4096)
def _standard_parts(M: FiniteMonoid, entries: tuple[int, ...]):
    """(Q, marks, reps), Q's classes numbered by their first position
    (i, u), listed in reps, and named after it."""
    block_of, firsts = _standard_classes(M, entries)
    n = M.size
    reps = tuple(divmod(pos, n) for pos in firsts)
    names = tuple(f"[x{i + 1}#{M.element_names[u]}]" for i, u in reps)
    table = tuple(tuple(block_of[i * n + M.mul[u][s]] for i, u in reps) for s in M.elements())
    marks = tuple(block_of[pos + M.identity] for pos in range(0, len(block_of), n))
    return Act(M, "right", names, table), marks, reps


def standard_tossing_act(M: FiniteMonoid, sk: Skeleton) -> tuple[Act, tuple[int, ...]]:
    """Quotient of the free act on m+1 generators by the relations
    x_i*s_i ~ x_{i+1}*t_i, plus the classes [x], [x_2], ..., [x'].

    The delta formula of sk holds between [x] and [x'] by construction.
    Raises ElementNotFoundError for a skeleton entry outside M.
    """
    return _standard_parts(M, sk.entries)[:2]


@lru_cache(maxsize=8192)
def standard_subact(M: FiniteMonoid, entries: tuple[int, ...]) -> tuple[int, ...]:
    """Cached classes of x*u then x'*u, u in S, in the standard quotient,
    numbered in order of first appearance: a table presenting [x]S ∪ [x']S
    by its generators [x] and [x'], as _relations reads it."""
    class_of, n, first = _standard_classes(M, entries)[0], M.size, {}
    return tuple(first.setdefault(c, len(first)) for c in class_of[:n] + class_of[-n:])


class SubactAutomaton:
    """The `standard_subact` tables of one monoid as the states of a finite
    automaton whose letters are the steps (s, t).

    Appending (s, t) to a skeleton adds a copy x'' of S and merges
    x'*(s*u) ~ x''*(t*u) for every u.  Each merge it makes among old
    classes runs through positions of x'*S, so the classes of x*u then
    x''*u, the next state, depend on the state's table alone.  State 0 is
    the empty skeleton's, x' = x.  `pairs[state]` holds the relations
    (i, u, j, v) that `_relations` reads off the table, and
    `delta[state][s*|S| + t]` is filled on first use.
    """

    def __init__(self, M: FiniteMonoid):
        self.monoid = M
        self.tables: list[tuple[int, ...]] = []
        self.pairs: list[tuple[tuple[int, int, int, int], ...]] = []
        self.delta: list[list[int | None]] = []
        self._state_of: dict[tuple[int, ...], int] = {}
        self._add(tuple(range(M.size)) * 2)

    def _add(self, table: tuple[int, ...]) -> int:
        state = self._state_of.get(table)
        if state is None:
            n = self.monoid.size
            state = self._state_of[table] = len(self.tables)
            self.tables.append(table)
            self.pairs.append(tuple(_relations(table, n)))
            self.delta.append([None] * (n * n))
        return state

    def step(self, state: int, s: int, t: int) -> int:
        """The state reached from `state` by the step (s, t): x''*u starts
        as the new class k + u, then x'*(s*u) ~ x''*(t*u) are merged."""
        mul, n = self.monoid.mul, self.monoid.size
        row = self.delta[state]
        if row[s * n + t] is None:
            table = self.tables[state]
            k = max(table) + 1
            parent = list(range(k + n))
            for su, tu in zip(mul[s], mul[t]):
                ra, rb = find_root(parent, table[n + su]), find_root(parent, k + tu)
                parent[max(ra, rb)] = min(ra, rb)
            first: dict[int, int] = {}
            row[s * n + t] = self._add(tuple(
                first.setdefault(find_root(parent, c), len(first))
                for c in table[:n] + tuple(range(k, k + n))
            ))
        return row[s * n + t]


@lru_cache(maxsize=8)
def subact_automaton(M: FiniteMonoid) -> SubactAutomaton:
    """The standard-subact automaton of a recent monoid, grown by its users."""
    return SubactAutomaton(M)


def induced_morphism(
    M: FiniteMonoid, sk: Skeleton, target: Act, witnesses: tuple[int, ...]
) -> ActMorphism:
    """The morphism from the standard quotient into `target` determined by a
    witness chain a = a_1, a_2, ..., a_{m+1} = a' for the delta equations
    a_i*s_i = a_{i+1}*t_i.

    The free act maps by (copy i, u) -> a_i * u.  When the chain holds
    every equation, each relation's two sides have one image, so this map
    factors through Q: every class [x_i]*u, read at its first position,
    maps to a_i*u, and [x_i] maps to a_i.  Raises WitnessesInvalidError
    at the first broken equation, ElementNotFoundError for a witness
    outside `target` or a skeleton entry outside M, MonoidMismatchError
    for a `target` over another monoid.
    """
    if target.side != "right":
        raise SideMismatchError("induced morphism lands in a right act")
    if target.monoid is not M and target.monoid != M:
        raise MonoidMismatchError("induced morphism lands in an act over another monoid")
    m = sk.length
    if len(witnesses) != m + 1:
        raise WitnessesInvalidError(-1)
    _check_indices(witnesses, target.size, "right act carrier")
    ttbl, e = target.table, sk.entries
    Q, _, reps = _standard_parts(M, e)
    for i in range(m):
        if ttbl[e[2 * i]][witnesses[i]] != ttbl[e[2 * i + 1]][witnesses[i + 1]]:
            raise WitnessesInvalidError(i + 1)
    # tuple() of a list is sized exactly; of a generator it may keep a larger block
    return ActMorphism(Q, target, tuple([ttbl[u][witnesses[i]] for i, u in reps]))


def format_tossing(t: Tossing) -> str:
    """Two-column text table of the scheme, in carrier and element labels."""
    A, B, sk = t.right_act, t.left_act, t.skeleton
    ml = A.monoid.element_names
    a, b = t.start
    a2, b2 = t.end
    # the terms x*q and q*x as text, in tables laid out like the act tables
    at = [[f"{x}*{q}" for x in A.carrier_names] for q in ml]
    bt = [[f"{q}*{x}" for x in B.carrier_names] for q in ml]
    e, bn = sk.entries, B.carrier_names
    delta = _equations(at, e[1:-1], t.a_witnesses, at[e[0]][a], at[e[-1]][a2])
    gamma = _equations(bt, e, t.b_witnesses, bn[b], bn[b2])
    left_col = [""] + [f"{l} = {r}" for l, r in zip(*delta)]
    right_col = [f"{l} = {r}" for l, r in zip(*gamma)]
    width = max(len(s) for s in left_col) + 4
    lines = [l.ljust(width) + r for l, r in zip(left_col, right_col)]
    return "\n".join(lines)
