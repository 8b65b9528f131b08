"""Independent oracles shared by the test modules.

These deliberately avoid the library's own search strategies: generating
sets are found by exhaustive subset search, tossing existence by full
witness enumeration, congruence minimality by scanning every partition,
isomorphism-canonical acts by trying every carrier relabelling, tossings
by a fresh elementary-step graph and BFS per query, and principal, weak
and bounded flatness by building the tensor products themselves.  Those
tensor products merge A x B on its elementary pairs, and the standard
quotients come from the free act through a worklist congruence closure,
so no oracle shares the library's presented merge.
"""

from collections import deque
from itertools import combinations, permutations, product
from typing import Iterable

from actalab.act import (
    Act,
    ActCongruence,
    ActMorphism,
    congruence_closure,
    find_root,
    regular_act,
)
from actalab.conditions import INTERPOLATION_CLASSES, ConditionReport
from actalab.errors import ValidationError
from actalab.monoid import FiniteMonoid, PairSubact, RightIdeal, principal_right_ideal
from actalab.tensor import (
    Skeleton,
    TensorProduct,
    Tossing,
    _edges,
    eval_delta,
    eval_gamma,
    gamma_pairs,
    validate_tossing,
)


def free_right_act(M: FiniteMonoid, k: int) -> Act:
    """The free right act on k generators: k tagged copies of S.

    Carrier element (copy i, s) is labelled "xi#s" and the action is
    (i, s)*t = (i, st); the base point of copy i is (i, 1).
    """
    if k < 1:
        raise ValidationError("free act needs at least one generator")
    n = M.size
    names = tuple(
        f"x{i + 1}#{M.element_names[s]}" for i in range(k) for s in range(n)
    )
    table = tuple(
        tuple(i * n + M.mul[s][t] for i in range(k) for s in range(n))
        for t in M.elements()
    )
    return Act(M, "right", names, table)


def free_base_point(M: FiniteMonoid, copy: int) -> int:
    """Carrier index of (copy, 1); copies are 1-based."""
    return (copy - 1) * M.size + M.identity


def quotient_act(act: Act, cong: ActCongruence) -> tuple[Act, ActMorphism]:
    """The act on congruence blocks plus the canonical projection."""
    if cong.act != act:
        raise ValidationError("congruence does not belong to this act")
    block_of = cong.block_of
    reps = [block[0] for block in cong.blocks]
    names = tuple(f"[{act.carrier_names[r]}]" for r in reps)
    table = tuple(
        tuple(block_of[act.table[s][r]] for r in reps) for s in act.monoid.elements()
    )
    quotient = Act(act.monoid, act.side, names, table)
    return quotient, ActMorphism(act, quotient, block_of)


def subact_generated(act: Act, subset: Iterable[int]) -> frozenset[int]:
    """Smallest action-closed superset of the given carrier elements."""
    closed = set(subset)
    frontier = list(closed)
    els = act.monoid.elements()
    while frontier:
        a = frontier.pop()
        for s in els:
            b = act.table[s][a]
            if b not in closed:
                closed.add(b)
                frontier.append(b)
    return frozenset(closed)


def restrict_act(act: Act, members: Iterable[int]) -> tuple[Act, dict[int, int]]:
    """The induced act on an action-closed subset.

    Returns the restricted act and the map from old carrier indices to new.
    """
    members = sorted(set(members))
    pos = {a: i for i, a in enumerate(members)}
    for a in members:
        for s in act.monoid.elements():
            if act.table[s][a] not in pos:
                raise ValidationError("subset is not action-closed")
    names = tuple(act.carrier_names[a] for a in members)
    table = tuple(
        tuple(pos[act.table[s][a]] for a in members) for s in act.monoid.elements()
    )
    return Act(act.monoid, act.side, names, table), pos


def elementary_tensor(A: Act, B: Act) -> TensorProduct:
    """A ⊗ B by merge-find over A x B on all elementary pairs
    ((a*s, b), (a, s*b)), classes numbered by their first pair."""
    na, nb = A.size, B.size
    parent = list(range(na * nb))
    for s in A.monoid.elements():
        arow, brow = A.table[s], B.table[s]
        for a in range(na):
            asb = arow[a] * nb
            ab = a * nb
            for b in range(nb):
                ra, rb = find_root(parent, asb + b), find_root(parent, ab + brow[b])
                if ra != rb:
                    parent[rb] = ra
    index_of: dict[int, int] = {}
    class_of = []
    members: list[list[tuple[int, int]]] = []
    for a in range(na):
        for b in range(nb):
            root = find_root(parent, a * nb + b)
            ci = index_of.setdefault(root, len(index_of))
            if ci == len(members):
                members.append([])
            members[ci].append((a, b))
            class_of.append(ci)
    return TensorProduct(A, B, tuple(class_of), tuple(tuple(c) for c in members))


def standard_quotient_oracle(M, entries):
    """(Q, marks) of a skeleton's standard quotient: the free right act on
    m+1 generators modulo the congruence the seeds
    (x_i*s_(i+1), x_(i+1)*t_(i+1)) generate, and the classes of the base
    points."""
    sk = Skeleton(entries)
    m = sk.length
    n = M.size
    F = free_right_act(M, m + 1)
    seeds = [(i * n + sk.s(i + 1), (i + 1) * n + sk.t(i + 1)) for i in range(m)]
    cong = congruence_closure(F, seeds)
    Q, proj = quotient_act(F, cong)
    marks = tuple(proj.mapping[free_base_point(M, copy)] for copy in range(1, m + 2))
    return Q, marks


def standard_subact_oracle(M, entries):
    """([x]S ∪ [x']S, position of [x], position of [x']), restricted out of
    the oracle's standard quotient."""
    Q, marks = standard_quotient_oracle(M, entries)
    U, pos = restrict_act(Q, subact_generated(Q, {marks[0], marks[-1]}))
    return U, pos[marks[0]], pos[marks[-1]]


def _items_and_orbits(structure):
    M = structure.monoid
    els = range(M.size)
    if isinstance(structure, RightIdeal):
        items = sorted(structure.members)
        orbits = {u: {M.mul[u][s] for s in els} for u in items}
    else:
        assert isinstance(structure, PairSubact)
        items = sorted(structure.pairs)
        orbits = {
            (u, v): {(M.mul[u][s], M.mul[v][s]) for s in els} for u, v in items
        }
    return items, orbits


def brute_min_generators(structure):
    """Smallest subset whose orbits cover the structure, by direct search."""
    items, orbits = _items_and_orbits(structure)
    universe = set(items)
    if not items:
        return ()
    for k in range(1, len(items) + 1):
        for combo in combinations(items, k):
            covered = set()
            for g in combo:
                covered |= orbits[g]
            if covered == universe:
                return combo
    raise AssertionError("structure cannot cover itself")


def generates(structure, gens) -> bool:
    items, orbits = _items_and_orbits(structure)
    covered = set()
    for g in gens:
        covered |= orbits[g]
    return covered == set(items)


def tossing_exists_brute(A, B, sk, a, b, a2, b2) -> bool:
    """Direct witness enumeration of the scheme equations for one skeleton."""
    m = sk.length
    for a_wit in product(range(A.size), repeat=m - 1):
        chain = (a,) + a_wit + (a2,)
        if any(
            A.table[sk.s(i)][chain[i - 1]] != A.table[sk.t(i)][chain[i]]
            for i in range(1, m + 1)
        ):
            continue
        for b_wit in product(range(B.size), repeat=m):
            if B.table[sk.s(1)][b_wit[0]] != b:
                continue
            if any(
                B.table[sk.t(i)][b_wit[i - 1]] != B.table[sk.s(i + 1)][b_wit[i]]
                for i in range(1, m)
            ):
                continue
            if B.table[sk.t(m)][b_wit[m - 1]] == b2:
                return True
    return False


def find_tossing_oracle(A, B, a, b, a2, b2):
    """find_tossing as one search per query: a fresh elementary-step graph
    and a BFS that stops when it dequeues (a2, b2), its path normalized
    into the alternating scheme by identity steps.  None when the pairs
    are not joined."""
    nb, e = B.size, A.monoid.identity
    src, dst = a * nb + b, a2 * nb + b2
    path = []  # (kind, s, node reached)
    if src != dst:
        adj = _edges(A, B)
        prev = {src: (-1, "", -1)}
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
        cur = dst
        while cur != src:
            p, kind, s = prev[cur]
            path.append((kind, s, divmod(cur, nb)))
            cur = p
        path.reverse()
    entries, nodes = [], [(a, b)]
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
    return Tossing(
        A, B, Skeleton(tuple(entries)), (a, b), nodes[-1],
        tuple(nodes[2 * i][0] for i in range(1, m)),
        tuple(nodes[2 * i + 1][1] for i in range(m)),
    )


def first_broken_delta(A, sk, chain):
    """The first j, counting from 1, with chain[j-1]*s_j != chain[j]*t_j in
    the right act A, read directly off its table; None when every delta
    equation of the chain holds."""
    T = A.table
    return next(
        (j for j in range(1, sk.length + 1)
         if T[sk.s(j)][chain[j - 1]] != T[sk.t(j)][chain[j]]),
        None,
    )


def least_witnesses_brute(act, sk, x, x2):
    """The witnesses eval_delta (right act) or eval_gamma (left act) returns
    for the endpoints x, x2: among all tuples satisfying the scheme's
    column, the one whose reverse is lexicographically least; None when
    no tuple does.  Every tuple is tried against the equations as written."""
    m = sk.length
    T = act.table
    if act.side == "right":
        # x*s1 = w2*t1, w2*s2 = w3*t2, ..., wm*sm = x2*tm
        def holds(w):
            chain = (x,) + w + (x2,)
            return all(
                T[sk.s(i)][chain[i - 1]] == T[sk.t(i)][chain[i]]
                for i in range(1, m + 1)
            )

        width = m - 1
    else:
        # x = s1*w1, t1*w1 = s2*w2, ..., tm*wm = x2
        def holds(w):
            return (
                T[sk.s(1)][w[0]] == x
                and T[sk.t(m)][w[-1]] == x2
                and all(
                    T[sk.t(i)][w[i - 1]] == T[sk.s(i + 1)][w[i]] for i in range(1, m)
                )
            )

        width = m
    valid = [w for w in product(range(act.size), repeat=width) if holds(w)]
    return min(valid, key=lambda w: w[::-1]) if valid else None


def tossing_endpoint_table(A, B, sk):
    """All endpoint 4-tuples (a, b, a2, b2) some witness tuple validates.

    One sweep over witness combinations, marking the endpoints each one
    serves; equations are checked directly off the scheme.
    """
    m = sk.length
    out = set()
    na, nb = A.size, B.size
    for a_wit in product(range(na), repeat=m - 1):
        if m >= 2:
            if any(
                A.table[sk.s(i)][a_wit[i - 2]] != A.table[sk.t(i)][a_wit[i - 1]]
                for i in range(2, m)
            ):
                continue
            # endpoints compatible with this internal chain
            firsts = [
                x
                for x in range(na)
                if A.table[sk.s(1)][x] == A.table[sk.t(1)][a_wit[0]]
            ]
            lasts = [
                y
                for y in range(na)
                if A.table[sk.s(m)][a_wit[-1]] == A.table[sk.t(m)][y]
            ]
            if not firsts or not lasts:
                continue
        for b_wit in product(range(nb), repeat=m):
            if any(
                B.table[sk.t(i)][b_wit[i - 1]] != B.table[sk.s(i + 1)][b_wit[i]]
                for i in range(1, m)
            ):
                continue
            b = B.table[sk.s(1)][b_wit[0]]
            b2 = B.table[sk.t(m)][b_wit[m - 1]]
            if m == 1:
                for x in range(na):
                    sx = A.table[sk.s(1)][x]
                    for y in range(na):
                        if sx == A.table[sk.t(1)][y]:
                            out.add((x, b, y, b2))
            else:
                for x in firsts:
                    for y in lasts:
                        out.add((x, b, y, b2))
    return out


def all_partitions(n):
    """Every partition of range(n) as a block-index tuple (restricted growth)."""
    def rec(i, maxb, cur):
        if i == n:
            yield tuple(cur)
            return
        for b in range(maxb + 1):
            cur.append(b)
            yield from rec(i + 1, max(maxb, b + 1), cur)
            cur.pop()

    yield from rec(0, 0, [])


def semilattice_claimed_R(M, n1, s, t):
    """The case-split decomposition of R(s,t) for a two-level group union,
    as the orbit closure of its stated generators; None for the split the
    symmetry of R already covers."""
    from actalab.monoid import generated_pair_subact

    def inv(x):
        lo, ident = (0, 0) if x < n1 else (n1, n1)
        hi = n1 if x < n1 else M.size
        return next(w for w in range(lo, hi) if M.mul[x][w] == ident)

    G1 = range(0, n1)
    e, f = 0, n1
    cross = [(u, v) for u in G1 for v in G1 if M.mul[s][u] == M.mul[t][v]]
    if s >= n1 and t >= n1:
        gens = [(e, M.mul[inv(t)][s]), (M.mul[inv(s)][t], e)] + cross
    elif s >= n1 and t < n1:
        gens = [(M.mul[inv(s)][t], f), (e, M.mul[inv(t)][s])] + cross
    elif s < n1 and t < n1:
        gens = [(f, f), (M.mul[inv(s)][t], e)]
    else:
        return None
    return generated_pair_subact(M, gens).pairs


def satisfies_act_laws(M: FiniteMonoid, side: str, table) -> bool:
    """The act laws read off their definition, on a raw table whose row s
    holds s·a for a left act and a·s for a right act: 1·a = a, and
    s·(t·a) = (st)·a on the left or (a·s)·t = a·(st) on the right."""
    carrier = range(len(table[0]))
    if any(table[M.identity][a] != a for a in carrier):
        return False
    for s in M.elements():
        for t in M.elements():
            for a in carrier:
                if side == "left":
                    lhs = table[s][table[t][a]]
                else:
                    lhs = table[t][table[s][a]]
                if lhs != table[M.op(s, t)][a]:
                    return False
    return True


def condition_violated(B, cond, witness) -> bool:
    """Re-check a failure witness by direct quantifier scan at the instance."""
    M = B.monoid
    lab = {v: k for k, v in enumerate(M.element_names)}
    cab = {v: k for k, v in enumerate(B.carrier_names)}
    if cond == "PWP":
        t, a, a2 = lab[witness["t"]], cab[witness["a"]], cab[witness["a2"]]
        if B.table[t][a] != B.table[t][a2]:
            return False
        for c in B.carrier():
            for u in M.elements():
                for v in M.elements():
                    if (
                        B.table[u][c] == a
                        and B.table[v][c] == a2
                        and M.mul[t][u] == M.mul[t][v]
                    ):
                        return False
        return True
    if cond == "W":
        s, t = lab[witness["s"]], lab[witness["t"]]
        a, a2 = cab[witness["a"]], cab[witness["a2"]]
        c = B.table[s][a]
        if B.table[t][a2] != c:
            return False
        cap = {M.mul[s][w] for w in M.elements()} & {
            M.mul[t][w] for w in M.elements()
        }
        return not any(c in set(B.table[u]) for u in cap)
    if cond == "P":
        s, s2 = lab[witness["s"]], lab[witness["s2"]]
        b, b2 = cab[witness["b"]], cab[witness["b2"]]
        if B.table[s][b] != B.table[s2][b2]:
            return False
        for c in B.carrier():
            for u in M.elements():
                for u2 in M.elements():
                    if (
                        B.table[u][c] == b
                        and B.table[u2][c] == b2
                        and M.mul[s][u] == M.mul[s2][u2]
                    ):
                        return False
        return True
    if cond == "E":
        s, s2, b = lab[witness["s"]], lab[witness["s2"]], cab[witness["b"]]
        if B.table[s][b] != B.table[s2][b]:
            return False
        for c in B.carrier():
            for u in M.elements():
                if B.table[u][c] == b and M.mul[s][u] == M.mul[s2][u]:
                    return False
        return True
    if cond == "EP":
        s, t, a = lab[witness["s"]], lab[witness["t"]], cab[witness["a"]]
        if B.table[s][a] != B.table[t][a]:
            return False
        for c in B.carrier():
            for u in M.elements():
                for v in M.elements():
                    if (
                        B.table[u][c] == a
                        and B.table[v][c] == a
                        and M.mul[s][u] == M.mul[t][v]
                    ):
                        return False
        return True
    raise AssertionError(f"no re-checker for {cond}")


# condition_violated's instance keys: monoid parameters, then act elements
INSTANCE_KEYS = {
    "P": (("s", "s2"), ("b", "b2")),
    "E": (("s", "s2"), ("b",)),
    "EP": (("s", "t"), ("a",)),
    "W": (("s", "t"), ("a", "a2")),
    "PWP": (("t",), ("a", "a2")),
}


def condition_holds_brute(B, cond) -> bool:
    """Decide P, E, EP, W or PWP by re-checking every trigger instance with
    condition_violated, which itself passes over non-triggers."""
    params, values = INSTANCE_KEYS[cond]
    for ps in product(B.monoid.element_names, repeat=len(params)):
        for vs in product(B.carrier_names, repeat=len(values)):
            if condition_violated(B, cond, dict(zip(params + values, ps + vs))):
                return False
    return True


def first_violation_oracle(B, cid) -> dict:
    """The report of `check_condition(B, cid).to_dict()` found by brute
    force: the first parameter in the class's `params` order, then the first
    (b, b') in carrier order (b' = b for E and EP), whose instance
    condition_violated re-checks as a violation."""
    M = B.monoid
    params, values = INSTANCE_KEYS[cid]
    for s, t in INTERPOLATION_CLASSES[cid].params(M):
        at = dict(zip(params, (M.label(s), M.label(t))))
        for vs in product(B.carrier_names, repeat=len(values)):
            witness = {**at, **dict(zip(values, vs))}
            if condition_violated(B, cid, witness):
                return {"condition": cid, "verdict": "fails", "witness": witness}
    return {"condition": cid, "verdict": "holds"}


def replacement_shape_ok(rset) -> bool:
    """Length-1 for P/EP/PWP, trivial (u,u) for E, (1,s,u,u,t,1) for W."""
    for sk in rset.skeletons:
        if rset.class_id in ("P", "EP", "PWP"):
            if sk.length != 1:
                return False
        elif rset.class_id == "E":
            if sk.length != 1 or sk.s(1) != sk.t(1):
                return False
        else:
            if sk.length != 3:
                return False
            e = rset.trigger.s(1)
            good = (
                sk.s(1) == e
                and sk.t(1) == rset.s
                and sk.s(2) == sk.t(2)
                and sk.s(3) == rset.t
                and sk.t(3) == e
            )
            if not good:
                return False
    return True


def check_replaced_instances(B: Act, rset, report) -> int:
    """Rebuild the tossing of every instance in a replacement report and
    re-check it.

    Each instance (a, b) must carry the first skeleton of `rset` whose
    gamma chain joins a to b in B.  Its tossing from (s, a) to (t, b) over
    the right regular act takes the delta witnesses of that skeleton from
    s to t and the gamma witnesses from a to b, and must hold every
    equation.  Returns the number of instances checked.
    """
    M = B.monoid
    S = regular_act(M, "right")
    names = B.carrier_names
    for inst in report.instances:
        a, b = names.index(inst["a"]), names.index(inst["b"])
        sk = next(sk for sk in rset.skeletons if eval_gamma(B, sk, a, b)[0])
        assert inst["skeleton"] == list(sk.labels(M)), (inst, sk)
        dok, dwits = eval_delta(S, sk, rset.s, rset.t)
        _, gwits = eval_gamma(B, sk, a, b)
        toss = Tossing(S, B, sk, (rset.s, a), (rset.t, b), dwits, gwits)
        assert dok and validate_tossing(toss), (inst, sk)
    return len(report.instances)


def canonical_table(table, k):
    """Lexicographically smallest relabelling of a table over carrier permutations."""
    best = None
    for perm in permutations(range(k)):
        inv = [0] * k
        for i, p in enumerate(perm):
            inv[p] = i
        cand = tuple(tuple(perm[row[inv[a]]] for a in range(k)) for row in table)
        if best is None or cand < best:
            best = cand
    return best


def is_act_congruence(act, block_of) -> bool:
    """Whether a partition (as a block-index map) is action-compatible."""
    k = act.size
    for s in act.monoid.elements():
        row = act.table[s]
        rep_image = {}
        for a in range(k):
            b = block_of[a]
            img = block_of[row[a]]
            if rep_image.setdefault(b, img) != img:
                return False
    return True


def is_right_closed(M, members) -> bool:
    members = frozenset(members)
    return all(M.mul[u][s] in members for u in members for s in M.elements())


def is_pair_closed(M, pairs) -> bool:
    pairs = frozenset(pairs)
    return all(
        (M.mul[u][s], M.mul[v][s]) in pairs for u, v in pairs for s in M.elements()
    )


def generated_right_ideal(M, generators) -> RightIdeal:
    members = set()
    for g in generators:
        members.update(M.mul[g][s] for s in M.elements())
    return RightIdeal(M, frozenset(members))


def all_right_ideals(M) -> list[frozenset[int]]:
    """Every non-empty right ideal: unions of principal ideals, deduplicated."""
    principals = sorted(
        {principal_right_ideal(M, a).members for a in M.elements()},
        key=lambda m: sorted(m),
    )
    out = set()
    p = len(principals)
    for mask in range(1, 1 << p):
        members = frozenset().union(
            *(principals[i] for i in range(p) if mask >> i & 1)
        )
        out.add(members)
    return sorted(out, key=lambda m: (len(m), sorted(m)))


def _c_flat(B, principal: bool) -> ConditionReport:
    """C-flatness by tensor products: K ⊗ B embeds in S ⊗ B for every right
    ideal K in C, the principal right ideals aS (PWF) or all non-empty right
    ideals (WF).

    K ⊗ B fails to embed when two of its classes land in one class of
    S ⊗ B; the first member of each is reported as pair1 and pair2.  A PWF
    failure also gives (a, b, b2) with a ⊗ b = a ⊗ b2 in S ⊗ B but not in
    aS ⊗ B, pulled back through the elementary step (a*u, b) ~ (a, u*b).
    """
    M = B.monoid
    cid = "PWF" if principal else "WF"
    S_right = regular_act(M, "right")
    SB = elementary_tensor(S_right, B)
    if principal:
        family = [(a, principal_right_ideal(M, a).members) for a in M.elements()]
    else:
        family = [(None, members) for members in all_right_ideals(M)]
    for a, members in family:
        members = sorted(members)
        KB = elementary_tensor(restrict_act(S_right, members)[0], B)
        seen: dict[int, tuple[int, int]] = {}
        for cls in KB.classes:
            k, b2 = cls[0]
            k2 = members[k]
            fc = SB.class_index(k2, b2)
            if fc not in seen:
                seen[fc] = (k2, b2)
                continue
            k1, b1 = seen[fc]
            if principal:
                witness = {
                    "a": M.label(a),
                    "b": B.label(B.table[M.mul[a].index(k1)][b1]),
                    "b2": B.label(B.table[M.mul[a].index(k2)][b2]),
                }
            else:
                witness = {"ideal": [M.label(k) for k in members]}
            witness["pair1"] = [M.label(k1), B.label(b1)]
            witness["pair2"] = [M.label(k2), B.label(b2)]
            return ConditionReport(cid, "fails", witness)
    return ConditionReport(cid, "holds")


def wf_witness_is_genuine(B, witness) -> bool:
    """Whether a WF witness names two pairs that are split in K ⊗ B, K its
    ideal, but joined in S ⊗ B."""
    M = B.monoid
    members = sorted(M.index(x) for x in witness["ideal"])
    S = regular_act(M, "right")
    SB = elementary_tensor(S, B)
    KB = elementary_tensor(restrict_act(S, members)[0], B)
    (m1, b1), (m2, b2) = (
        (M.index(k), B.index(b)) for k, b in (witness["pair1"], witness["pair2"])
    )
    return SB.same_class(m1, b1, m2, b2) and not KB.same_class(
        members.index(m1), b1, members.index(m2), b2
    )


def flat_bounded_oracle(B, m_max: int) -> ConditionReport:
    """The bounded flatness search with a full tensor product per skeleton:
    the gamma pairs of B must share a class of ([x]S ∪ [x']S) ⊗ B at the
    standard quotient's marks [x] and [x'], and the witness is the least
    pair (b, b2) that does not."""
    M = B.monoid
    n = M.size
    checked = 0
    for m in range(1, m_max + 1):
        for entries in product(range(n), repeat=2 * m):
            checked += 1
            sk = Skeleton(entries)
            gp = gamma_pairs(B, sk)
            if not gp:
                continue
            U, x_pos, xp_pos = standard_subact_oracle(M, entries)
            UB = elementary_tensor(U, B)
            for b, b2 in sorted(gp):
                if not UB.same_class(x_pos, b, xp_pos, b2):
                    witness = {
                        "skeleton": list(sk.labels(M)),
                        "b": B.label(b),
                        "b2": B.label(b2),
                    }
                    return ConditionReport("FLAT", "fails", witness)
    return ConditionReport(
        "FLAT", "passes-up-to-bound", None, {"m_max": m_max, "skeletons": checked}
    )
