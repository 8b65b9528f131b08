"""Independent re-checkers for the benchmark's outputs.

Everything here is written from the definitions and shares no search code
with actalab: act laws, an isomorphism-canonical form, tensor closures by
graph components, tossing schemes and chain formulas by layered reachability,
the act morphism law, direct quantifier scans of the interpolation
conditions, and a fixpoint construction of the standard quotient acts that
flatness failures are stated in.

Tables follow the program's interchange convention: ``table[s][x]`` is
``s*x`` in a left act and ``x*s`` in a right act; ``mul[s][t]`` is ``s*t``.
"""

from itertools import permutations

CLASSES = ("P", "E", "EP", "W", "PWP")


# --- acts and isomorphism ---------------------------------------------------


def is_act(mul, identity, table, side):
    """Identity and compatibility laws of a left or right act table."""
    k = len(table[identity])
    if any(len(row) != k for row in table):
        return False
    if any(table[identity][x] != x for x in range(k)):
        return False
    n = len(mul)
    for s in range(n):
        for t in range(n):
            st = table[mul[s][t]]
            first, second = (table[t], table[s]) if side == "left" else (table[s], table[t])
            # left: s*(t*x) = (st)*x; right: (x*s)*t = x*(st)
            if any(second[first[x]] != st[x] for x in range(k)):
                return False
    return True


def canonical_form(table):
    """Smallest relabelled table over all carrier permutations.

    Two tables over the same monoid are isomorphic acts exactly when their
    canonical forms are equal.
    """
    k = len(table[0])
    best = None
    for perm in permutations(range(k)):
        relabelled = []
        for row in table:
            new_row = [0] * k
            for x, y in enumerate(row):
                new_row[perm[x]] = perm[y]
            relabelled.append(tuple(new_row))
        key = tuple(relabelled)
        if best is None or key < best:
            best = key
    return best


def regular_right_table(mul):
    """S acting on itself on the right: ``table[s][x] = x*s``."""
    n = len(mul)
    return tuple(tuple(mul[x][s] for x in range(n)) for s in range(n))


# --- tensor products --------------------------------------------------------


def tensor_components(right_table, left_table):
    """Component label of each pair ``a*|B| + b`` of A x B under the
    elementary relation ``(a*s, b) ~ (a, s*b)``, by graph search."""
    na, nb = len(right_table[0]), len(left_table[0])
    adj = [[] for _ in range(na * nb)]
    for arow, brow in zip(right_table, left_table):
        for a in range(na):
            for b in range(nb):
                x, y = arow[a] * nb + b, a * nb + brow[b]
                if x != y:
                    adj[x].append(y)
                    adj[y].append(x)
    comp = [-1] * (na * nb)
    label = 0
    for start in range(na * nb):
        if comp[start] >= 0:
            continue
        comp[start] = label
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if comp[y] < 0:
                    comp[y] = label
                    stack.append(y)
        label += 1
    return comp


def same_partition(labels_a, labels_b):
    """Whether two labellings of one set induce the same partition."""
    if len(labels_a) != len(labels_b):
        return False
    fwd, back = {}, {}
    for x, y in zip(labels_a, labels_b):
        if fwd.setdefault(x, y) != y or back.setdefault(y, x) != x:
            return False
    return True


# --- tossings and chain formulas -------------------------------------------


def tossing_error(right_table, left_table, entries, start, end, a_wit, b_wit):
    """First scheme equation a tossing breaks, or None when all hold."""
    m = len(entries) // 2
    if len(entries) != 2 * m or m < 1:
        return "skeleton has odd or zero length"
    if len(a_wit) != m - 1 or len(b_wit) != m:
        return "wrong number of witnesses"
    s = entries[0::2]
    t = entries[1::2]
    achain = (start[0],) + tuple(a_wit) + (end[0],)
    if left_table[s[0]][b_wit[0]] != start[1]:
        return "b != s1*b1"
    for i in range(m):
        if right_table[s[i]][achain[i]] != right_table[t[i]][achain[i + 1]]:
            return f"a{i + 1}*s{i + 1} != a{i + 2}*t{i + 1}"
    for i in range(m - 1):
        if left_table[t[i]][b_wit[i]] != left_table[s[i + 1]][b_wit[i + 1]]:
            return f"t{i + 1}*b{i + 1} != s{i + 2}*b{i + 2}"
    if left_table[t[m - 1]][b_wit[m - 1]] != end[1]:
        return "tm*bm != b'"
    return None


def delta_holds(right_table, entries, a, a2):
    """Witnesses a_2..a_m exist with a_i*s_i = a_{i+1}*t_i, a_1 = a, a_{m+1} = a2."""
    s, t = entries[0::2], entries[1::2]
    reach = {a}
    carrier = range(len(right_table[0]))
    for i in range(len(s) - 1):
        images = {right_table[s[i]][x] for x in reach}
        reach = {y for y in carrier if right_table[t[i]][y] in images}
    return any(right_table[s[-1]][x] == right_table[t[-1]][a2] for x in reach)


def gamma_holds(left_table, entries, b, b2):
    """Witnesses b_1..b_m exist with b = s1*b1, t_i*b_i = s_{i+1}*b_{i+1},
    t_m*b_m = b2."""
    s, t = entries[0::2], entries[1::2]
    carrier = range(len(left_table[0]))
    layer = {x for x in carrier if left_table[s[0]][x] == b}
    for i in range(len(s) - 1):
        images = {left_table[t[i]][x] for x in layer}
        layer = {y for y in carrier if left_table[s[i + 1]][y] in images}
    return any(left_table[t[-1]][x] == b2 for x in layer)


def delta_chains(right_table, entries):
    """Every witness chain (a_1, ..., a_{m+1}) of the delta equations."""
    s, t = entries[0::2], entries[1::2]
    carrier = range(len(right_table[0]))
    chains = [(a,) for a in carrier]
    for i in range(len(s)):
        srow, trow = right_table[s[i]], right_table[t[i]]
        chains = [c + (y,) for c in chains for y in carrier if srow[c[-1]] == trow[y]]
    return chains


# --- act morphisms and standard quotients -----------------------------------


def morphism_error(source_table, target_table, mapping):
    """First instance of the law (q*s)f = (qf)*s that a map breaks, or None."""
    k = len(source_table[0])
    if len(mapping) != k:
        return "mapping has the wrong length"
    for s, (srow, trow) in enumerate(zip(source_table, target_table)):
        for q in range(k):
            if mapping[srow[q]] != trow[mapping[q]]:
                return f"law fails at element {q} under monoid element {s}"
    return None


def standard_quotient(mul, identity, entries):
    """The free right act on generators x_1..x_{m+1} modulo
    x_i*s_i = x_{i+1}*t_i, as (class label per free element, action table
    on class labels, class of x_1, class of x_{m+1}).

    The congruence is built as a fixpoint: merge the relation pairs, then
    merge the images of every related pair until nothing changes.
    """
    n = len(mul)
    m = len(entries) // 2
    size = (m + 1) * n
    act = [[(x // n) * n + mul[x % n][t] for x in range(size)] for t in range(n)]
    cls = list(range(size))

    def merge(x, y):
        keep, drop = cls[x], cls[y]
        if keep == drop:
            return False
        for z in range(size):
            if cls[z] == drop:
                cls[z] = keep
        return True

    for i in range(m):
        merge(i * n + entries[2 * i], (i + 1) * n + entries[2 * i + 1])
    changed = True
    while changed:
        changed = False
        for x in range(size):
            for y in range(x + 1, size):
                if cls[x] == cls[y]:
                    for row in act:
                        changed |= merge(row[x], row[y])
    labels = sorted(set(cls))
    index = {c: i for i, c in enumerate(labels)}
    rep = {}
    for x in range(size):
        rep.setdefault(cls[x], x)
    table = [[index[cls[act[t][rep[c]]]] for c in labels] for t in range(n)]
    return table, index[cls[identity]], index[cls[m * n + identity]]


def generated_subact(table, seeds):
    """Restriction of a right act to the subact generated by ``seeds``:
    (restricted table, new position of each old element in it)."""
    closed = set(seeds)
    frontier = list(closed)
    while frontier:
        x = frontier.pop()
        for row in table:
            if row[x] not in closed:
                closed.add(row[x])
                frontier.append(row[x])
    members = sorted(closed)
    pos = {x: i for i, x in enumerate(members)}
    return [[pos[row[x]] for x in members] for row in table], pos


def flat_witness_error(mul, identity, left_table, entries, b, b2):
    """Re-check a flatness failure: the gamma chain of the skeleton holds
    for (b, b2), so [x] (x) b = [x'] (x) b2 in Q (x) B, yet the two pairs
    stay apart in ([x]S u [x']S) (x) B.  None when the witness is sound."""
    if not gamma_holds(left_table, entries, b, b2):
        return "gamma chain does not hold"
    q_table, x1, x2 = standard_quotient(mul, identity, entries)
    nb = len(left_table[0])
    full = tensor_components(q_table, left_table)
    if full[x1 * nb + b] != full[x2 * nb + b2]:
        return "pairs are apart in Q (x) B as well"
    u_table, pos = generated_subact(q_table, (x1, x2))
    sub = tensor_components(u_table, left_table)
    if sub[pos[x1] * nb + b] == sub[pos[x2] * nb + b2]:
        return "pairs are tensor-equal over the subact"
    return None


def ideal_embedding_error(mul, left_table, members, pair1, pair2):
    """Re-check a (principal) weak flatness failure: pair1 and pair2 lie in
    K x B for the right ideal K = members, are tensor-equal over S, and are
    apart over K.  Pairs are (monoid element, carrier element)."""
    n = len(mul)
    members = sorted(members)
    if any(mul[u][s] not in members for u in members for s in range(n)):
        return "members are not a right ideal"
    if pair1[0] not in members or pair2[0] not in members:
        return "pair outside K x B"
    nb = len(left_table[0])
    full = tensor_components(regular_right_table(mul), left_table)
    if full[pair1[0] * nb + pair1[1]] != full[pair2[0] * nb + pair2[1]]:
        return "pairs are apart in S (x) B"
    pos = {u: i for i, u in enumerate(members)}
    k_table = [[pos[mul[u][s]] for u in members] for s in range(n)]
    sub = tensor_components(k_table, left_table)
    if sub[pos[pair1[0]] * nb + pair1[1]] == sub[pos[pair2[0]] * nb + pair2[1]]:
        return "pairs are tensor-equal over K"
    return None


# --- interpolation conditions -----------------------------------------------


def _interpolates(mul, table, s, s2, b, b2):
    """Some c, u, u2 with b = u*c, b2 = u2*c and s*u = s2*u2."""
    n = len(mul)
    for c in range(len(table[0])):
        lefts = {mul[s][u] for u in range(n) if table[u][c] == b}
        if lefts and any(
            table[u2][c] == b2 and mul[s2][u2] in lefts for u2 in range(n)
        ):
            return True
    return False


def instance_violated(mul, table, cls, inst):
    """Whether one trigger instance of a condition has no interpolant.

    Instances: P (s, s2, b, b2); E (s, s2, b); EP (s, t, a);
    W (s, t, a, a2); PWP (t, a, a2).
    """
    n = len(mul)
    if cls == "P":
        s, s2, b, b2 = inst
        return table[s][b] == table[s2][b2] and not _interpolates(mul, table, s, s2, b, b2)
    if cls == "E":
        s, s2, b = inst
        if table[s][b] != table[s2][b]:
            return False
        return not any(
            table[u][c] == b and mul[s][u] == mul[s2][u]
            for c in range(len(table[0]))
            for u in range(n)
        )
    if cls == "EP":
        s, t, a = inst
        return table[s][a] == table[t][a] and not _interpolates(mul, table, s, t, a, a)
    if cls == "W":
        s, t, a, a2 = inst
        c = table[s][a]
        if table[t][a2] != c:
            return False
        cap = {mul[s][w] for w in range(n)} & {mul[t][w] for w in range(n)}
        return not any(c in table[u] for u in cap)
    if cls == "PWP":
        t, a, a2 = inst
        return table[t][a] == table[t][a2] and not _interpolates(mul, table, t, t, a, a2)
    raise ValueError(f"unknown class {cls!r}")


WITNESS_KEYS = {
    "P": ("s", "s2", "b", "b2"),
    "E": ("s", "s2", "b"),
    "EP": ("s", "t", "a"),
    "W": ("s", "t", "a", "a2"),
    "PWP": ("t", "a", "a2"),
}


def witness_instance(cls, witness, element_names, carrier_names):
    """Index tuple of a labelled failure witness, in instance_violated order."""
    out = []
    for key in WITNESS_KEYS[cls]:
        names = element_names if key in ("s", "s2", "t") else carrier_names
        out.append(names.index(witness[key]))
    return tuple(out)


def holds_w(mul, table):
    """Condition (W) by a full scan: s*a = t*a2 lies in u*B for some u in sS n tS."""
    n = len(mul)
    k = len(table[0])
    principal = [{mul[x][w] for w in range(n)} for x in range(n)]
    for s in range(n):
        for t in range(n):
            reach = set()
            for u in principal[s] & principal[t]:
                reach.update(table[u])
            tvals = {table[t][a2] for a2 in range(k)}
            if any(table[s][a] in tvals and table[s][a] not in reach for a in range(k)):
                return False
    return True


def holds_p(mul, table):
    """Condition (P) by a full scan, with the common-base pairs precomputed."""
    n = len(mul)
    k = len(table[0])
    bases = {}
    for c in range(k):
        for u in range(n):
            for u2 in range(n):
                bases.setdefault((table[u][c], table[u2][c]), set()).add((u, u2))
    for s in range(n):
        for s2 in range(n):
            for b in range(k):
                for b2 in range(k):
                    if table[s][b] != table[s2][b2]:
                        continue
                    if not any(
                        mul[s][u] == mul[s2][u2] for u, u2 in bases.get((b, b2), ())
                    ):
                        return False
    return True


def trigger_instances(table, s, t, cls):
    """Trigger instances (a, b) that replacement must re-connect:
    s*a = t*a for E and EP, s*a = t*b otherwise."""
    k = len(table[0])
    if cls in ("E", "EP"):
        return [(a, a) for a in range(k) if table[s][a] == table[t][a]]
    return [(a, b) for a in range(k) for b in range(k) if table[s][a] == table[t][b]]
