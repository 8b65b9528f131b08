import re
from itertools import permutations, product

import pytest
from hypothesis import given, strategies as st

import actalab as al
from actalab.act import ActMorphism, _automorphisms, morphism_is_valid
from actalab.errors import (
    CompatibilityError,
    EmptyCarrierError,
    IdentityLawError,
    ValidationError,
)
from conftest import build_zoo
from helpers import (
    all_partitions,
    canonical_table,
    free_base_point,
    free_right_act,
    is_act_congruence,
    quotient_act,
    satisfies_act_laws,
    subact_generated,
)


def test_regular_act_valid(zoo_monoids):
    for M in zoo_monoids:
        for side in ("left", "right"):
            act = al.regular_act(M, side)
            assert al.validate_act(M, side, act.carrier_names, act.table) == act


def test_one_element_act(z2):
    act = al.validate_act(z2, "left", ["p"], [[0], [0]])
    assert act.size == 1


def test_z2_swap_act(z2):
    act = al.validate_act(z2, "left", ["p", "q"], [[0, 1], [1, 0]])
    g = 1
    assert act.apply(g, act.apply(g, 0)) == 0


def test_identity_law_failure(z2):
    with pytest.raises(IdentityLawError):
        al.validate_act(z2, "left", ["p", "q"], [[0, 0], [0, 1]])


def test_compatibility_failure(z2, left_zero):
    # g*(g*p) = p but (gg)*p = 1*p must equal p; force g row non-involutive
    with pytest.raises(CompatibilityError):
        al.validate_act(z2, "left", ["p", "q"], [[0, 1], [0, 0]])
    # a sends everything to p and b to q: a left act, but on the right
    # (p·a)·b = q while p·(ab) = p·a = p
    table = [[0, 1], [0, 0], [1, 1]]
    al.validate_act(left_zero, "left", ["p", "q"], table)
    with pytest.raises(CompatibilityError) as err:
        al.validate_act(left_zero, "right", ["p", "q"], table)
    assert err.value.instance == ("a", "b", "p")


def test_empty_carrier(z2):
    with pytest.raises(EmptyCarrierError):
        al.validate_act(z2, "left", [], [[], []])


def test_act_input_diagnostics(z2):
    """Each malformed act input is refused with the message that names it."""
    cases = [
        (("up", ["p"], [[0], [0]]), "side must be 'left' or 'right', got 'up'"),
        (("left", ["p", "p"], [[0, 1], [0, 1]]), "carrier labels must be distinct"),
        (("left", ["p"], [[0]]), "action table is not total"),
        (("left", ["p", "q"], [[0, 1], [1]]), "action table is not total"),
        (("left", ["p"], [[0], [1]]), "action entry 1 out of range"),
    ]
    for args, message in cases:
        with pytest.raises(ValidationError, match=re.escape(message)):
            al.validate_act(z2, *args)
    act = al.regular_act(z2, "left")
    with pytest.raises(ValidationError, match="'z' is not in the carrier"):
        act.index("z")
    with pytest.raises(ValidationError, match="seed pair outside the carrier"):
        al.congruence_closure(act, [(0, 2)])
    # refused when the stream is made, before anything reads it
    with pytest.raises(ValidationError, match="max_size must be at least 1"):
        al.enumerate_acts(z2, "left", 0)
    with pytest.raises(ValidationError, match="side must be 'left' or 'right'"):
        al.enumerate_acts(z2, "up", 2)


def test_free_act_one_generator_is_regular(zoo_monoids):
    for M in zoo_monoids:
        F = free_right_act(M, 1)
        R = al.regular_act(M, "right")
        assert F.table == R.table  # same table, relabelled carrier


def test_free_act_two_generators_orbits(z2):
    F = free_right_act(z2, 2)
    assert F.size == 4
    orbits = {
        frozenset(subact_generated(F, {free_base_point(z2, i)})) for i in (1, 2)
    }
    assert len(orbits) == 2
    assert frozenset.union(*orbits) == frozenset(range(4))


def test_free_act_trivial_monoid(trivial):
    F = free_right_act(trivial, 3)
    assert F.size == 3
    assert all(F.apply(0, a) == a for a in F.carrier())


def test_congruence_empty_seeds(z2):
    act = al.regular_act(z2, "left")
    cong = al.congruence_closure(act, [])
    assert cong.n_blocks == act.size


def test_congruence_free_square(z2):
    F = free_right_act(z2, 2)
    n = z2.size
    cong = al.congruence_closure(F, [(z2.identity, n + z2.identity)])
    assert cong.n_blocks == 2
    blocks = {frozenset(b) for b in cong.blocks}
    assert frozenset({0, 2}) in blocks and frozenset({1, 3}) in blocks


def test_congruence_total(natmin3):
    act = al.regular_act(natmin3, "left")
    pairs = [(0, a) for a in act.carrier()]
    assert al.congruence_closure(act, pairs).n_blocks == 1


def test_congruence_is_least_fixed_point(zoo_monoids):
    """Oracle: enumerate every act congruence containing the seeds and check
    the closure is finer than each of them (hence the least one)."""
    for M in zoo_monoids[:5]:
        act = al.regular_act(M, "left")
        if act.size > 4:
            continue
        seeds = [(0, act.size - 1)]
        cong = al.congruence_closure(act, seeds)
        assert is_act_congruence(act, cong.block_of)
        assert all(cong.block_of[a] == cong.block_of[b] for a, b in seeds)
        for part in all_partitions(act.size):
            if not is_act_congruence(act, part):
                continue
            if any(part[a] != part[b] for a, b in seeds):
                continue
            # closure refines this congruence
            assert all(
                part[x] == part[y]
                for block in cong.blocks
                for x in block
                for y in block
            )


def test_quotient_discrete_is_isomorphic_copy(z2, z3):
    act = al.regular_act(z2, "left")
    cong = al.congruence_closure(act, [])
    q, proj = quotient_act(act, cong)
    assert q.size == act.size
    assert morphism_is_valid(proj)
    # the check refuses another side, another monoid, a mapping of the wrong
    # length, and the constant map, which breaks the law: g moves its image
    for bad in (
        ActMorphism(al.regular_act(z2, "right"), q, proj.mapping),
        ActMorphism(act, al.regular_act(z3, "left"), proj.mapping),
        ActMorphism(act, q, proj.mapping[:1]),
        ActMorphism(act, q, (0,) * act.size),
    ):
        assert not morphism_is_valid(bad)


def test_quotient_total_is_point(natmin3):
    act = al.regular_act(natmin3, "left")
    cong = al.congruence_closure(act, [(0, a) for a in act.carrier()])
    q, proj = quotient_act(act, cong)
    assert q.size == 1
    assert morphism_is_valid(proj)


def test_subact_generated(z2, natmin3):
    act = al.regular_act(natmin3, "right")
    assert subact_generated(act, set(act.carrier())) == frozenset(act.carrier())
    two = natmin3.index("2")
    assert subact_generated(act, {two}) == frozenset(
        {natmin3.index("1"), two}
    )


def test_enumerate_trivial_monoid(trivial):
    acts = list(al.enumerate_acts(trivial, "left", 4))
    assert len(acts) == 4
    assert sorted(a.size for a in acts) == [1, 2, 3, 4]


def test_enumerate_z2_size2(z2):
    acts = [a for a in al.enumerate_acts(z2, "left", 2) if a.size == 2]
    tables = {a.table for a in acts}
    assert tables == {((0, 1), (0, 1)), ((0, 1), (1, 0))}


def test_enumerate_size_one(zoo_monoids):
    for M in zoo_monoids:
        acts = [a for a in al.enumerate_acts(M, "left", 1)]
        assert len(acts) == 1


def test_enumerate_deterministic(null2):
    first = [a.table for a in al.enumerate_acts(null2, "left", 3)]
    second = [a.table for a in al.enumerate_acts(null2, "left", 3)]
    assert first == second


def test_enumerate_all_valid(zoo_monoids):
    for M in zoo_monoids:
        for side in ("left", "right"):
            for act in al.enumerate_acts(M, side, 3):
                assert satisfies_act_laws(M, side, act.table)


def test_enumerate_distinct_prunes_isomorphs(z2, null2):
    for M in (z2, null2):
        raw = sum(1 for _ in al.enumerate_acts(M, "left", 3))
        distinct = list(al.enumerate_acts(M, "left", 3, distinct=True))
        assert 0 < len(distinct) < raw
        for act in distinct:
            assert satisfies_act_laws(M, "left", act.table)


@given(st.data())
def test_enumerated_acts_satisfy_laws(data):
    M = data.draw(st.sampled_from(build_zoo()))
    side = data.draw(st.sampled_from(["left", "right"]))
    acts = list(al.enumerate_acts(M, side, 2))
    act = data.draw(st.sampled_from(acts))
    e = M.identity
    assert all(act.apply(e, a) == a for a in act.carrier())
    for s in M.elements():
        for t in M.elements():
            for a in act.carrier():
                if side == "left":
                    assert act.apply(s, act.apply(t, a)) == act.apply(M.op(s, t), a)
                else:
                    assert act.apply(t, act.apply(s, a)) == act.apply(M.op(s, t), a)


def _closure_by_iteration(act, seeds):
    """Independent congruence oracle: saturate the relation by repeated
    full scans instead of a merge-find worklist."""
    blocks = {a: frozenset({a}) for a in act.carrier()}

    def merge(x, y):
        bx, by = blocks[x], blocks[y]
        if bx is by or bx == by:
            return False
        union = bx | by
        for z in union:
            blocks[z] = union
        return True

    for a, b in seeds:
        merge(a, b)
    changed = True
    while changed:
        changed = False
        for a in act.carrier():
            for b in act.carrier():
                if blocks[a] == blocks[b] and a != b:
                    for s in act.monoid.elements():
                        if merge(act.table[s][a], act.table[s][b]):
                            changed = True
    return {frozenset(v) for v in blocks.values()}


def test_congruence_matches_iterative_oracle(z2, natmin3):
    from actalab.tensor import Skeleton, standard_tossing_act

    for M in (z2, natmin3):
        n = M.size
        F = free_right_act(M, 3)
        for entries in [(0, 0, 1, 1), (1, 0, 0, 1)]:
            sk = Skeleton(tuple(e % n for e in entries))
            seeds = [
                (i * n + sk.s(i + 1), (i + 1) * n + sk.t(i + 1)) for i in range(2)
            ]
            cong = al.congruence_closure(F, seeds)
            assert {frozenset(b) for b in cong.blocks} == _closure_by_iteration(
                F, seeds
            )
            Q, _ = standard_tossing_act(M, sk)
            assert Q.size == cong.n_blocks


@given(st.data())
def test_congruence_closure_matches_oracle_on_random_seeds(data):
    M = data.draw(st.sampled_from(build_zoo()))
    acts = list(al.enumerate_acts(M, "left", 3))
    act = data.draw(st.sampled_from(acts))
    k = act.size
    n_seeds = data.draw(st.integers(0, 3))
    seeds = [
        (data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, k - 1)))
        for _ in range(n_seeds)
    ]
    cong = al.congruence_closure(act, seeds)
    assert {frozenset(b) for b in cong.blocks} == _closure_by_iteration(act, seeds)


def _full_transformations_2():
    """All four maps of {0,1} under composition (s·t)(p) = s(t(p)); the
    constant map c1 = swap·c0 is a product of two earlier, non-commuting
    elements, so its row is forced by theirs in an order that matters."""
    maps = {"id": (0, 1), "swap": (1, 0), "c0": (0, 0), "c1": (1, 1)}
    name_of = {m: n for n, m in maps.items()}
    table = [[name_of[(s[t[0]], s[t[1]])] for t in maps.values()] for s in maps.values()]
    return al.validate_monoid(list(maps), table, "id", name="T2")


def test_enumeration_matches_naive_filter(
    z2, z3, null2, natmin3, semilattice22, left_zero
):
    """Oracle: every raw table in product order, kept when lawful, on both
    sides; the distinct stream is that stream cut to its canonical tables.
    left_zero and T2 are not commutative, so their left and right streams
    differ.  In semilattice22 (b·b = f) and z3 (g2·g2 = g, a forced row) a
    row's square is an earlier row other than the identity and itself;
    omega2 has a law x∘g = x (e2·e1 = e2).  In null3 the square of x2, and
    its laws x1·x2 = x2·x1 = 0, land on the later zero, which is already
    known as the product x1·x1 of assigned rows.  In z2 with an identity
    adjoined, labelled g before the group's identity f, the law g·f = g at
    f lands on an assigned row that no two assigned rows multiply to.  In
    forced3 the zero is the product e·a = a·e = a·a of three pairs of
    assigned rows: it is read from the first and the others must agree."""
    from itertools import product as iproduct

    T2 = _full_transformations_2()
    omega2 = al.build("inverse_omega_chain", n=2)
    null3 = al.build("null_adjoined", n=3)
    z2_one = al.monoid_from_indices("z2_one", ["1", "g", "f"], [[0, 1, 2], [1, 2, 1], [2, 1, 2]], 0)
    forced3 = al.monoid_from_indices(
        "forced3", ["1", "e", "a", "0"],
        [[0, 1, 2, 3], [1, 1, 3, 3], [2, 3, 3, 3], [3, 3, 3, 3]], 0,
    )
    cases = [(z2, 4), (null2, 3), (natmin3, 3), (left_zero, 3), (T2, 3),
             (semilattice22, 3), (z3, 3), (omega2, 3), (null3, 3), (z2_one, 3),
             (forced3, 3)]
    for M, k in cases:
        rows = list(iproduct(range(k), repeat=k))
        free = [i for i in range(M.size) if i != M.identity]
        streams = {}
        for side in ("left", "right"):
            naive = []
            for combo in iproduct(rows, repeat=len(free)):
                table = [tuple(range(k))] * M.size
                for slot, row in zip(free, combo):
                    table[slot] = row
                if satisfies_act_laws(M, side, table):
                    naive.append(tuple(table))
            mine = [a.table for a in al.enumerate_acts(M, side, k) if a.size == k]
            assert mine == naive
            distinct = [
                a.table for a in al.enumerate_acts(M, side, k, distinct=True)
                if a.size == k
            ]
            assert distinct == [t for t in naive if t == canonical_table(t, k)]
            streams[side] = mine
        if M in (left_zero, T2):
            assert streams["left"] != streams["right"]


def test_enumeration_matches_generator_oracle():
    """The monoid ⟨a, b | a·a = a, b·b = b, a·b = 0⟩, labelled 1, a, b,
    ba, 0.  When row ba is assigned, the product of a and b in the other
    order lands on the later zero, a known target from two distinct rows,
    so the order in which they compose matters.  Oracle: every pair of
    rows for a and b, with the rows of ba and ab composed from them, kept
    when lawful, in lexicographic order."""
    from itertools import product as iproduct

    mul = [[0, 1, 2, 3, 4], [1, 1, 4, 4, 4], [2, 3, 2, 3, 4], [3, 3, 4, 4, 4], [4] * 5]
    M = al.monoid_from_indices("ab0", ["1", "a", "b", "ba", "0"], mul, 0)
    k = 3

    def then(f, g):  # the row f, then the row g
        return tuple(g[v] for v in f)

    for side in ("left", "right"):
        oracle = []
        for A, B in iproduct(iproduct(range(k), repeat=k), repeat=2):
            ba, ab = (then(A, B), then(B, A)) if side == "left" else (then(B, A), then(A, B))
            table = (tuple(range(k)), A, B, ba, ab)
            if satisfies_act_laws(M, side, table):
                oracle.append(table)
        mine = [a.table for a in al.enumerate_acts(M, side, k) if a.size == k]
        assert mine == sorted(oracle)


def test_enumeration_counts_do_not_depend_on_labelling():
    """null_adjoined(3) with its zero labelled before x1 and x2 has as many
    acts, and as many isomorphism classes, of each size on either side."""
    M = al.build("null_adjoined", n=3)
    mul = [[0, 1, 2, 3], [1, 1, 1, 1], [2, 1, 1, 1], [3, 1, 1, 1]]
    relabelled = al.monoid_from_indices("null3_zero_first", ["eps", "0", "x1", "x2"], mul, 0)

    def counts(N, side, distinct):
        sizes = [a.size for a in al.enumerate_acts(N, side, 4, distinct)]
        return [sizes.count(k) for k in range(1, 5)]

    for side in ("left", "right"):
        for distinct in (False, True):
            assert counts(M, side, distinct) == counts(relabelled, side, distinct)


def test_distinct_class_counts_to_size_five(semilattice22):
    omega2 = al.build("inverse_omega_chain", n=2)
    for M, counts in [(semilattice22, [1, 3, 6, 14, 27]), (omega2, [1, 3, 7, 17, 37])]:
        sizes = [a.size for a in al.enumerate_acts(M, "left", 5, distinct=True)]
        assert [sizes.count(k) for k in range(1, 6)] == counts


def test_first_row_search_matches_every_relabelling():
    """The first-row search against all k! relabellings, for every row on
    k <= 5 points: None exactly when the row is not canonical, as
    `canonical_table` decides, else the relabellings p with row^p = row,
    where row^p[p(a)] = p(row[a])."""
    for k in range(1, 6):
        perms = list(permutations(range(k)))
        for row in product(range(k), repeat=k):
            found = _automorphisms(row)
            if canonical_table((row,), k) != (row,):
                assert found is None, row
                continue
            fixing = set()
            for perm in perms:
                image = [None] * k
                for a in range(k):
                    image[perm[a]] = perm[row[a]]
                if tuple(image) == row:
                    fixing.add(perm)
            assert found is not None, row
            assert sorted(tuple(perm) for perm, _ in found) == sorted(fixing), row
            for perm, inv in found:
                assert [perm[b] for b in inv] == list(range(k))


def test_distinct_flag_counts_isomorphism_classes(z2, null2):
    from itertools import permutations

    for M in (z2, null2):
        k = 3
        raw = [a.table for a in al.enumerate_acts(M, "left", k) if a.size == k]
        # orbit count under carrier relabelling
        seen = set()
        classes = 0
        for table in raw:
            if table in seen:
                continue
            classes += 1
            for perm in permutations(range(k)):
                inv = [0] * k
                for i, p in enumerate(perm):
                    inv[p] = i
                seen.add(
                    tuple(
                        tuple(perm[row[inv[a]]] for a in range(k))
                        for row in table
                    )
                )
        distinct = [
            a for a in al.enumerate_acts(M, "left", k, distinct=True)
            if a.size == k
        ]
        assert len(distinct) == classes
