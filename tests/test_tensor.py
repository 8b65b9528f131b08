import dataclasses
from itertools import product

import pytest

import actalab as al
from actalab.act import morphism_is_valid
from actalab.conditions import _gamma_walk
from actalab.errors import (
    ElementNotFoundError,
    MonoidMismatchError,
    SideMismatchError,
    ValidationError,
    WitnessesInvalidError,
)
from actalab.tensor import (
    Skeleton,
    Tossing,
    _tossing_index,
    gamma_pairs,
    standard_subact,
    subact_automaton,
)
from helpers import (
    find_tossing_oracle,
    elementary_tensor,
    first_broken_delta,
    free_right_act,
    least_witnesses_brute,
    quotient_act,
    standard_quotient_oracle,
    standard_subact_oracle,
    tossing_exists_brute,
)


def test_trivial_monoid_tensor_is_product(trivial):
    A = al.validate_act(trivial, "right", ["p", "q"], [[0, 1]])
    B = al.validate_act(trivial, "left", ["u", "v", "w"], [[0, 1, 2]])
    T = al.tensor_product(A, B)
    assert T.n_classes == A.size * B.size


def test_regular_tensor_collapses_to_left_factor(zoo_monoids):
    for M in zoo_monoids:
        S = al.regular_act(M, "right")
        for B in al.enumerate_acts(M, "left", 2):
            T = al.tensor_product(S, B)
            assert T.n_classes == B.size
            for s in M.elements():
                for b in B.carrier():
                    assert T.same_class(s, b, M.identity, B.apply(s, b))


def test_one_point_right_act_tensor(z2):
    theta = al.validate_act(z2, "right", ["o"], [[0], [0]])
    B = al.regular_act(z2, "left")
    assert al.tensor_product(theta, B).n_classes == 1


def test_tensor_side_and_monoid_mismatch(z2, z3):
    L = al.regular_act(z2, "left")
    R = al.regular_act(z2, "right")
    with pytest.raises(SideMismatchError, match="first tensor factor must be a right act"):
        al.tensor_product(L, L)
    with pytest.raises(SideMismatchError, match="second tensor factor must be a left act"):
        al.tensor_product(R, R)
    with pytest.raises(MonoidMismatchError):
        al.tensor_product(R, al.regular_act(z3, "left"))


def test_find_tossing_elementary_step(z2):
    S = al.regular_act(z2, "right")
    B = al.regular_act(z2, "left")
    toss = al.find_tossing(S, B, 1, 0, 0, 1)  # (g, 1) vs (1, g)
    assert toss is not None and al.validate_tossing(toss)


def test_find_tossing_none_when_unequal(trivial):
    A = al.validate_act(trivial, "right", ["p"], [[0]])
    B = al.validate_act(trivial, "left", ["u", "v"], [[0, 1]])
    assert al.find_tossing(A, B, 0, 0, 0, 1) is None


def test_find_tossing_identity_pair(z2):
    S = al.regular_act(z2, "right")
    B = al.regular_act(z2, "left")
    toss = al.find_tossing(S, B, 1, 1, 1, 1)
    assert toss is not None
    assert toss.skeleton.entries == (z2.identity, z2.identity)
    assert al.validate_tossing(toss)


def test_length2_connection_scheme(natmin3):
    """sa = tb is witnessed by the explicit length-2 scheme (1, s, t, 1)."""
    M = natmin3
    S = al.regular_act(M, "right")
    B = al.regular_act(M, "left")
    e = M.identity
    for s in M.elements():
        for t in M.elements():
            for a in B.carrier():
                for b in B.carrier():
                    if B.apply(s, a) != B.apply(t, b):
                        continue
                    toss = Tossing(
                        S, B, Skeleton((e, s, t, e)), (s, a), (t, b), (e,), (a, b)
                    )
                    assert al.validate_tossing(toss)
                    found = al.find_tossing(S, B, s, a, t, b)
                    assert found is not None and al.validate_tossing(found)


def test_length1_tossing_from_interpolation(z2):
    # su = tv, a = uc, b = vc gives the length-1 scheme with skeleton (u, v)
    M = z2
    S = al.regular_act(M, "right")
    B = al.regular_act(M, "left")
    s, t = 0, 1
    u, v = 1, 0  # 1*g = g*1
    c = 0
    a, b = B.apply(u, c), B.apply(v, c)
    toss = Tossing(S, B, Skeleton((u, v)), (s, a), (t, b), (), (c,))
    assert al.validate_tossing(toss)


def test_validate_rejects_corrupted_witness(z2):
    S = al.regular_act(z2, "right")
    B = al.regular_act(z2, "left")
    toss = al.find_tossing(S, B, 1, 0, 0, 1)
    bad = Tossing(
        S, B, toss.skeleton, toss.start, toss.end,
        toss.a_witnesses,
        tuple((w + 1) % B.size for w in toss.b_witnesses),
    )
    assert al.validate_tossing(toss)
    assert not al.validate_tossing(bad)
    # an index outside its act or the monoid is refused, not wrapped
    toss = al.find_tossing(S, B, 0, 1, 1, 0)
    assert toss.b_witnesses == (0,) and al.validate_tossing(toss)
    wrapped = Skeleton(tuple(s - z2.size for s in toss.skeleton.entries))
    for bad in (
        dataclasses.replace(toss, b_witnesses=(-2,)),
        dataclasses.replace(toss, b_witnesses=(5,)),
        dataclasses.replace(toss, start=(-2, 1)),
        dataclasses.replace(toss, end=(1, 2)),
        dataclasses.replace(toss, skeleton=wrapped),
        # a length-1 skeleton takes one b witness and no a witness
        dataclasses.replace(toss, b_witnesses=()),
        dataclasses.replace(toss, a_witnesses=(0,)),
    ):
        assert not al.validate_tossing(bad)


def test_eval_delta_examples(z2):
    S = al.regular_act(z2, "right")
    e, g = 0, 1
    ok, wits = al.eval_delta(S, Skeleton((e, e, g, e)), e, g)
    assert ok and len(wits) == 1
    # direct check of the certified chain x*s1 = x2*t1, x2*s2 = x'*t2
    x2 = wits[0]
    assert S.apply(e, e) == S.apply(e, x2) and S.apply(g, x2) == S.apply(e, g)
    ok1, wits1 = al.eval_delta(S, Skeleton((g, g)), e, e)
    assert ok1 and wits1 == ()


def test_eval_delta_one_point_act(z2):
    A = al.validate_act(z2, "right", ["o"], [[0], [0]])
    for entries in [(0, 1), (1, 0, 0, 1)]:
        ok, _ = al.eval_delta(A, Skeleton(entries), 0, 0)
        assert ok


def test_eval_gamma_examples(z2):
    B = al.regular_act(z2, "left")
    e, g = 0, 1
    # skeleton (1, s, t, 1): gamma(b, b2) iff s*b = t*b2
    s, t = g, g
    for b in B.carrier():
        for b2 in B.carrier():
            ok, wits = al.eval_gamma(B, Skeleton((e, s, t, e)), b, b2)
            assert ok == (B.apply(s, b) == B.apply(t, b2))
            if ok:
                assert wits == (b, b2)


def test_eval_gamma_substitution(z2):
    B = al.regular_act(z2, "left")
    u, v, c = 1, 0, 1
    b, b2 = B.apply(u, c), B.apply(v, c)
    ok, wits = al.eval_gamma(B, Skeleton((u, v)), b, b2)
    assert ok and B.apply(u, wits[0]) == b and B.apply(v, wits[0]) == b2


@pytest.fixture(scope="module")
def small_cases(z2, null2, left_zero, semilattice22):
    """(act, skeletons) for every act of size <= 3 on either side over a few
    zoo monoids, with every skeleton of length <= 2."""
    cases = []
    for M in (z2, null2, left_zero, semilattice22):
        sks = [
            Skeleton(entries)
            for m in (1, 2)
            for entries in product(M.elements(), repeat=2 * m)
        ]
        for side in ("right", "left"):
            cases.extend((act, sks) for act in al.enumerate_acts(M, side, 3))
    return cases


def test_eval_witnesses_are_reverse_least(small_cases):
    """eval_delta and eval_gamma return, among all valid witness tuples, the
    one whose reverse is lexicographically least."""
    for act, sks in small_cases:
        evaluate = al.eval_delta if act.side == "right" else al.eval_gamma
        for sk in sks:
            for x in act.carrier():
                for x2 in act.carrier():
                    ok, wits = evaluate(act, sk, x, x2)
                    assert wits == least_witnesses_brute(act, sk, x, x2)
                    assert ok == (wits is not None)


def test_gamma_pairs_matches_eval(small_cases):
    for B, sks in small_cases:
        if B.side != "left":
            continue
        for sk in sks:
            table = gamma_pairs(B, sk)
            for b in B.carrier():
                for b2 in B.carrier():
                    assert ((b, b2) in table) == al.eval_gamma(B, sk, b, b2)[0]


def test_composed_gamma_relations_match_gamma_pairs(natmin3):
    """The pairs of the flatness walk against a fresh gamma_pairs walk and
    standard_subact for every skeleton of length <= 2 on every left act of
    natmin3 of size <= 3, and of length <= 3 on one act of each isomorphism
    class of size <= 3 (a walk per skeleton of every labelled act would
    take seconds).  At each length the walk keeps exactly the pairs of a
    standard subact and a nonempty gamma relation that some skeleton
    reaches, each with the least skeleton that reaches it, in the order
    of those skeletons."""
    acts = list(al.enumerate_acts(natmin3, "left", 3))
    classes = list(al.enumerate_acts(natmin3, "left", 3, distinct=True))
    assert len(acts) == 72 and len(classes) == 18
    auto = subact_automaton(natmin3)
    for m_max, group in ((2, acts), (3, classes)):
        for B in group:
            nb = B.size
            kept = {m: {} for m in range(1, m_max + 1)}
            for m, state, rel, entries in _gamma_walk(B, auto, m_max):
                kept[m][auto.tables[state], rel] = entries
            for m, pairs in kept.items():
                first = {}
                for entries in product(range(natmin3.size), repeat=2 * m):
                    gp = gamma_pairs(B, Skeleton(entries))
                    rel = sum(1 << b * nb + b2 for b, b2 in gp)
                    if rel:
                        first.setdefault((standard_subact(natmin3, entries), rel), entries)
                assert pairs == first
                assert list(pairs.values()) == sorted(pairs.values())


def test_oracle_equivalence_small(null2, natmin3):
    """Tensor classes agree with find_tossing on every pair of pairs, and
    every tossing found validates.  The product is the merge over A x B on
    all elementary pairs, with the classes numbered by their first pair."""
    for M in (null2, natmin3):
        acts_l = list(al.enumerate_acts(M, "left", 2))
        for A, B in product(al.enumerate_acts(M, "right", 2), acts_l):
            T = al.tensor_product(A, B)
            assert T == elementary_tensor(A, B)
            pairs = list(product(A.carrier(), B.carrier()))
            for (a, b), (a2, b2) in product(pairs, repeat=2):
                toss = al.find_tossing(A, B, a, b, a2, b2)
                assert (toss is not None) == T.same_class(a, b, a2, b2)
                if toss is not None:
                    assert al.validate_tossing(toss)


def _round_robin(combos):
    """(A, B, source) visits that cycle through combos, one source pair of
    A x B per visit, until every source of every combo is visited."""
    sources = [list(product(A.carrier(), B.carrier())) for A, B in combos]
    for k in range(max(map(len, sources))):
        for (A, B), srcs in zip(combos, sources):
            if k < len(srcs):
                yield A, B, srcs[k]


def test_find_tossing_matches_oracle(z2, null2, natmin3):
    """find_tossing, read off the cached BFS forests, returns the same
    tossing as a fresh search per query, on every pair of pairs of every
    right act and left act of size <= 3 over z2 and null2 and <= 2 over
    natmin3.  The combos are visited round robin: the first 8 stay in the
    cache and gain a forest per visit, the rest outnumber its bound, so
    each visit evicts a combo and refills it."""
    bound = _tossing_index.cache_info().maxsize
    queries = 0
    for M, k in ((z2, 3), (null2, 3), (natmin3, 2)):
        combos = list(product(al.enumerate_acts(M, "right", k), al.enumerate_acts(M, "left", k)))
        assert len(combos) - 8 > bound
        for group in (combos[:8], combos[8:]):
            for A, B, (a, b) in _round_robin(group):
                for a2, b2 in product(A.carrier(), B.carrier()):
                    expected = find_tossing_oracle(A, B, a, b, a2, b2)
                    assert al.find_tossing(A, B, a, b, a2, b2) == expected, (M.name, a, b, a2, b2)
                    queries += 1
    assert queries == 2025 + 24649 + 841


def test_skeleton_factorization_small(z2):
    """A skeleton connects two pairs iff delta and gamma both hold."""
    A = al.regular_act(z2, "right")
    B = al.validate_act(z2, "left", ["p", "q"], [[0, 1], [1, 0]])
    for entries in [(0, 0), (1, 1), (0, 1, 1, 0), (1, 1, 1, 1)]:
        sk = Skeleton(entries)
        for a in A.carrier():
            for b in B.carrier():
                for a2 in A.carrier():
                    for b2 in B.carrier():
                        direct = tossing_exists_brute(A, B, sk, a, b, a2, b2)
                        split = (
                            al.eval_delta(A, sk, a, a2)[0]
                            and al.eval_gamma(B, sk, b, b2)[0]
                        )
                        assert direct == split


def test_morphism_transport(natmin3):
    """delta survives along any right-act morphism image."""
    M = natmin3
    A = free_right_act(M, 2)
    cong = al.congruence_closure(A, [(0, M.size)])
    Q, proj = quotient_act(A, cong)
    assert morphism_is_valid(proj)
    for entries in [(0, 1), (1, 2, 0, 0)]:
        sk = Skeleton(entries)
        for a in A.carrier():
            for a2 in A.carrier():
                if al.eval_delta(A, sk, a, a2)[0]:
                    assert al.eval_delta(
                        Q, sk, proj.mapping[a], proj.mapping[a2]
                    )[0]


def test_standard_tossing_act_trivial(trivial):
    Q, marks = al.standard_tossing_act(trivial, Skeleton((0, 0)))
    assert Q.size == 1 and marks == (0, 0)


def test_standard_tossing_act_z2(z2):
    Q, marks = al.standard_tossing_act(z2, Skeleton((0, 0)))
    assert Q.size == 2
    assert marks[0] == marks[-1]


def test_standard_act_satisfies_delta(z2, natmin3):
    for M in (z2, natmin3):
        for entries in [(0, 0), (1, 0), (0, 1, 1, 0)]:
            sk = Skeleton(entries)
            Q, marks = al.standard_tossing_act(M, sk)
            ok, _ = al.eval_delta(Q, sk, marks[0], marks[-1])
            assert ok


def _split(labels):
    """The partition a list of labels makes of its positions, as the
    position of each label's first occurrence."""
    return [labels.index(v) for v in labels]


def test_standard_quotient_matches_free_act_oracle(zoo_monoids, left_zero, z2, null2, natmin3):
    """The merged standard quotient against the free act's congruence
    quotient, on every skeleton of length <= 2 over the zoo and left_zero
    and of length 3 over z2, null2 and natmin3: the same act (table and
    carrier names) and marks; standard_subact's classes, and the table of
    the automaton state that the skeleton's steps reach, split the
    positions x*u, x'*u as the restricted [x]S ∪ [x']S does; and the
    state's pairs chain each later position of a class to the first.  Two
    identity steps come back to the start state x' = x, whose pairs chain
    x'*u to x*u."""
    cases = [(M, (1, 2)) for M in zoo_monoids + [left_zero]]
    cases += [(M, (3,)) for M in (z2, null2, natmin3)]
    for M, lengths in cases:
        n, e = M.size, M.identity
        auto = subact_automaton(M)
        for m in lengths:
            for entries in product(range(n), repeat=2 * m):
                Q, marks = al.standard_tossing_act(M, Skeleton(entries))
                assert (Q, marks) == standard_quotient_oracle(M, entries), entries
                U, x, xp = standard_subact_oracle(M, entries)
                generated = [U.table[u][g] for g in (x, xp) for u in M.elements()]
                classes = list(standard_subact(M, entries))
                assert _split(classes) == _split(generated), (M.name, entries)
                state = 0
                for s, t in zip(entries[::2], entries[1::2]):
                    state = auto.step(state, s, t)
                assert list(auto.tables[state]) == classes, (M.name, entries)
                chained = tuple(
                    divmod(p, n) + divmod(first, n)
                    for p, first in enumerate(_split(classes)) if first != p
                )
                assert auto.pairs[state] == chained
        assert auto.tables[0] == tuple(range(n)) * 2
        assert auto.step(auto.step(0, e, e), e, e) == 0
        assert auto.pairs[0] == tuple((1, u, 0, u) for u in range(n))


def test_induced_morphism_identity(z2):
    sk = Skeleton((0, 0, 1, 0))
    Q, marks = al.standard_tossing_act(z2, sk)
    nu = al.induced_morphism(z2, sk, Q, tuple(marks))
    assert morphism_is_valid(nu)
    assert nu.mapping[marks[0]] == marks[0]
    assert nu.mapping[marks[-1]] == marks[-1]
    # witnesses force the identity on every class here
    assert list(nu.mapping) == list(range(Q.size))


def test_induced_morphism_into_regular(z2):
    S = al.regular_act(z2, "right")
    e, g = 0, 1
    sk = Skeleton((e, e, g, e))
    ok, wits = al.eval_delta(S, sk, e, g)
    assert ok
    chain = (e,) + wits + (g,)
    nu = al.induced_morphism(z2, sk, S, chain)
    assert morphism_is_valid(nu)


def test_induced_morphism_rejects_bad_witnesses(z2):
    S = al.regular_act(z2, "right")
    with pytest.raises(WitnessesInvalidError):
        al.induced_morphism(z2, Skeleton((1, 1)), S, (0, 1))
    # a chain of the wrong length, or a left target, is refused before any read
    for chain in ((0,), (0, 0, 0)):
        with pytest.raises(WitnessesInvalidError, match="at position -1"):
            al.induced_morphism(z2, Skeleton((0, 0)), S, chain)
    with pytest.raises(SideMismatchError, match="induced morphism lands in a right act"):
        al.induced_morphism(z2, Skeleton((0, 0)), al.regular_act(z2, "left"), (0, 0))


def test_induced_morphism_rejects_other_monoid(z2, null2):
    """A chain that holds in a right act over null2 still induces no
    morphism out of a z2 quotient."""
    N = al.regular_act(null2, "right")
    with pytest.raises(MonoidMismatchError):
        al.induced_morphism(z2, Skeleton((0, 0)), N, (0, 0))


def test_induced_morphism_every_chain(z2, null2, natmin3):
    """Every chain in A^(m+1), for every skeleton of length <= 2 over z2,
    null2 and natmin3 and every right act A of size <= 2: a valid chain
    induces a morphism that sends the marks onto the chain, a broken one is
    refused at the first broken equation, and a witness outside A is not
    an element."""
    valid = broken = 0
    for M in (z2, null2, natmin3):
        rights = list(al.enumerate_acts(M, "right", 2))
        for m in (1, 2):
            for entries in product(M.elements(), repeat=2 * m):
                sk = Skeleton(entries)
                Q, marks = al.standard_tossing_act(M, sk)
                for A in rights:
                    for chain in product(A.carrier(), repeat=m + 1):
                        j = first_broken_delta(A, sk, chain)
                        if j is None:
                            nu = al.induced_morphism(M, sk, A, chain)
                            assert nu.source == Q and morphism_is_valid(nu)
                            assert tuple(nu.mapping[q] for q in marks) == chain
                            valid += 1
                            continue
                        with pytest.raises(WitnessesInvalidError) as err:
                            al.induced_morphism(M, sk, A, chain)
                        assert err.value.position == j, (M.name, entries, chain)
                        broken += 1
                    for i, w in product(range(m + 1), (-1, A.size)):
                        chain = (0,) * i + (w,) + (0,) * (m - i)
                        with pytest.raises(ElementNotFoundError):
                            al.induced_morphism(M, sk, A, chain)
    assert (valid, broken) == (7570, 9936)


def test_skeleton_entries_outside_monoid(z2, null2, natmin3):
    """A skeleton entry -1 or |S| is not an element: the standard quotient,
    its [x]S ∪ [x']S table, the induced morphism and the zigzag functions
    refuse it instead of wrapping or indexing past the table.  A skeleton of
    odd length or none is refused as it is made."""
    for entries in ((), (0,), (0, 1, 0)):
        with pytest.raises(ValidationError, match="skeleton needs even length >= 2"):
            Skeleton(entries)
    for M in (z2, null2, natmin3):
        S = al.regular_act(M, "right")
        B = al.regular_act(M, "left")
        for m in (1, 2):
            for i, bad in product(range(2 * m), (-1, M.size)):
                sk = Skeleton((0,) * i + (bad,) + (0,) * (2 * m - 1 - i))
                with pytest.raises(ElementNotFoundError):
                    al.standard_tossing_act(M, sk)
                with pytest.raises(ElementNotFoundError):
                    standard_subact(M, sk.entries)
                with pytest.raises(ElementNotFoundError):
                    al.induced_morphism(M, sk, S, (0,) * (m + 1))
                with pytest.raises(ElementNotFoundError):
                    al.eval_delta(S, sk, 0, 0)
                with pytest.raises(ElementNotFoundError):
                    al.eval_gamma(B, sk, 0, 0)
                with pytest.raises(ElementNotFoundError):
                    gamma_pairs(B, sk)


def test_zigzag_functions_check_the_side(z2, natmin3):
    """delta formulas evaluate in a right act and gamma formulas in a left
    act; each zigzag function refuses an act on the other side."""
    for M in (z2, natmin3):
        S, B = al.regular_act(M, "right"), al.regular_act(M, "left")
        for m in (1, 2):
            sk = Skeleton((M.identity,) * (2 * m))
            with pytest.raises(SideMismatchError):
                al.eval_delta(B, sk, 0, 0)
            with pytest.raises(SideMismatchError):
                al.eval_gamma(S, sk, 0, 0)
            with pytest.raises(SideMismatchError):
                gamma_pairs(S, sk)
            assert al.eval_delta(S, sk, 0, 0)[0] and al.eval_gamma(B, sk, 0, 0)[0]
            assert (0, 0) in gamma_pairs(B, sk)


def test_zigzag_endpoints_outside_act(z2, natmin3):
    """An endpoint -1 or |A| is not a point of the act: eval_delta and
    eval_gamma refuse it instead of wrapping, raising a bare IndexError or
    answering that no chain exists."""
    for M in (z2, natmin3):
        S, B = al.regular_act(M, "right"), al.regular_act(M, "left")
        for m, bad in product((1, 2), (-1, M.size)):
            sk = Skeleton((M.identity,) * (2 * m))
            for ends in ((bad, 0), (0, bad), (bad, bad)):
                with pytest.raises(ElementNotFoundError):
                    al.eval_delta(S, sk, *ends)
                with pytest.raises(ElementNotFoundError):
                    al.eval_gamma(B, sk, *ends)
    with pytest.raises(ElementNotFoundError):
        al.induced_morphism(z2, Skeleton((-1, 0)), al.regular_act(z2, "right"), (0, 1))


def test_format_tossing_mentions_labels(z2):
    S = al.regular_act(z2, "right")
    B = al.regular_act(z2, "left")
    toss = al.find_tossing(S, B, 1, 0, 0, 1)
    text = al.format_tossing(toss)
    assert "=" in text and "g" in text


def test_find_tossing_bounds_checked(z2):
    """Sides and indices are checked on every query, also on an (A, B)
    whose graph and forests are already cached."""
    S = al.regular_act(z2, "right")
    B = al.regular_act(z2, "left")
    assert al.find_tossing(S, B, 1, 0, 0, 1) is not None
    for a, b, a2, b2 in ((5, 0, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 2), (0, 0, 0, -1)):
        with pytest.raises(ElementNotFoundError):
            al.find_tossing(S, B, a, b, a2, b2)
    with pytest.raises(SideMismatchError):
        al.find_tossing(B, S, 0, 0, 0, 0)


def test_skeleton_factorization_length3(z2):
    """Length-3 chains exercise the middle layers of both searches."""
    A = al.validate_act(z2, "right", ["p", "q"], [[0, 1], [1, 0]])
    B = al.regular_act(z2, "left")
    for entries in [(0, 1, 1, 0, 1, 1), (1, 1, 0, 0, 1, 0), (1, 0, 1, 0, 1, 0)]:
        sk = Skeleton(entries)
        for a in A.carrier():
            for b in B.carrier():
                for a2 in A.carrier():
                    for b2 in B.carrier():
                        direct = tossing_exists_brute(A, B, sk, a, b, a2, b2)
                        dok, dw = al.eval_delta(A, sk, a, a2)
                        gok, gw = al.eval_gamma(B, sk, b, b2)
                        assert direct == (dok and gok)
                        if dok and gok:
                            toss = Tossing(A, B, sk, (a, b), (a2, b2), dw, gw)
                            assert al.validate_tossing(toss)
