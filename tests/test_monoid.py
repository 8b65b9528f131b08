import re

import pytest
from hypothesis import given, strategies as st

import actalab as al
from actalab.errors import (
    BadIdentityError,
    DuplicateNameError,
    NonAssociativeError,
    ValidationError,
)
from actalab.monoid import generated_pair_subact, left_cancellable_elements
from conftest import build_zoo
from helpers import (
    brute_min_generators,
    generated_right_ideal,
    generates,
    is_pair_closed,
    is_right_closed,
)


def test_validate_trivial_monoid():
    M = al.validate_monoid(["1"], [["1"]], "1")
    assert M.size == 1 and M.identity == 0


def test_validate_z2():
    M = al.validate_monoid(["1", "g"], [["1", "g"], ["g", "1"]], "1")
    assert M.op(1, 1) == 0


def test_non_associative_named_triple():
    # a*(b*b) = a*b = 1 but (a*b)*b = 1*b = b
    table = [["1", "a", "b"], ["a", "a", "1"], ["b", "b", "b"]]
    with pytest.raises(NonAssociativeError) as exc:
        al.validate_monoid(["1", "a", "b"], table, "1")
    i, j, k = exc.value.triple
    # oracle: the named triple really is a violation of the raw table
    names = ["1", "a", "b"]
    mul = {(r, c): table[names.index(r)][names.index(c)] for r in names for c in names}
    assert mul[(mul[(i, j)], k)] != mul[(i, mul[(j, k)])]


def test_duplicate_name():
    with pytest.raises(DuplicateNameError):
        al.validate_monoid(["1", "1"], [["1", "1"], ["1", "1"]], "1")


def test_bad_identity():
    with pytest.raises(BadIdentityError):
        al.validate_monoid(["1", "a"], [["1", "a"], ["a", "a"]], "a")


def test_table_not_total():
    with pytest.raises(ValidationError):
        al.validate_monoid(["1", "a"], [["1", "a"]], "1")


def test_monoid_input_diagnostics(z2):
    """Each malformed index table is refused with the message that names it."""
    names = ["1", "a"]
    cases = [
        ([[0, 1]], 0, ValidationError, "multiplication table is not total"),
        ([[0, 1], [1]], 0, ValidationError, "multiplication table is not total"),
        ([[0, 1], [1, 2]], 0, ValidationError, "table entry 2 out of range"),
        ([[0, 1], [1, 1]], 2, ValidationError, "identity index 2 out of range"),
        ([[0, 1], [1, 1]], 1, BadIdentityError, "'a' is not a two-sided identity (fails at '1')"),
        ([[0, 1], [0, 1]], 0, BadIdentityError, "'1' is not a two-sided identity (fails at 'a')"),
    ]
    for mul, identity, error, message in cases:
        with pytest.raises(error, match=re.escape(message)):
            al.monoid_from_indices("m", names, mul, identity)
    with pytest.raises(DuplicateNameError, match="duplicate element label '1'"):
        al.monoid_from_indices("m", ["1", "1"], [[0, 1], [1, 1]], 0)
    with pytest.raises(ValidationError, match=re.escape("'z' is not an element of cyclic_group(2)")):
        z2.index("z")


def test_principal_ideal_of_group_is_everything(z3):
    for a in z3.elements():
        assert al.principal_right_ideal(z3, a).members == frozenset(z3.elements())


def test_principal_ideal_null_adjoined(null2):
    x = null2.index("x1")
    ideal = al.principal_right_ideal(null2, x)
    assert ideal.labels() == ("x1", "0")
    assert x in ideal.members


def test_principal_ideal_nat_min(natmin3):
    two = natmin3.index("2")
    assert al.principal_right_ideal(natmin3, two).labels() == ("1", "2")


def test_ideal_intersection_group(z2):
    assert al.ideal_intersection(z2, 0, 1).members == frozenset(z2.elements())


def test_ideal_intersection_null_adjoined(null2):
    x, zero = null2.index("x1"), null2.index("0")
    assert al.ideal_intersection(null2, x, zero).labels() == ("0",)


def test_ideal_intersection_nat_min(natmin3):
    two, three = natmin3.index("2"), natmin3.index("3")
    assert al.ideal_intersection(natmin3, two, three).labels() == ("1", "2")


def test_r_set_group_cancellation(z2):
    assert al.r_set(z2, 0, 1).members == frozenset()


def test_r_set_null_semigroup_part(null2):
    x, zero = null2.index("x1"), null2.index("0")
    assert al.r_set(null2, x, zero).members == frozenset({x, zero})


def test_r_set_nat_min(natmin3):
    one, two = natmin3.index("1"), natmin3.index("2")
    assert al.r_set(natmin3, one, two).labels() == ("1",)


def test_R_set_diagonal(zoo_monoids):
    for M in zoo_monoids:
        e = M.identity
        assert al.R_set(M, e, e).pairs == frozenset((u, u) for u in M.elements())


def test_R_set_z2(z2):
    assert al.R_set(z2, 0, 1).pairs == frozenset({(1, 0), (0, 1)})


def test_R_set_null_adjoined_squared(null2):
    x = null2.index("x1")
    eps, zero = null2.identity, null2.index("0")
    T = {x, zero}
    expected = {(eps, eps)} | {(u, v) for u in T for v in T}
    assert al.R_set(null2, x, x).pairs == frozenset(expected)


def test_min_generating_group_principal(z3):
    for a in z3.elements():
        gens = al.min_generating_set(al.principal_right_ideal(z3, a))
        assert len(gens) == 1


def test_min_generating_null3_matches_brute_oracle():
    M = al.build("null_adjoined", n=3)
    R = al.R_set(M, M.index("x1"), M.index("x2"))
    gens = al.min_generating_set(R)
    brute = brute_min_generators(R)
    assert len(gens) == len(brute) == 8
    assert generates(R, gens)


def test_min_generating_nat_min_single(natmin3):
    R = al.R_set(natmin3, natmin3.index("1"), natmin3.index("2"))
    gens = al.min_generating_set(R)
    assert [tuple(natmin3.label(i) for i in g) for g in gens] == [("eps", "1")]


def test_min_generating_regenerates_and_is_minimal(zoo_monoids):
    for M in zoo_monoids:
        for s in M.elements():
            for t in M.elements():
                R = al.R_set(M, s, t)
                gens = al.min_generating_set(R)
                assert generated_pair_subact(M, gens).pairs == R.pairs
                for drop in range(len(gens)):
                    kept = gens[:drop] + gens[drop + 1 :]
                    assert not generates(R, kept)
                r = al.r_set(M, s, t)
                rgens = al.min_generating_set(r)
                assert generated_right_ideal(M, rgens).members == r.members


def test_min_generating_empty_structure(z2):
    assert al.min_generating_set(al.r_set(z2, 0, 1)) == ()


def test_left_cancellable(zoo_monoids, null2):
    for M in zoo_monoids:
        assert M.identity in left_cancellable_elements(M)
    z3 = al.build("cyclic_group", n=3)
    assert left_cancellable_elements(z3) == tuple(z3.elements())
    assert null2.index("0") not in left_cancellable_elements(null2)


@given(st.data())
def test_r_and_R_symmetry(data):
    M = data.draw(st.sampled_from(build_zoo()))
    s = data.draw(st.integers(0, M.size - 1))
    t = data.draw(st.integers(0, M.size - 1))
    assert al.r_set(M, s, t).members == al.r_set(M, t, s).members
    Rst = al.R_set(M, s, t).pairs
    Rts = al.R_set(M, t, s).pairs
    assert Rst == {(v, u) for u, v in Rts}


@given(st.data())
def test_closure_invariants(data):
    M = data.draw(st.sampled_from(build_zoo()))
    s = data.draw(st.integers(0, M.size - 1))
    t = data.draw(st.integers(0, M.size - 1))
    assert is_right_closed(M, al.r_set(M, s, t).members)
    assert is_right_closed(M, al.ideal_intersection(M, s, t).members)
    assert is_pair_closed(M, al.R_set(M, s, t).pairs)
