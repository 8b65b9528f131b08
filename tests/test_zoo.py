import pytest

import actalab as al
from actalab.errors import BadParamsError
from actalab.monoid import generated_pair_subact
from actalab.zoo import (
    EXCLUSIONS,
    FAMILIES,
    _monotonicity,
    designated_pair,
    family_report,
    family_size,
)
from helpers import brute_min_generators


def test_build_all_families_validate():
    # construction goes through full table validation, so success is the test
    al.build("cyclic_group", n=4)
    al.build("inverse_omega_chain", n=3)
    al.build("null_adjoined", n=4)
    al.build("semilattice_of_groups", n1=3, n0=2)
    al.build("nat_min_adjoined", n=5)


def test_family_size_is_the_built_size():
    for family, params in (
        ("cyclic_group", {"n": 4}),
        ("inverse_omega_chain", {"n": 0}),
        ("inverse_omega_chain", {"n": 3}),
        ("null_adjoined", {"n": 4}),
        ("semilattice_of_groups", {"n1": 3, "n0": 2}),
        ("nat_min_adjoined", {"n": 5}),
    ):
        assert family_size(family, **params) == al.build(family, **params).size


def test_cyclic_group_2_is_z2(z2):
    assert z2.element_names == ("1", "g")
    assert z2.mul == ((0, 1), (1, 0))


def test_inverse_omega_chain_law():
    M = al.build("inverse_omega_chain", n=2)
    for i in range(3):
        for j in range(3):
            assert M.label(M.op(i, j)) == f"e{max(i, j)}"


def test_nat_min_structure(natmin3):
    assert natmin3.element_names == ("1", "2", "3", "eps")
    one, two = 0, 1
    assert natmin3.op(one, two) == one
    assert natmin3.op(natmin3.identity, two) == two


def test_bad_params():
    with pytest.raises(BadParamsError):
        al.build("cyclic_group", n=0)
    with pytest.raises(BadParamsError):
        al.build("cyclic_group")
    with pytest.raises(BadParamsError):
        al.build("unknown_family", n=2)
    with pytest.raises(BadParamsError):
        al.build("semilattice_of_groups", n1=2)
    with pytest.raises(BadParamsError, match="unknown family 'bogus'"):
        designated_pair("bogus", al.build("cyclic_group", n=2))


def _component_inverse(M, n1, x):
    lo, ident = (0, 0) if x < n1 else (n1, n1)
    hi = n1 if x < n1 else M.size
    return next(w for w in range(lo, hi) if M.mul[x][w] == ident)


def test_semilattice_R_decompositions(semilattice22):
    """The three case-split identities for R(s,t) over the two-level group
    union, checked as exact set equalities for every (s,t)."""
    M = semilattice22
    n1 = 2
    G1 = range(0, n1)
    e, f = 0, n1
    for s in M.elements():
        for t in M.elements():
            inv_s = _component_inverse(M, n1, s)
            inv_t = _component_inverse(M, n1, t)
            cross = [
                (u, v) for u in G1 for v in G1 if M.mul[s][u] == M.mul[t][v]
            ]
            if s >= n1 and t >= n1:
                gens = [(e, M.mul[inv_t][s]), (M.mul[inv_s][t], e)] + cross
            elif s >= n1 and t < n1:
                gens = [(M.mul[inv_s][t], f), (e, M.mul[inv_t][s])] + cross
            elif s < n1 and t < n1:
                gens = [(f, f), (M.mul[inv_s][t], e)]
            else:
                continue  # the dual split is covered through symmetry of R
            assert generated_pair_subact(M, gens).pairs == al.R_set(M, s, t).pairs


def test_null_adjoined_growth_matches_brute():
    for n, expected in [(2, 3), (3, 8)]:
        M = al.build("null_adjoined", n=n)
        s, t = designated_pair("null_adjoined", M)
        R = al.R_set(M, s, t)
        assert len(brute_min_generators(R)) == expected
        assert len(al.min_generating_set(R)) == expected


def test_null_adjoined_designated_pair_fallback():
    # with no x element the pair falls back to the zero
    M1 = al.build("null_adjoined", n=1)
    assert designated_pair("null_adjoined", M1) == (M1.index("0"),) * 2
    M2 = al.build("null_adjoined", n=2)
    assert designated_pair("null_adjoined", M2) == (1, 1)
    M3 = al.build("null_adjoined", n=3)
    s, t = designated_pair("null_adjoined", M3)
    assert (M3.label(s), M3.label(t)) == ("x1", "x2")


def test_nat_min_R_identity_all_instances():
    """R(s,t) = (s,s)S ∪ (eps,s)S for s < t within the min part."""
    for n in (3, 4, 5):
        M = al.build("nat_min_adjoined", n=n)
        eps = M.identity
        for s in range(n):
            for t in range(s + 1, n):
                claimed = generated_pair_subact(M, [(s, s), (eps, s)])
                assert claimed.pairs == al.R_set(M, s, t).pairs
                r = al.r_set(M, s, t)
                assert r.members == frozenset(range(s + 1))


def test_nat_min_R11_growth():
    sizes = []
    for n in (3, 4, 5):
        M = al.build("nat_min_adjoined", n=n)
        sizes.append(len(al.min_generating_set(al.R_set(M, 0, 0))))
    assert sizes[0] == len(
        brute_min_generators(al.R_set(al.build("nat_min_adjoined", n=3), 0, 0))
    )
    assert sizes == sorted(sizes) and len(set(sizes)) == 3


def test_group_r_sets(zoo_monoids):
    for M in zoo_monoids:
        if not M.name.startswith("cyclic_group"):
            continue
        for s in M.elements():
            for t in M.elements():
                members = al.r_set(M, s, t).members
                if s == t:
                    assert members == frozenset(M.elements())
                else:
                    assert members == frozenset()


def test_family_report_groups_constant():
    report = family_report("cyclic_group", [2, 3, 4, 5])
    assert all(row["generator_counts"]["R"] == 1 for row in report.rows)
    assert report.monotonicity["R"] == "constant"
    assert all(row["empty"]["r"] for row in report.rows)


def test_family_report_null_growth():
    report = family_report("null_adjoined", [2, 3, 4])
    assert [row["generator_counts"]["R"] for row in report.rows] == [3, 8, 15]
    assert report.monotonicity["R"] == "strictly-increasing"


def test_family_report_semilattice_growth():
    report = family_report("semilattice_of_groups", [2, 3, 4])
    counts = [row["generator_counts"]["R"] for row in report.rows]
    assert report.monotonicity["R"] == "strictly-increasing"
    # the upper-group orbit family plus the two mixed generators
    assert counts == [n + 2 for n in (2, 3, 4)]


def test_family_report_chain_constant():
    report = family_report("inverse_omega_chain", [2, 3, 4])
    assert report.monotonicity["R"] == "constant"
    # below three elements the chain's pair is its last element twice
    M = al.build("inverse_omega_chain", n=1)
    assert designated_pair("inverse_omega_chain", M) == (1, 1)


def test_monotonicity_names_each_shape():
    assert _monotonicity([1, 2, 4]) == "strictly-increasing"
    assert _monotonicity([3, 3, 3]) == "constant"
    assert _monotonicity([1, 1, 2]) == "non-decreasing"
    assert _monotonicity([2, 1, 2]) == "non-monotone"


def test_exclusions_documented():
    assert "integer_pair_inverse_monoid" in EXCLUSIONS
    assert set(FAMILIES) == {
        "cyclic_group",
        "inverse_omega_chain",
        "null_adjoined",
        "semilattice_of_groups",
        "nat_min_adjoined",
    }


def test_family_report_nat_min_growth():
    report = family_report("nat_min_adjoined", [3, 4, 5])
    assert report.monotonicity["R"] == "strictly-increasing"
    assert report.monotonicity["r"] == "constant"
