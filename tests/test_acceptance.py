"""Acceptance suite: one test per criterion, each printing a verdict line.

The zoo set is {trivial, Z2, Z3, inverse_omega_chain(2), null_adjoined(2),
semilattice_of_groups(Z2,Z2), nat_min_adjoined(3)}.  Everything here is
exact: no tolerances, no sampling.
"""

import functools
from itertools import product

import pytest

import actalab as al
from actalab.act import morphism_is_valid
from actalab.axioms import satisfies_all
from actalab.conditions import condition_profile
from actalab.tensor import Skeleton, gamma_pairs, standard_tossing_act
from helpers import (
    _c_flat,
    brute_min_generators,
    check_replaced_instances,
    semilattice_claimed_R,
    tossing_endpoint_table,
)


def criterion(num, name):
    """Print one pass/fail line per criterion, whatever the outcome."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kw):
            try:
                detail = fn(*args, **kw)
            except BaseException:
                print(f"[criterion {num:02d}] {name}: FAIL")
                raise
            print(f"[criterion {num:02d}] {name}: PASS ({detail})")

        return wrapper

    return deco


@pytest.fixture(scope="module")
def sweep4(zoo_monoids):
    """Every left act of size <= 4 per zoo monoid, with its condition
    profile and the two tensor-embedding verdicts, read off the tensor
    products themselves so that criteria 4 and 5 check the theorem rather
    than the deciders' own reduction."""
    out = {}
    for M in zoo_monoids:
        rows = []
        for B in al.enumerate_acts(M, "left", 4):
            prof = {c: r.holds for c, r in condition_profile(B).items()}
            rows.append(
                (B, prof, _c_flat(B, principal=True).holds,
                 _c_flat(B, principal=False).holds)
            )
        out[M] = rows
    return out


@criterion(1, "tossing oracle")
def test_criterion_01_tossing_oracle(zoo_monoids):
    """Tensor classes agree with tossing search on every pair of pairs, and
    every found tossing re-validates."""
    pairs_checked = 0
    for M in zoo_monoids:
        rights = list(al.enumerate_acts(M, "right", 3))
        lefts = list(al.enumerate_acts(M, "left", 3))
        for A in rights:
            for B in lefts:
                T = al.tensor_product(A, B)
                for a in A.carrier():
                    for b in B.carrier():
                        for a2 in A.carrier():
                            for b2 in B.carrier():
                                toss = al.find_tossing(A, B, a, b, a2, b2)
                                eq = T.same_class(a, b, a2, b2)
                                assert (toss is not None) == eq
                                if toss is not None:
                                    assert al.validate_tossing(toss)
                                pairs_checked += 1
    return f"{pairs_checked} pair-of-pair instances"


@criterion(2, "skeleton factorization")
def test_criterion_02_skeleton_factorization(z2, null2):
    """A skeleton connects two pairs iff its right-act chain and left-act
    chain hold separately; the oracle enumerates whole witness schemes."""
    checked = 0
    for M in (z2, null2):
        n = M.size
        rights = list(al.enumerate_acts(M, "right", 3))
        lefts = list(al.enumerate_acts(M, "left", 3))
        skeletons = [
            Skeleton(e)
            for m in (1, 2)
            for e in product(range(n), repeat=2 * m)
        ]
        for A in rights:
            for B in lefts:
                for sk in skeletons:
                    brute = tossing_endpoint_table(A, B, sk)
                    deltas = {
                        (a, a2)
                        for a in A.carrier()
                        for a2 in A.carrier()
                        if al.eval_delta(A, sk, a, a2)[0]
                    }
                    gammas = gamma_pairs(B, sk)
                    split = {
                        (a, b, a2, b2)
                        for a, a2 in deltas
                        for b, b2 in gammas
                    }
                    assert brute == split
                    checked += 1
    return f"{checked} (A,B,skeleton) triples"


@criterion(3, "axiomatisation equivalence")
def test_criterion_03_axiomatisation_equivalence(zoo_monoids, sweep4):
    """model_check against the emitted schemas equals the semantic check,
    for every class, zoo monoid and act of size <= 4."""
    compared = 0
    for M in zoo_monoids:
        axsets = {c: al.emit_axioms(M, c) for c in ("P", "E", "EP", "W", "PWP")}
        for B, prof, _, _ in sweep4[M]:
            for cls, axset in axsets.items():
                assert satisfies_all(B, axset.sentences) == prof[cls]
                compared += 1
    return f"{compared} act/class checks"


@criterion(4, "implication lattice")
def test_criterion_04_implication_lattice(zoo_monoids, sweep4):
    acts = 0
    for M in zoo_monoids:
        for B, prof, pwf, wf in sweep4[M]:
            acts += 1
            assert prof["SF"] == (prof["P"] and prof["E"])
            if prof["P"]:
                assert prof["EP"] and prof["W"] and prof["PWP"]
            if prof["E"]:
                assert prof["EP"]
            if prof["SF"]:
                assert al.check_flat_bounded(B, 2).verdict != "fails"
            if prof["P"]:
                assert al.check_flat_bounded(B, 2).verdict != "fails"
            if wf:
                assert pwf
    return f"{acts} acts, zero violations"


@criterion(5, "weak flatness decomposition")
def test_criterion_05_wf_decomposition(zoo_monoids, sweep4, left_zero):
    """WF = PWF and (W) on the zoo's sweep and on left_zero's left acts of
    size <= 4: the zoo never has an act that is PWF but not WF, while
    left_zero's disjoint ideals aS, bS make (W) fail on its own."""
    rows = [row for M in zoo_monoids for row in sweep4[M]]
    rows += [
        (B, {"W": al.check_condition(B, "W").holds},
         _c_flat(B, principal=True).holds, _c_flat(B, principal=False).holds)
        for B in al.enumerate_acts(left_zero, "left", 4)
    ]
    w_only = 0
    for B, prof, pwf, wf in rows:
        assert wf == (pwf and prof["W"])
        w_only += pwf and not wf
    assert w_only > 0
    return f"{len(rows)} acts, {w_only} PWF but not WF"


@criterion(6, "monoid-as-act baselines")
def test_criterion_06_regular_act_baselines(zoo_monoids):
    for M in zoo_monoids:
        B = al.regular_act(M, "left")
        assert al.check_condition(B, "W").holds
        assert al.check_condition(B, "PWP").holds
        assert al.check_pwf(B).holds
        assert al.check_wf(B).holds
    return f"{len(zoo_monoids)} monoids"


@criterion(7, "cyclic groups")
def test_criterion_07_groups():
    """Cyclic groups: singleton generators for every pair-solution set,
    empty equalizers off the diagonal, and no flatness-style failures."""
    acts = 0
    for n in (2, 3, 4, 5):
        G = al.build("cyclic_group", n=n)
        for s in G.elements():
            for t in G.elements():
                assert len(al.min_generating_set(al.R_set(G, s, t))) == 1
                if s != t:
                    assert not al.r_set(G, s, t).members
        for B in al.enumerate_acts(G, "left", 3):
            acts += 1
            assert al.check_pwf(B).holds
            assert al.check_wf(B).holds
            assert al.check_flat_bounded(B, 2).verdict == "passes-up-to-bound"
    return f"n=2..5, {acts} acts flat every way"


@criterion(8, "null semigroup growth")
def test_criterion_08_null_semigroup_growth():
    """Generator counts n^2 - 1 at the designated pair, confirmed against
    exhaustive minimal-subset search at n = 2, 3."""
    for n in (2, 3, 4):
        M = al.build("null_adjoined", n=n)
        s, t = al.designated_pair("null_adjoined", M)
        R = al.R_set(M, s, t)
        gens = al.min_generating_set(R)
        assert len(gens) == n * n - 1
        if n <= 3:
            assert len(brute_min_generators(R)) == len(gens)
    return "counts 3, 8, 15 for n = 2, 3, 4"


@criterion(9, "two-level group union identities")
def test_criterion_09_semilattice_identities(semilattice22):
    M = semilattice22
    cases = 0
    for s in M.elements():
        for t in M.elements():
            claimed = semilattice_claimed_R(M, 2, s, t)
            if claimed is None:
                continue
            assert claimed == al.R_set(M, s, t).pairs
            cases += 1
    assert cases == 12  # every (s,t) of the three case splits
    return f"{cases} exact set equalities"


@criterion(10, "min-chain identities")
def test_criterion_10_min_chain_identities():
    checked = 0
    sizes = []
    for n in (3, 4, 5):
        M = al.build("nat_min_adjoined", n=n)
        eps = M.identity
        for s in range(n):
            for t in range(s + 1, n):
                from actalab.monoid import generated_pair_subact

                claimed = generated_pair_subact(M, [(s, s), (eps, s)]).pairs
                assert claimed == al.R_set(M, s, t).pairs
                assert al.r_set(M, s, t).members == frozenset(range(s + 1))
                checked += 1
        sizes.append(len(al.min_generating_set(al.R_set(M, 0, 0))))
    assert sizes == sorted(sizes) and len(set(sizes)) == len(sizes)
    return f"{checked} pair identities; generator growth {sizes}"


@criterion(11, "replacement sets")
def test_criterion_11_replacement_sets(zoo_monoids):
    """Every trigger instance of every in-class act of size <= 3 is
    replaced over a skeleton from the finite set, the first whose gamma
    chain holds, by a tossing that the test rebuilds and validates."""
    replaced = 0
    for M in zoo_monoids:
        acts = list(al.enumerate_acts(M, "left", 3))
        for B in acts:
            prof = {
                c: r.holds
                for c, r in condition_profile(
                    B, ("P", "E", "EP", "W", "PWP")
                ).items()
            }
            for cls in ("P", "E", "EP", "W", "PWP"):
                if not prof[cls]:
                    continue
                for s, t in product(M.elements(), repeat=2):
                    if cls == "PWP" and s != t:
                        continue
                    report = al.verify_replacement(B, s, t, cls)
                    assert report.ok, (M.name, cls, report.status)
                    rset = al.replacement_skeletons(M, s, t, cls)
                    replaced += check_replaced_instances(B, rset, report)
    return f"{replaced} instances replaced"


@criterion(12, "free-condition instance")
def test_criterion_12_free_condition_instance(z2, natmin3):
    """For every witnessed right-act chain, the induced map out of the
    standard quotient is a morphism hitting both endpoints."""
    built = 0
    for M in (z2, natmin3):
        n = M.size
        rights = list(al.enumerate_acts(M, "right", 4))
        for m in (1, 2):
            for entries in product(range(n), repeat=2 * m):
                sk = Skeleton(entries)
                Q, marks = standard_tossing_act(M, sk)
                for A2 in rights:
                    for a in A2.carrier():
                        for a2 in A2.carrier():
                            ok, wits = al.eval_delta(A2, sk, a, a2)
                            if not ok:
                                continue
                            chain = (a,) + wits + (a2,)
                            nu = al.induced_morphism(M, sk, A2, chain)
                            assert morphism_is_valid(nu)
                            assert nu.mapping[marks[0]] == a
                            assert nu.mapping[marks[-1]] == a2
                            built += 1
    return f"{built} induced morphisms"
