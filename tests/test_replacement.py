import pytest

import actalab as al
from actalab.conditions import (
    INTERPOLATION_CLASSES,
    _interpolate,
    _structure,
    _structures,
    as_pairs,
)
from actalab.errors import BadParamsError, ElementNotFoundError, ValidationError
from actalab.monoid import PairSubact, generated_pair_subact, min_generating_set
from actalab.replacement import verify_replacements
from helpers import check_replaced_instances, replacement_shape_ok


def test_p_replacement_z2(z2):
    rset = al.replacement_skeletons(z2, 0, 1, "P")
    assert len(rset.skeletons) == 1
    assert replacement_shape_ok(rset)
    (sk,) = rset.skeletons
    # membership re-checked by direct multiplication: s*u = t*v
    u, v = sk.s(1), sk.t(1)
    assert z2.op(0, u) == z2.op(1, v)
    assert rset.trigger.entries == (0, 0, 1, 0)


def test_e_replacement_empty_for_group(z2):
    rset = al.replacement_skeletons(z2, 0, 1, "E")
    assert rset.skeletons == ()
    assert not al.r_set(z2, 0, 1).members


def test_w_replacement_nat_min(natmin3):
    M = natmin3
    two, three = M.index("2"), M.index("3")
    rset = al.replacement_skeletons(M, two, three, "W")
    assert replacement_shape_ok(rset)
    labels = [sk.labels(M) for sk in rset.skeletons]
    assert labels == [("eps", "2", "2", "2", "3", "eps")]
    # generator really generates the intersection ideal {1, 2}
    assert al.ideal_intersection(M, two, three).labels() == ("1", "2")


def test_pwp_needs_equal_parameters(z2):
    with pytest.raises(BadParamsError):
        al.replacement_skeletons(z2, 0, 1, "PWP")


def test_soundness_of_memberships(zoo_monoids):
    for M in zoo_monoids:
        for s in M.elements():
            for t in M.elements():
                for cls in ("P", "E", "EP", "W"):
                    rset = al.replacement_skeletons(M, s, t, cls)
                    assert replacement_shape_ok(rset)
                    for g in rset.generators:
                        if cls == "P" or cls == "EP":
                            u, v = g
                            assert M.mul[s][u] == M.mul[t][v]
                        elif cls == "E":
                            assert M.mul[s][g] == M.mul[t][g]
                        else:
                            assert g in al.ideal_intersection(M, s, t).members
                rset = al.replacement_skeletons(M, t, t, "PWP")
                for u, v in rset.generators:
                    assert M.mul[t][u] == M.mul[t][v]


def test_verify_w_on_regular_act(zoo_monoids):
    for M in zoo_monoids:
        B = al.regular_act(M, "left")
        for s in M.elements():
            for t in M.elements():
                if not al.ideal_intersection(M, s, t).members:
                    continue
                report = al.verify_replacement(B, s, t, "W")
                assert report.ok, (M.name, s, t, report.status)


def test_verify_p_trivial_monoid(trivial):
    for B in al.enumerate_acts(trivial, "left", 3):
        report = al.verify_replacement(B, 0, 0, "P")
        assert report.ok
        for inst in report.instances:
            assert inst["skeleton"] == ["1", "1"]


def test_verify_pwp_enumerated_z2(z2):
    for B in al.enumerate_acts(z2, "left", 3):
        if not al.check_condition(B, "PWP").holds:
            continue
        for t in z2.elements():
            report = al.verify_replacement(B, t, t, "PWP")
            assert report.ok


def test_inapplicable_act_reported(null2):
    bad = next(
        B
        for B in al.enumerate_acts(null2, "left", 3)
        if not al.check_condition(B, "PWP").holds
    )
    x = null2.index("x1")
    report = al.verify_replacement(bad, x, x, "PWP")
    assert report.status == "inapplicable"


def test_instances_carry_validated_tossings(natmin3):
    B = al.regular_act(natmin3, "left")
    one, two = natmin3.index("1"), natmin3.index("2")
    report = al.verify_replacement(B, one, two, "P")
    assert report.ok and report.instances
    rset = al.replacement_skeletons(natmin3, one, two, "P")
    assert check_replaced_instances(B, rset, report) == len(report.instances)


def test_parameters_outside_monoid(natmin3):
    """s or t equal to -1 or |S| is not an element: no wrapping to the last
    element, no bare IndexError, no failed tossing.  An unknown class is
    refused too."""
    B = al.regular_act(natmin3, "left")
    for bad in (-1, natmin3.size):
        for s, t in ((bad, 1), (1, bad), (bad, bad)):
            for cls in ("P", "E", "EP", "W", "PWP"):
                with pytest.raises(ElementNotFoundError):
                    al.replacement_skeletons(natmin3, s, t, cls)
            with pytest.raises(ElementNotFoundError):
                al.verify_replacement(B, s, t, "P")
    # the class is resolved before the pairs, so an empty list still checks it
    with pytest.raises(ValidationError):
        verify_replacements(B, [], "XX")


def test_per_pair_reports_match_the_batch_and_decide_once(zoo_monoids):
    """Over every act of size <= 3 of the zoo, each pair's report equals the
    matching report of the batch call, and the class of each act is decided
    once for all of them."""
    _interpolate.cache_clear()
    decisions = 0
    for M in zoo_monoids:
        for B in al.enumerate_acts(M, "left", 3):
            for cid, cls in INTERPOLATION_CLASSES.items():
                pairs = cls.params(M)
                batch = verify_replacements(B, pairs, cid)
                for (s, t), report in zip(pairs, batch):
                    assert al.verify_replacement(B, s, t, cid).to_dict() == report.to_dict()
                decisions += 1
    assert _interpolate.cache_info().misses == decisions


def test_pair_structures_match_the_class_table(zoo_monoids):
    """Each pair's replacement set, built pair by pair in reverse order
    with no class table, reads the entry that the class table holds, which
    is the structure's minimum generators as pairs.  The generators the set
    reports are `min_generating_set`'s, and the pairs the entry generates
    are the structure's elements."""
    _structures.cache_clear()
    _structure.cache_clear()
    rsets = {
        (M, cid, s, t): al.replacement_skeletons(M, s, t, cid)
        for M in zoo_monoids
        for cid, cls in INTERPOLATION_CLASSES.items()
        for s, t in reversed(cls.params(M))
    }
    assert _structures.cache_info().currsize == 0
    _structure.cache_clear()
    for (M, cid, s, t), rset in rsets.items():
        S = INTERPOLATION_CLASSES[cid].structure(M, s, t)
        gen_pairs = _structures(cid, M)[s, t]
        assert gen_pairs == as_pairs(min_generating_set(S))
        assert rset.generators == min_generating_set(S)
        assert len(rset.skeletons) == len(gen_pairs)
        elements = S.pairs if isinstance(S, PairSubact) else as_pairs(S.members)
        assert generated_pair_subact(M, gen_pairs).pairs == set(elements)


def test_one_pair_builds_only_its_structure():
    """`replace compute` for one pair of a large monoid reads that pair's
    structure and leaves the class table unbuilt."""
    M = al.build("null_adjoined", n=16)
    _structures.cache_clear()
    rset = al.replacement_skeletons(M, 1, 2, "P")
    assert _structures.cache_info().currsize == 0
    assert rset.generators == min_generating_set(al.R_set(M, 1, 2))
