import json

import pytest

import actalab as al
from actalab.conditions import _structures
from actalab.errors import MonoidMismatchError, ValidationError
from actalab.serialize import (
    act_from_dict,
    act_to_dict,
    axiom_set_to_dict,
    dump_json,
    monoid_from_dict,
    monoid_to_dict,
    sentence_from_dict,
    sentence_to_dict,
    sentences_from_dict,
    tossing_to_dict,
)


def test_monoid_round_trip(zoo_monoids):
    for M in zoo_monoids:
        data = monoid_to_dict(M)
        again = monoid_from_dict(json.loads(json.dumps(data)))
        assert again == M


def test_act_round_trip(zoo_monoids):
    for M in zoo_monoids:
        for act in list(al.enumerate_acts(M, "left", 2)):
            data = act_to_dict(act)
            again = act_from_dict(json.loads(json.dumps(data)), M)
            assert again == act


def test_read_back_monoids_and_acts_hash_as_built(zoo_monoids):
    """Hashes are kept per instance, so a copy read back from JSON must still
    hash and compare equal to the object it was written from, and find the
    entries that the built object left in the caches keyed on it."""
    for M in zoo_monoids:
        again = monoid_from_dict(json.loads(dump_json(monoid_to_dict(M))))
        assert again is not M and again == M and hash(again) == hash(M)
        assert _structures("P", again) is _structures("P", M)
        for act in al.enumerate_acts(M, "left", 2):
            back = act_from_dict(json.loads(dump_json(act_to_dict(act))), again)
            assert back.monoid is again
            assert back == act and hash(back) == hash(act)
            assert {act: 1}[back] == 1


def test_act_monoid_reference_checked(z2, z3):
    act = al.regular_act(z2, "left")
    data = act_to_dict(act)
    with pytest.raises(MonoidMismatchError):
        act_from_dict(data, z3)


def test_sentence_round_trip(zoo_monoids):
    for M in zoo_monoids:
        for cls in ("P", "W", "PWP"):
            axset = al.emit_axioms(M, cls)
            for sent in axset.sentences:
                data = sentence_to_dict(M, sent)
                assert sentence_from_dict(M, json.loads(json.dumps(data))) == sent


def test_axiom_set_round_trip(z2):
    axset = al.emit_axioms(z2, "W")
    data = axiom_set_to_dict(axset)
    again = sentences_from_dict(json.loads(json.dumps(data)), z2)
    assert again == axset.sentences


def test_sentences_reject_wrong_monoid(z2, z3):
    data = axiom_set_to_dict(al.emit_axioms(z2, "W"))
    with pytest.raises(MonoidMismatchError):
        sentences_from_dict(data, z3)


def test_tossing_dict_labels(z2):
    S = al.regular_act(z2, "right")
    B = al.regular_act(z2, "left")
    toss = al.find_tossing(S, B, 1, 0, 0, 1)
    data = tossing_to_dict(toss)
    assert data["from"] == ["g", "1"] and data["to"] == ["1", "g"]
    assert len(data["skeleton"]) == 2 * toss.skeleton.length


def test_malformed_monoid_json():
    with pytest.raises(ValidationError):
        monoid_from_dict({"name": "x", "elements": ["1"]})


def test_dump_json_stable(tmp_path, z2):
    data = monoid_to_dict(z2)
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    dump_json(data, p1)
    dump_json(data, p2)
    assert p1.read_bytes() == p2.read_bytes()
