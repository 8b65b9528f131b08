"""JSON interchange for monoids, acts, sentences and tossings.

Formats:

  monoid   {"name": str, "elements": [str], "identity": str,
            "table": [[str]]}                  with table[i][j] = label of ei*ej
  act      {"monoid": str, "side": "left"|"right", "elements": [str],
            "action": {s_label: [carrier labels in carrier order]}}

Loading always revalidates, so a round-trip reproduces an equal value or
raises the same diagnostics as direct construction.
"""

from __future__ import annotations

import json
from pathlib import Path

from .act import Act, validate_act
from .axioms import AxiomSet, Equation, Sentence, Term, sentence_to_text
from .errors import MonoidMismatchError, ValidationError
from .monoid import FiniteMonoid, validate_monoid
from .tensor import Tossing


def monoid_to_dict(M: FiniteMonoid) -> dict:
    names = M.element_names
    return {
        "name": M.name,
        "elements": list(names),
        "identity": names[M.identity],
        "table": [[names[v] for v in row] for row in M.mul],
    }


def monoid_from_dict(data: dict) -> FiniteMonoid:
    where = "the monoid JSON"
    name = _field(data, "name", where, str)
    elements = _names(data, "elements", where)
    identity = _field(data, "identity", where, str)
    table = _field(data, "table", where)
    if not all(isinstance(row, list) and _strings(row) for row in table):
        raise ValidationError(f"{where} has 'table' that is not a list of lists of strings")
    return validate_monoid(elements, table, identity, name=name)


def act_to_dict(act: Act) -> dict:
    names = act.carrier_names
    return {
        "monoid": act.monoid.name,
        "side": act.side,
        "elements": list(names),
        "action": {
            act.monoid.element_names[s]: [names[v] for v in act.table[s]]
            for s in act.monoid.elements()
        },
    }


def act_from_dict(data: dict, M: FiniteMonoid) -> Act:
    where = "the act JSON"
    monoid = _field(data, "monoid", where, str)
    side = _field(data, "side", where, str)
    carrier = list(_names(data, "elements", where))
    action = _field(data, "action", where, dict)
    if monoid != M.name:
        raise MonoidMismatchError(f"act references monoid {monoid!r}, loaded {M.name!r}")
    pos = {label: i for i, label in enumerate(carrier)}
    table = []
    for s_label in M.element_names:
        if s_label not in action:
            raise ValidationError(f"action row for {s_label!r} missing")
        row = _names(action, s_label, f"the action of {where}")
        if len(row) != len(carrier):
            raise ValidationError(f"action row for {s_label!r} has wrong length")
        try:
            table.append([pos[v] for v in row])
        except KeyError as exc:
            raise ValidationError(f"action value {exc.args[0]!r} not in carrier")
    surplus = [label for label in action if label not in M.element_names]
    if surplus:
        raise ValidationError(f"action row {surplus[0]!r} is not a monoid element")
    return validate_act(M, side, carrier, table)


def _term_to_dict(M: FiniteMonoid, term: Term) -> dict:
    return {"word": [M.element_names[s] for s in term.word], "var": term.var}


_JSON_TYPES = {list: "a list", str: "a string", dict: "an object"}


def _field(data, key: str, where: str, expected: type = list):
    """data[key] of the expected JSON type, or a ValidationError naming the
    key and where it sits."""
    if not isinstance(data, dict):
        raise ValidationError(f"{where} has a part that is not an object")
    if key not in data:
        raise ValidationError(f"{where} lacks the key {key!r}")
    if not isinstance(data[key], expected):
        raise ValidationError(f"{where} has {key!r} that is not {_JSON_TYPES[expected]}")
    return data[key]


def _strings(values: list) -> bool:
    return all(isinstance(v, str) for v in values)


def _names(data, key: str, where: str) -> tuple[str, ...]:
    names = _field(data, key, where)
    if not _strings(names):
        raise ValidationError(f"{where} has {key!r} that is not a list of strings")
    return tuple(names)


def _eqs_from_list(M, eqs, where: str) -> tuple[Equation, ...]:
    if not isinstance(eqs, list):
        raise ValidationError(f"{where} has a conjunction that is not a list")
    return tuple(_eq_from_dict(M, eq, where) for eq in eqs)


def _term_from_dict(M: FiniteMonoid, data: dict, where: str) -> Term:
    word = _field(data, "word", where)
    return Term(tuple(M.index(label) for label in word), _field(data, "var", where, str))


def _eq_to_dict(M, eq: Equation) -> dict:
    return {"lhs": _term_to_dict(M, eq.lhs), "rhs": _term_to_dict(M, eq.rhs)}


def _eq_from_dict(M, data: dict, where: str) -> Equation:
    return Equation(
        _term_from_dict(M, _field(data, "lhs", where, dict), where),
        _term_from_dict(M, _field(data, "rhs", where, dict), where),
    )


def sentence_to_dict(M: FiniteMonoid, sentence: Sentence) -> dict:
    out = {
        "name": sentence.name,
        "forall": list(sentence.forall),
        "kind": sentence.kind,
        "text": sentence_to_text(M, sentence),
    }
    if sentence.kind in ("equation", "inequation"):
        out["equation"] = _eq_to_dict(M, sentence.equation)
    else:
        out["antecedent"] = [_eq_to_dict(M, eq) for eq in sentence.antecedent]
        out["exists"] = list(sentence.exists)
        out["consequent"] = [
            [_eq_to_dict(M, eq) for eq in conj] for conj in sentence.consequent
        ]
    return out


_SENTENCE_KINDS = ("equation", "inequation", "implication")


def sentence_from_dict(M: FiniteMonoid, data: dict) -> Sentence:
    name = _field(data, "name", "a sentence", str)
    where = f"sentence {name!r}"
    forall = _names(data, "forall", where)
    kind = _field(data, "kind", where, str)
    if kind not in _SENTENCE_KINDS:
        raise ValidationError(
            f"{where} has kind {kind!r}; expected one of {', '.join(_SENTENCE_KINDS)}"
        )
    if kind in ("equation", "inequation"):
        return Sentence(
            name, forall, kind,
            _eq_from_dict(M, _field(data, "equation", where, dict), where),
        )
    return Sentence(
        name,
        forall,
        kind,
        antecedent=_eqs_from_list(M, _field(data, "antecedent", where), where),
        exists=_names(data, "exists", where),
        consequent=tuple(
            _eqs_from_list(M, conj, where)
            for conj in _field(data, "consequent", where)
        ),
    )


def axiom_set_to_dict(axset: AxiomSet) -> dict:
    M = axset.monoid
    return {
        "class": axset.class_id,
        "monoid": M.name,
        "sentences": [sentence_to_dict(M, s) for s in axset.sentences],
        "provenance": axset.provenance,
    }


def sentences_from_dict(data: dict, M: FiniteMonoid) -> tuple[Sentence, ...]:
    sentences = _field(data, "sentences", "the sentence file")
    if data.get("monoid") != M.name:
        raise MonoidMismatchError(
            f"sentences reference monoid {data.get('monoid')!r}, loaded {M.name!r}"
        )
    return tuple(sentence_from_dict(M, s) for s in sentences)


def tossing_to_dict(t: Tossing) -> dict:
    A, B = t.right_act, t.left_act
    M = A.monoid
    return {
        "skeleton": list(t.skeleton.labels(M)),
        "from": [A.label(t.start[0]), B.label(t.start[1])],
        "to": [A.label(t.end[0]), B.label(t.end[1])],
        "a_witnesses": [A.label(a) for a in t.a_witnesses],
        "b_witnesses": [B.label(b) for b in t.b_witnesses],
    }


def load_json(path: str | Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(
                f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}"
            ) from exc
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text") from exc


def dump_json(data: dict, path: str | Path | None = None) -> str:
    text = json.dumps(data, indent=2, ensure_ascii=False)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text
