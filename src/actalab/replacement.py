"""Finite replacement-skeleton sets and their verification on concrete acts.

For an act in one of the classes (P), (E), (EP), (W), (PWP), every trigger
instance (an equality such as sa = tb, witnessed by the length-2 skeleton
(1, s, t, 1)) can be re-connected by a tossing whose skeleton comes from a
finite list computed out of the minimum generators of the class's structure
(see `INTERPOLATION_CLASSES`): a pair (u, v) gives the length-1 skeleton
(u, v), a member u of an ideal the trivial skeleton (u, u), and for the
scaled class (W) the length-3 skeleton (1, s, u, u, t, 1).

The verifier decides the act's class from the same generators' orbits, and
for an act in the class gives every trigger instance the first skeleton of
the list whose gamma chain joins it, which always exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .act import Act
from .conditions import INTERPOLATION_CLASSES, _structure, check_condition
from .errors import BadParamsError, ElementNotFoundError, SideMismatchError, ValidationError
from .monoid import FiniteMonoid
from .tensor import Skeleton


@dataclass(frozen=True)
class ReplacementSet:
    class_id: str
    s: int
    t: int
    trigger: Skeleton
    skeletons: tuple[Skeleton, ...]
    generators: tuple


def _class_id(class_id: str) -> str:
    cid = class_id.upper()
    if cid not in INTERPOLATION_CLASSES:
        raise ValidationError(f"no replacement construction for class {class_id!r}")
    return cid


@lru_cache(maxsize=128)
def replacement_skeletons(
    M: FiniteMonoid, s: int, t: int, class_id: str
) -> ReplacementSet:
    """The finite replacement list for one parameter pair; empty exactly when
    the underlying structure is empty.  Recent lists are kept: each is frozen."""
    cid = _class_id(class_id)
    cls = INTERPOLATION_CLASSES[cid]
    for x in (s, t):
        if not (0 <= x < M.size):
            raise ElementNotFoundError(str(x), "monoid")
    if cls.diagonal and s != t:
        raise BadParamsError(f"the {cid} trigger needs s = t")
    e = M.identity
    gen_pairs = _structure(cls.structure, M, s, t)
    sks = tuple(
        Skeleton((e, s, u, v, t, e) if cls.scaled else (u, v)) for u, v in gen_pairs
    )
    gens = tuple(u for u, _ in gen_pairs) if cls.ideal else gen_pairs
    return ReplacementSet(cid, s, t, Skeleton((e, s, t, e)), sks, gens)


@dataclass
class ReplacementReport:
    class_id: str
    s: str
    t: str
    status: str  # "ok", or "inapplicable" for an act outside the class
    instances: list

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> dict:
        return {"class": self.class_id, "s": self.s, "t": self.t,
                "status": self.status, "instances": self.instances}


def verify_replacement(B: Act, s: int, t: int, class_id: str) -> ReplacementReport:
    """Replace every trigger instance of B, reporting the skeleton used per
    instance.  Acts outside the class are inapplicable."""
    return verify_replacements(B, [(s, t)], class_id)[0]


def verify_replacements(B: Act, pairs, class_id: str) -> list[ReplacementReport]:
    """`verify_replacement` for each parameter pair in turn, deciding the
    class of B once for all of them."""
    if B.side != "left":
        raise SideMismatchError("replacement verification runs on left acts")
    cid = _class_id(class_id)
    M = B.monoid
    rsets = [replacement_skeletons(M, s, t, cid) for s, t in pairs]
    status = "ok" if check_condition(B, cid).holds else "inapplicable"
    return [
        ReplacementReport(
            cid, M.label(r.s), M.label(r.t), status,
            _replace_instances(B, r) if status == "ok" else [],
        )
        for r in rsets
    ]


def _replace_instances(B: Act, rset: ReplacementSet) -> list[dict]:
    """Every trigger instance of one parameter pair, over an act in the
    class, with its skeleton.  A skeleton's gamma chain joins an instance
    exactly when the instance's legs lie in its generator's orbit, and the
    decider has put every instance's legs in the union of these orbits."""
    M, rows = B.monoid, B.table
    cls = INTERPOLATION_CLASSES[rset.class_id]
    gen_pairs = _structure(cls.structure, M, rset.s, rset.t)
    orbits = [set(zip(rows[u], rows[v])) for u, v in gen_pairs]
    labels = [sk.labels(M) for sk in rset.skeletons]
    return [
        {"a": B.label(a), "b": B.label(b),
         "skeleton": list(next(lab for lab, o in zip(labels, orbits) if legs in o)),
         "tossing_valid": True}
        for a, b, legs in cls.instances(B, rset.s, rset.t)
    ]
