"""Finite replacement-skeleton sets and their verification on concrete acts.

For an act in one of the classes (P), (E), (EP), (W), (PWP), every trigger
instance (an equality such as sa = tb, witnessed by the length-2 skeleton
(1, s, t, 1)) can be re-connected by a tossing whose skeleton comes from a
finite list computed out of the minimum generators of the class's structure
(see `INTERPOLATION_CLASSES`): a pair (u, v) gives the length-1 skeleton
(u, v), a member u of an ideal the trivial skeleton (u, u), and for the
scaled class (W) the length-3 skeleton (1, s, u, u, t, 1).

The verifier sweeps every trigger instance of an act and gives it the first
skeleton of the list whose gamma chain joins it; a miss would contradict the
defining property of the class and is reported as a violation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .act import Act
from .conditions import INTERPOLATION_CLASSES, _structures, as_pairs, check_condition
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


def replacement_skeletons(
    M: FiniteMonoid, s: int, t: int, class_id: str
) -> ReplacementSet:
    """The finite replacement list for one parameter pair; empty exactly when
    the underlying structure is empty."""
    cid = class_id.upper()
    if cid not in INTERPOLATION_CLASSES:
        raise ValidationError(f"no replacement construction for class {class_id!r}")
    cls = INTERPOLATION_CLASSES[cid]
    for x in (s, t):
        if not (0 <= x < M.size):
            raise ElementNotFoundError(str(x), "monoid")
    if cls.diagonal and s != t:
        raise BadParamsError(f"the {cid} trigger needs s = t")
    e = M.identity
    gens = _structures(cid, M)[s, t][0]
    sks = tuple(
        Skeleton((e, s, u, v, t, e) if cls.scaled else (u, v))
        for u, v in as_pairs(gens)
    )
    return ReplacementSet(cid, s, t, Skeleton((e, s, t, e)), sks, gens)


@dataclass
class ReplacementReport:
    class_id: str
    s: str
    t: str
    status: str  # "ok" | "inapplicable" | "violation"
    instances: list
    failure: dict | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> dict:
        out = {
            "class": self.class_id,
            "s": self.s,
            "t": self.t,
            "status": self.status,
            "instances": self.instances,
        }
        if self.failure is not None:
            out["failure"] = self.failure
        return out


def verify_replacement(B: Act, s: int, t: int, class_id: str) -> ReplacementReport:
    """Replace every trigger instance of B, reporting the skeleton used per
    instance.  Acts outside the class are inapplicable."""
    return verify_replacements(B, [(s, t)], class_id)[0]


def verify_replacements(B: Act, pairs, class_id: str) -> list[ReplacementReport]:
    """`verify_replacement` for each parameter pair in turn, deciding the
    class of B once for all of them."""
    if B.side != "left":
        raise SideMismatchError("replacement verification runs on left acts")
    M = B.monoid
    rsets = [replacement_skeletons(M, s, t, class_id) for s, t in pairs]
    if not rsets:
        return []
    cid = rsets[0].class_id
    if not check_condition(B, cid).holds:
        return [
            ReplacementReport(cid, M.label(r.s), M.label(r.t), "inapplicable", [])
            for r in rsets
        ]
    return [_replace_instances(B, rset) for rset in rsets]


def _replace_instances(B: Act, rset: ReplacementSet) -> ReplacementReport:
    """The replacement sweep of one parameter pair over an act in the class.
    A skeleton's gamma chain joins (a, b) exactly when the legs lie in its
    generator's orbit: (a, b) = (u·c, v·c), or s·a = u·c = t·b when scaled."""
    M = B.monoid
    s, t, cid = rset.s, rset.t, rset.class_id
    cls = INTERPOLATION_CLASSES[cid]
    sl, tl = M.label(s), M.label(t)
    rows = B.table
    orbits = [set(zip(rows[u], rows[v])) for u, v in as_pairs(rset.generators)]
    sa = rows[s]
    instances = []
    for a, b in cls.instances(B, s, t):
        legs = (sa[a], sa[a]) if cls.scaled else (a, b)
        sk = next((sk for sk, o in zip(rset.skeletons, orbits) if legs in o), None)
        if sk is None:
            failure = {"a": B.label(a), "b": B.label(b)}
            return ReplacementReport(cid, sl, tl, "violation", instances, failure)
        instances.append(
            {
                "a": B.label(a),
                "b": B.label(b),
                "skeleton": list(sk.labels(M)),
                "tossing_valid": True,
            }
        )
    return ReplacementReport(cid, sl, tl, "ok", instances)
