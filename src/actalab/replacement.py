"""Finite replacement-skeleton sets and their verification on concrete acts.

For an act in one of the classes (P), (E), (EP), (W), (PWP), every trigger
instance (an equality such as sa = tb, witnessed by the length-2 skeleton
(1, s, t, 1)) can be re-connected by a tossing whose skeleton comes from a
finite list computed out of the minimum generators of the class's structure
(see `INTERPOLATION_CLASSES`): a pair (u, v) gives the length-1 skeleton
(u, v), a member u of an ideal the trivial skeleton (u, u), and for the
scaled class (W) the length-3 skeleton (1, s, u, u, t, 1).

The verifier sweeps every trigger instance of an act and must find a
replacement for each; a miss would contradict the defining property of the
class and is reported as a violation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .act import Act, regular_act
from .conditions import INTERPOLATION_CLASSES, as_pairs, check_condition
from .errors import BadParamsError, SideMismatchError, ValidationError
from .monoid import FiniteMonoid, min_generating_set
from .tensor import Skeleton, Tossing, eval_delta, eval_gamma, validate_tossing


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
    if cls.diagonal and s != t:
        raise BadParamsError(f"the {cid} trigger needs s = t")
    e = M.identity
    gens = min_generating_set(cls.structure(M, s, t))
    sks = tuple(
        Skeleton((e, s, u, v, t, e) if cls.scaled else (u, v))
        for u, v in as_pairs(gens)
    )
    trigger = Skeleton((e, s, t, e))
    return ReplacementSet(cid, s, t, trigger, sks, tuple(gens))


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
    """Replace every trigger instance of B, reporting the skeleton used and a
    validated tossing per instance.  Acts outside the class are inapplicable."""
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
    S_right = regular_act(M, "right")
    return [_replace_instances(B, S_right, rset) for rset in rsets]


def _replace_instances(B: Act, S_right: Act, rset: ReplacementSet) -> ReplacementReport:
    """The replacement sweep of one parameter pair over an act in the class."""
    M = B.monoid
    s, t, cid = rset.s, rset.t, rset.class_id
    cls = INTERPOLATION_CLASSES[cid]
    sl, tl = M.label(s), M.label(t)
    # the A-side chain of each replacement skeleton connects s to t inside S
    delta_wits = {}
    for sk in rset.skeletons:
        ok, wits = eval_delta(S_right, sk, s, t)
        assert ok, "replacement skeleton lost its defining membership"
        delta_wits[sk] = wits
    instances = []
    for a, b in cls.instances(B, s, t):
        for sk in rset.skeletons:
            gok, gwits = eval_gamma(B, sk, a, b)
            if gok:
                break
        else:
            failure = {"a": B.label(a), "b": B.label(b)}
            return ReplacementReport(cid, sl, tl, "violation", instances, failure)
        toss = Tossing(S_right, B, sk, (s, a), (t, b), delta_wits[sk], gwits)
        assert validate_tossing(toss), "replacement tossing failed its equations"
        instances.append(
            {
                "a": B.label(a),
                "b": B.label(b),
                "skeleton": list(sk.labels(M)),
                "tossing_valid": True,
            }
        )
    return ReplacementReport(cid, sl, tl, "ok", instances)
