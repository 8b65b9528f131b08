"""Construction of the monoid families used throughout the test corpus, and
growth reports for the generator counts of R(s,t), r(s,t) and sS ∩ tS.

Families:

  cyclic_group(n)          Z_n, labels 1, g, g2, ...
  inverse_omega_chain(n)   {e0, ..., en} with ei*ej = e_max(i,j)
  null_adjoined(n)         a null semigroup T of size n (its zero is the
                           label "0") with adjoined identity eps
  semilattice_of_groups(n1, n0)
                           cyclic groups G1 (labels e, a, ...) above
                           G0 (labels f, b, ...), products across the two
                           levels collapsing to the lower factor
  nat_min_adjoined(n)      {1..n} under min with adjoined identity eps

The inverse monoid on Z x Z with (a,b)(c,d) = (a-b+max(b,c), d-c+max(b,c))
has no multiplication-closed finite truncation, so no finite family is
provided for it; growth statements about it stay out of reach of this zoo.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadParamsError
from .monoid import (
    FiniteMonoid,
    R_set,
    ideal_intersection,
    min_generating_set,
    monoid_from_indices,
    r_set,
)

FAMILIES = (
    "cyclic_group",
    "inverse_omega_chain",
    "null_adjoined",
    "semilattice_of_groups",
    "nat_min_adjoined",
)

EXCLUSIONS = {
    "integer_pair_inverse_monoid": "no multiplication-closed finite truncation"
}


def _cyclic_names(prefix_one: str, prefix: str, n: int) -> list[str]:
    out = [prefix_one]
    for i in range(1, n):
        out.append(prefix if i == 1 else f"{prefix}{i}")
    return out


def build(family: str, **params) -> FiniteMonoid:
    """Instantiate a family member; every table goes through full validation."""
    size = family_size(family, **params)
    if family == "cyclic_group":
        n = params["n"]
        names = _cyclic_names("1", "g", n)
        mul = [[(i + j) % n for j in range(n)] for i in range(n)]
        return monoid_from_indices(f"cyclic_group({n})", names, mul, 0)
    if family == "inverse_omega_chain":
        n = params["n"]
        names = [f"e{i}" for i in range(n + 1)]
        mul = [[max(i, j) for j in range(n + 1)] for i in range(n + 1)]
        return monoid_from_indices(f"inverse_omega_chain({n})", names, mul, 0)
    if family == "null_adjoined":
        n = params["n"]
        names = ["eps"] + [f"x{i}" for i in range(1, n)] + ["0"]
        zero = size - 1
        mul = [[0] * size for _ in range(size)]
        for i in range(size):
            mul[0][i] = i
            mul[i][0] = i
        for i in range(1, size):
            for j in range(1, size):
                mul[i][j] = zero
        return monoid_from_indices(f"null_adjoined({n})", names, mul, 0)
    if family == "semilattice_of_groups":
        n1, n0 = params["n1"], params["n0"]
        names = _cyclic_names("e", "a", n1) + _cyclic_names("f", "b", n0)
        mul = [[0] * size for _ in range(size)]
        for i in range(size):
            for j in range(size):
                if i < n1 and j < n1:
                    mul[i][j] = (i + j) % n1
                elif i >= n1 and j >= n1:
                    mul[i][j] = n1 + (i - n1 + j - n1) % n0
                else:
                    # products across levels collapse to the lower factor
                    mul[i][j] = j if j >= n1 else i
        return monoid_from_indices(
            f"semilattice_of_groups({n1},{n0})", names, mul, 0
        )
    if family == "nat_min_adjoined":
        n = params["n"]
        names = [str(i) for i in range(1, n + 1)] + ["eps"]
        eps = size - 1
        mul = [[0] * size for _ in range(size)]
        for i in range(size):
            mul[eps][i] = i
            mul[i][eps] = i
        for i in range(n):
            for j in range(n):
                mul[i][j] = min(i, j)
        return monoid_from_indices(f"nat_min_adjoined({n})", names, mul, eps)
    raise AssertionError(family)  # family_size knows every family


def family_size(family: str, **params) -> int:
    """|S| of the member that `build` makes, after checking its parameters."""
    if family == "semilattice_of_groups":
        return _need_size(params, "n1") + _need_size(params, "n0")
    if family not in FAMILIES:
        raise BadParamsError(f"unknown family {family!r}; choose from {FAMILIES}")
    n = _need_size(params, "n", minimum=0 if family == "inverse_omega_chain" else 1)
    # the groups have n elements; the other families adjoin one to n
    return n if family == "cyclic_group" else n + 1


def _need_size(params: dict, key: str, minimum: int = 1) -> int:
    if key not in params:
        raise BadParamsError(f"family parameter {key!r} is required")
    value = params[key]
    if not isinstance(value, int) or value < minimum:
        raise BadParamsError(f"{key} must be an integer >= {minimum}, got {value!r}")
    return value


def designated_pair(family: str, M: FiniteMonoid) -> tuple[int, int]:
    """The (s,t) whose generator counts the growth report tabulates.

    For null_adjoined the pair is the two lowest-index non-zero elements of
    the null part; with a single such element the pair degenerates to it
    twice, which continues the n^2 - 1 growth of the pair-solution set.
    """
    names = M.element_names
    if family == "cyclic_group":
        return (1 if M.size > 1 else 0, M.identity)
    if family == "inverse_omega_chain":
        if M.size >= 3:
            return (1, 2)
        return (M.size - 1, M.size - 1)
    if family == "null_adjoined":
        xs = [i for i, nm in enumerate(names) if nm.startswith("x")]
        if len(xs) >= 2:
            return (xs[0], xs[1])
        if xs:
            return (xs[0], xs[0])
        zero = names.index("0")
        return (zero, zero)
    if family == "semilattice_of_groups":
        b = names.index("b") if "b" in names else names.index("f")
        return (b, b)
    if family == "nat_min_adjoined":
        return (0, 0)
    raise BadParamsError(f"unknown family {family!r}")


def _monotonicity(values: list[int]) -> str:
    if all(b > a for a, b in zip(values, values[1:])):
        return "strictly-increasing"
    if all(b == a for a, b in zip(values, values[1:])):
        return "constant"
    if all(b >= a for a, b in zip(values, values[1:])):
        return "non-decreasing"
    return "non-monotone"


@dataclass
class FamilyReport:
    family: str
    params: list[int]
    rows: list[dict]
    monotonicity: dict

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "params": self.params,
            "rows": self.rows,
            "monotonicity": self.monotonicity,
        }


def _instance(family: str, n: int) -> FiniteMonoid:
    if family == "semilattice_of_groups":
        return build(family, n1=n, n0=2)
    return build(family, n=n)


def family_report(family: str, params: list[int]) -> FamilyReport:
    """Generator counts of R(s,t), r(s,t), sS ∩ tS at the designated pair,
    per parameter, with monotonicity verdicts across the range.

    For semilattice_of_groups the parameter is the size of the upper group,
    with the lower group fixed at size 2.
    """
    rows = []
    series: dict[str, list[int]] = {"R": [], "r": [], "cap": []}
    for n in params:
        M = _instance(family, n)
        s, t = designated_pair(family, M)
        R = R_set(M, s, t)
        r = r_set(M, s, t)
        cap = ideal_intersection(M, s, t)
        counts = {
            "R": len(min_generating_set(R)),
            "r": len(min_generating_set(r)),
            "cap": len(min_generating_set(cap)),
        }
        for key in series:
            series[key].append(counts[key])
        rows.append(
            {
                "param": n,
                "monoid": M.name,
                "pair": [M.label(s), M.label(t)],
                "generator_counts": counts,
                "empty": {
                    "R": not R.pairs,
                    "r": not r.members,
                    "cap": not cap.members,
                },
            }
        )
    monotonicity = {key: _monotonicity(vals) for key, vals in series.items()}
    return FamilyReport(family, list(params), rows, monotonicity)
