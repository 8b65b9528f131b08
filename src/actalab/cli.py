"""Command-line entry point.

Exit codes: 0 for success or a holding verdict, 1 for a failing verdict,
2 for usage, validation or precondition errors.  Identical inputs and
flags produce byte-identical primary output.  The environment variable
ACTALAB_MAX_CELLS (default 10^8, a positive integer) caps the
|S|^2 * |A| * |B| work estimate of a command before it starts, and for
`enumerate` and `axioms verify` also the (|S|-1) * k^k row candidates at the
largest carrier size k and, with --distinct, the k! carrier relabellings;
for `check --condition flat --flat-bound m` a conservative bound that charges
each skeleton of length up to m a merge of its quotient, (|S|^2 + ... +
|S|^(2m)) * (m+1) * |S|^2 * |B|^2; for `zoo build` the |S|^3 associativity
check, for `zoo report` sum(n^4).
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import islice
from math import factorial

from . import zoo
from .act import Act, enumerate_acts
from .axioms import (
    emit_axioms,
    model_check,
    sentence_to_text,
    verify_axiomatisations,
)
from .conditions import (
    CONDITION_IDS,
    INTERPOLATION_CLASSES,
    check_condition,
    check_flat_bounded,
    check_pwf,
    check_wf,
)
from .errors import ActalabError
from .monoid import FiniteMonoid
from .replacement import replacement_skeletons, verify_replacements
from .serialize import (
    act_from_dict,
    act_to_dict,
    axiom_set_to_dict,
    dump_json,
    load_json,
    monoid_from_dict,
    monoid_to_dict,
    sentences_from_dict,
    tossing_to_dict,
)
from .tensor import find_tossing, format_tossing, tensor_product

DEFAULT_MAX_CELLS = 10**8


class BudgetExceeded(ActalabError):
    pass


def _budget() -> int:
    raw = os.environ.get("ACTALAB_MAX_CELLS", "")
    if not raw:
        return DEFAULT_MAX_CELLS
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ActalabError(f"ACTALAB_MAX_CELLS must be a positive integer, got {raw!r}")
    return cap


def _check_estimate(name: str, estimate: int, relation: str = "=") -> None:
    cap = _budget()
    if estimate > cap:
        raise BudgetExceeded(
            f"work estimate {name} {relation} {estimate} exceeds ACTALAB_MAX_CELLS = {cap}"
        )


def _guard(n_s: int, n_a: int, n_b: int):
    _check_estimate("|S|^2*|A|*|B|", n_s * n_s * n_a * n_b)


def _guard_enumeration(n_s: int, k: int, distinct: bool):
    """Besides |S|^2*k^2, the exponential terms of enumerating every act up
    to size k: the row candidates at the largest size and, with --distinct,
    the k! relabellings, all of which fix the identity row.  The first term
    bounds k before k^k is computed; k below 1 is left to `enumerate_acts`."""
    _guard(n_s, k, k)
    if k >= 1:
        _check_estimate("(|S|-1)*k^k", (n_s - 1) * k**k)
        if distinct:
            _check_estimate("k!", factorial(k))


def _guard_flat(n_s: int, n_b: int, m: int):
    """(|S|^2 + ... + |S|^(2m)) * (m+1) * |S|^2 * |B|^2, a conservative bound
    on the bounded flatness search: each skeleton is charged a merge of its
    quotient, (m+1)*|S| positions under |S| actions, over the pairs of B,
    where it costs one composition and one lookup.  The search walks
    distinct (subact state, relation) pairs, far fewer than the skeletons,
    so the bound is loose; it is kept so that the exit codes of `check`
    do not change.  With |S| >= 2 the term |S|^(2k) alone passes the cap
    once 4^k does, so later terms are not computed and the diagnostic
    gives a lower bound."""
    if n_s == 1:
        total, exact = m, True
    else:
        terms = min(m, _budget().bit_length() // 2 + 1)
        total = sum(n_s ** (2 * k) for k in range(1, terms + 1))
        exact = terms == m
    _check_estimate("(|S|^2+...+|S|^(2m))*(m+1)*|S|^2*|B|^2",
                    total * (m + 1) * n_s * n_s * n_b * n_b, "=" if exact else ">=")


def _load_monoid(path: str) -> FiniteMonoid:
    return monoid_from_dict(load_json(path))


def _load_act(path: str, M: FiniteMonoid) -> Act:
    return act_from_dict(load_json(path), M)


def _emit(args, data: dict | list, text: str) -> None:
    if getattr(args, "json", False):
        print(dump_json(data))
    else:
        print(text)


def _cmd_monoid_validate(args) -> int:
    M = _load_monoid(args.file)
    _emit(args, {"monoid": M.name, "size": M.size, "valid": True},
          f"{M.name}: valid monoid with {M.size} elements")
    return 0


def _cmd_act_validate(args) -> int:
    M = _load_monoid(args.monoid)
    act = _load_act(args.file, M)
    _emit(args, {"monoid": M.name, "side": act.side, "size": act.size,
                 "valid": True},
          f"valid {act.side} act with {act.size} elements over {M.name}")
    return 0


def _cmd_tensor(args) -> int:
    M = _load_monoid(args.monoid)
    A = _load_act(args.right_act, M)
    B = _load_act(args.left_act, M)
    _guard(M.size, A.size, B.size)
    T = tensor_product(A, B)
    classes = [
        [[A.label(a), B.label(b)] for a, b in cls] for cls in T.classes
    ]
    text = [f"{T.n_classes} classes on {A.size}x{B.size} pairs"]
    for i, cls in enumerate(classes):
        text.append(f"  class {i}: " + " ".join(f"({a},{b})" for a, b in cls))
    _emit(args, {"n_classes": T.n_classes, "classes": classes}, "\n".join(text))
    return 0


def _parse_pair(raw: str, A: Act, B: Act) -> tuple[int, int]:
    parts = raw.split(",")
    if len(parts) != 2:
        raise ActalabError(f"pair {raw!r} must be 'aLabel,bLabel'")
    return A.index(parts[0]), B.index(parts[1])


def _cmd_tossing(args) -> int:
    M = _load_monoid(args.monoid)
    A = _load_act(args.right_act, M)
    B = _load_act(args.left_act, M)
    _guard(M.size, A.size, B.size)
    a, b = _parse_pair(args.src, A, B)
    a2, b2 = _parse_pair(args.dst, A, B)
    toss = find_tossing(A, B, a, b, a2, b2)
    if toss is None:
        _emit(args, {"connected": False},
              f"({args.src}) and ({args.dst}) are not tensor-equal")
        return 1
    data = {"connected": True, "tossing": tossing_to_dict(toss)}
    text = format_tossing(toss) + "\n" + dump_json(tossing_to_dict(toss))
    _emit(args, data, text)
    return 0


def _cmd_check(args) -> int:
    cond = args.condition.lower()
    if args.flat_bound is not None and cond != "flat":
        raise ActalabError("check: --flat-bound applies only to --condition flat")
    M = _load_monoid(args.monoid)
    B = _load_act(args.act, M)
    _guard(M.size, B.size, B.size)
    if cond == "pwf":
        report = check_pwf(B)
    elif cond == "wf":
        report = check_wf(B)
    elif cond == "flat":
        bound = 2 if args.flat_bound is None else args.flat_bound
        _guard_flat(M.size, B.size, bound)
        report = check_flat_bounded(B, bound)
    else:
        report = check_condition(B, cond, want_witnesses=args.witnesses)
    text = f"{report.condition}: {report.verdict}"
    if report.witness:
        text += f"\n  witness: {report.witness}"
    _emit(args, report.to_dict(), text)
    return 0 if report.holds else 1


def _cmd_axioms_emit(args) -> int:
    M = _load_monoid(args.monoid)
    axset = emit_axioms(M, args.cls)
    data = axiom_set_to_dict(axset)
    if args.out:
        dump_json(data, args.out)
        print(f"wrote {len(axset.sentences)} sentences to {args.out}")
        return 0
    text = "\n".join(sentence_to_text(M, s) for s in axset.sentences)
    _emit(args, data, text)
    return 0


def _cmd_axioms_modelcheck(args) -> int:
    M = _load_monoid(args.monoid)
    B = _load_act(args.act, M)
    _guard(M.size, B.size, B.size)
    sentences = sentences_from_dict(load_json(args.sentences), M)
    failures = []
    for sent in sentences:
        ok, env = model_check(B, sent)
        if not ok:
            failures.append({"sentence": sent.name, "assignment": env})
    data = {"sentences": len(sentences), "satisfied": not failures,
            "failures": failures}
    if failures:
        text = "\n".join(
            f"fails {f['sentence']} at {f['assignment']}" for f in failures
        )
    else:
        text = f"all {len(sentences)} sentences hold"
    _emit(args, data, text)
    return 0 if not failures else 1


def _cmd_axioms_verify(args) -> int:
    M = _load_monoid(args.monoid)
    _guard_enumeration(M.size, args.max_size, False)
    classes = INTERPOLATION_CLASSES if args.cls == "all" else (args.cls,)
    reports = verify_axiomatisations(M, classes, args.max_size)
    text = "\n".join(
        f"class {report.class_id} over {report.monoid}: "
        f"{report.acts_checked} acts checked, "
        + ("equivalence holds" if report.ok else
           f"{len(report.divergences)} divergences")
        for report in reports
    )
    data = [r.to_dict() for r in reports]
    _emit(args, data if args.cls == "all" else data[0], text)
    return 0 if all(r.ok for r in reports) else 1


def _cmd_replace_compute(args) -> int:
    M = _load_monoid(args.monoid)
    s = M.index(args.s)
    t = M.index(args.t) if args.t is not None else s
    rset = replacement_skeletons(M, s, t, args.cls)
    data = {
        "class": rset.class_id,
        "s": M.label(rset.s),
        "t": M.label(rset.t),
        "trigger": list(rset.trigger.labels(M)),
        "skeletons": [list(sk.labels(M)) for sk in rset.skeletons],
    }
    text = [f"trigger {data['trigger']}"]
    text += [f"  replacement {sk}" for sk in data["skeletons"]]
    if not rset.skeletons:
        text.append("  (empty replacement set: underlying structure is empty)")
    _emit(args, data, "\n".join(text))
    return 0


def _cmd_replace_verify(args) -> int:
    M = _load_monoid(args.monoid)
    B = _load_act(args.act, M)
    _guard(M.size, B.size, B.size)
    cid = args.cls.upper()
    if args.t is not None and args.s is None:
        raise ActalabError("replace verify: --t needs --s")
    if args.s is not None:
        s = M.index(args.s)
        t = M.index(args.t) if args.t is not None else s
        pairs = [(s, t)]
    else:
        pairs = INTERPOLATION_CLASSES[cid].params(M)
    reports = verify_replacements(B, pairs, cid)
    lines = [
        f"({rep.s},{rep.t}): {rep.status}, {len(rep.instances)} instances"
        for rep in reports
    ]
    data = {"class": cid, "reports": [rep.to_dict() for rep in reports]}
    _emit(args, data, "\n".join(lines))
    # every pair shares the class verdict: 2 when the act is outside the class
    return 0 if reports[0].ok else 2


def _cmd_zoo_build(args) -> int:
    params = {}
    if args.family == "semilattice_of_groups":
        params["n1"] = args.g1
        params["n0"] = args.g0
    else:
        if args.n is None:
            raise ActalabError("--n is required for this family")
        params["n"] = args.n
    # validation checks associativity on |S|^3 triples
    _check_estimate("|S|^3", zoo.family_size(args.family, **params) ** 3)
    M = zoo.build(args.family, **params)
    data = monoid_to_dict(M)
    if args.out:
        dump_json(data, args.out)
        print(f"wrote {M.name} ({M.size} elements) to {args.out}")
    else:
        print(dump_json(data))
    return 0


def _cmd_zoo_report(args) -> int:
    lo, _, hi = args.range.partition("..")
    try:
        values = range(int(lo), int(hi) + 1)
    except ValueError:
        values = range(0)
    if not values:
        raise ActalabError(f"--range must look like '2..4', got {args.range!r}")
    # the generator search scans about n^4 steps per member; the sum of n^4 up
    # to x is x(x+1)(2x+1)(3x^2+3x-1)/30, so no range is walked
    lo, hi = (x * (x + 1) * (2 * x + 1) * (3 * x * x + 3 * x - 1) // 30
              for x in (max(values[0] - 1, 0), max(values[-1], 0)))
    _check_estimate("sum(n^4)", hi - lo)
    values = list(values)
    report = zoo.family_report(args.family, values)
    lines = [f"{report.family} over n = {values}"]
    for row in report.rows:
        c = row["generator_counts"]
        lines.append(
            f"  n={row['param']}: pair={tuple(row['pair'])} "
            f"|gen R|={c['R']} |gen r|={c['r']} |gen cap|={c['cap']}"
        )
    lines.append(f"  monotonicity: {report.monotonicity}")
    _emit(args, report.to_dict(), "\n".join(lines))
    return 0


def _cmd_zoo_families(args) -> int:
    data = {"families": list(zoo.FAMILIES), "excluded": zoo.EXCLUSIONS}
    lines = ["families:"] + [f"  {f}" for f in zoo.FAMILIES]
    lines.append("excluded:")
    for name, why in zoo.EXCLUSIONS.items():
        lines.append(f"  {name}: {why}")
    _emit(args, data, "\n".join(lines))
    return 0


def _cmd_enumerate(args) -> int:
    import json as _json

    M = _load_monoid(args.monoid)
    _guard_enumeration(M.size, args.max_size, args.distinct)
    count = 0
    stream = enumerate_acts(M, args.side, args.max_size, distinct=args.distinct)
    if args.limit is not None:
        if args.limit < 0:
            raise ActalabError(f"--limit must be at least 0, got {args.limit}")
        stream = islice(stream, args.limit)
    for act in stream:
        data = act_to_dict(act)
        print(dump_json(data) if args.json else _json.dumps(data))
        count += 1
    print(f"# {count} acts", file=sys.stderr)
    return 0


def build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The parser of every verb, or of `verb` alone when it names one."""
    p = argparse.ArgumentParser(
        prog="actalab",
        description="finite monoids, acts, tensor products and their conditions",
    )
    sub = p.add_subparsers(dest="verb", required=True)

    def add(name, text):  # None for a verb that is not built
        return sub.add_parser(name, help=text) if verb in (None, name) else None

    def add_json(sp):
        sp.add_argument("--json", action="store_true", help="machine output")

    if sp := add("monoid", "validate a monoid file"):
        v = sp.add_subparsers(dest="action", required=True).add_parser("validate")
        v.add_argument("file")
        add_json(v)
        v.set_defaults(func=_cmd_monoid_validate)

    if sp := add("act", "validate an act file"):
        v = sp.add_subparsers(dest="action", required=True).add_parser("validate")
        v.add_argument("file")
        v.add_argument("--monoid", required=True)
        add_json(v)
        v.set_defaults(func=_cmd_act_validate)

    if v := add("tensor", "compute a tensor product"):
        v.add_argument("--monoid", required=True)
        v.add_argument("--right-act", required=True)
        v.add_argument("--left-act", required=True)
        add_json(v)
        v.set_defaults(func=_cmd_tensor)

    if v := add("tossing", "connect two pairs by a tossing"):
        v.add_argument("--monoid", required=True)
        v.add_argument("--right-act", required=True)
        v.add_argument("--left-act", required=True)
        v.add_argument("--from", dest="src", required=True, metavar="A,B")
        v.add_argument("--to", dest="dst", required=True, metavar="A,B")
        add_json(v)
        v.set_defaults(func=_cmd_tossing)

    if v := add("check", "decide a condition on an act"):
        v.add_argument("--condition", required=True,
                       choices=[c.lower() for c in CONDITION_IDS] + ["pwf", "wf", "flat"])
        v.add_argument("--act", required=True)
        v.add_argument("--monoid", required=True)
        v.add_argument("--flat-bound", type=int)
        v.add_argument("--witnesses", action="store_true")
        add_json(v)
        v.set_defaults(func=_cmd_check)

    if sp := add("axioms", "emit, model-check or verify sentence sets"):
        axsub = sp.add_subparsers(dest="action", required=True)
        v = axsub.add_parser("emit")
        v.add_argument("--class", dest="cls", required=True,
                       choices=[c.lower() for c in INTERPOLATION_CLASSES])
        v.add_argument("--monoid", required=True)
        v.add_argument("-o", "--out")
        add_json(v)
        v.set_defaults(func=_cmd_axioms_emit)
        v = axsub.add_parser("modelcheck")
        v.add_argument("--act", required=True)
        v.add_argument("--monoid", required=True)
        v.add_argument("--sentences", required=True)
        add_json(v)
        v.set_defaults(func=_cmd_axioms_modelcheck)
        v = axsub.add_parser("verify")
        v.add_argument("--class", dest="cls", required=True,
                       choices=[c.lower() for c in INTERPOLATION_CLASSES] + ["all"])
        v.add_argument("--monoid", required=True)
        v.add_argument("--max-size", type=int, required=True)
        add_json(v)
        v.set_defaults(func=_cmd_axioms_verify)

    if sp := add("replace", "replacement skeleton sets"):
        rsub = sp.add_subparsers(dest="action", required=True)
        v = rsub.add_parser("compute")
        v.add_argument("--class", dest="cls", required=True,
                       choices=[c.lower() for c in INTERPOLATION_CLASSES])
        v.add_argument("--monoid", required=True)
        v.add_argument("--s", required=True)
        v.add_argument("--t")
        add_json(v)
        v.set_defaults(func=_cmd_replace_compute)
        v = rsub.add_parser("verify")
        v.add_argument("--class", dest="cls", required=True,
                       choices=[c.lower() for c in INTERPOLATION_CLASSES])
        v.add_argument("--monoid", required=True)
        v.add_argument("--act", required=True)
        v.add_argument("--s")
        v.add_argument("--t")
        add_json(v)
        v.set_defaults(func=_cmd_replace_verify)

    if sp := add("zoo", "build example monoids and growth reports"):
        zsub = sp.add_subparsers(dest="action", required=True)
        v = zsub.add_parser("build")
        v.add_argument("--family", required=True, choices=zoo.FAMILIES)
        v.add_argument("--n", type=int)
        v.add_argument("--g1", type=int, default=2)
        v.add_argument("--g0", type=int, default=2)
        v.add_argument("-o", "--out")
        v.set_defaults(func=_cmd_zoo_build)
        v = zsub.add_parser("report")
        v.add_argument("--family", required=True, choices=zoo.FAMILIES)
        v.add_argument("--range", required=True, metavar="LO..HI")
        add_json(v)
        v.set_defaults(func=_cmd_zoo_report)
        v = zsub.add_parser("families")
        add_json(v)
        v.set_defaults(func=_cmd_zoo_families)

    if v := add("enumerate", "stream every act up to a size"):
        v.add_argument("--monoid", required=True)
        v.add_argument("--side", required=True, choices=["left", "right"])
        v.add_argument("--max-size", type=int, required=True)
        v.add_argument("--distinct", action="store_true",
                       help="emit one act per isomorphism class")
        v.add_argument("--limit", type=int)
        add_json(v)
        v.set_defaults(func=_cmd_enumerate)
    return p if sub.choices else build_parser()


def run_command(argv) -> int:
    try:
        args, extra = build_parser(argv[0] if argv else None).parse_known_args(argv)
        if extra:  # a top-level error, printed with the full tree's usage
            build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ActalabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
