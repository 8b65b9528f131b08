"""Run a fixed corpus of actalab CLI invocations and print one line per run.

Usage:  python tools/cli_corpus.py

Each line holds the argv (file arguments are plain file names), the exit
code and the sha256 of what the run wrote to stdout, then to stderr.  Two
checkouts that print the same lines gave byte-identical output, help, usage
and error text on every run, so diffing this script's output before and
after a change checks that the change kept the CLI's output.  COLUMNS is
set to 80 for every run, so that argparse wraps its text the same way on
any terminal.  A run that raises instead of returning an exit code is
printed with "1" and the exception's type, as the installed `actalab`
command would exit 1 with a traceback.

The corpus covers the zoo monoids with a few of their small acts: every
`check` condition with and without --witnesses --json, flatness at
skeleton bounds 1 and 3, at bound 4 over three small natmin3 acts, and
once on a null_adjoined(2) act whose failing skeleton splits two pairs, so
that the witness rule shows, a bound with another condition, WF and PWF
on a null_adjoined(3) act that is PWF but fails (W), `tensor`,
`tossing`, `axioms emit|modelcheck|verify` (verify per class and with
--class all, and per class at carrier size 4 over natmin3 and
semilattice22), `replace compute|verify`,
`enumerate` up to carrier size 4, plain and --distinct, `zoo`, malformed
monoid and act files, and the budget guards, `zoo build` and `zoo report`
among them.  `enumerate` also runs over
null_adjoined(3), whose zero is labelled after x1 and x2, so that a row's
square lands on a later row, and `replace compute` runs once over
null_adjoined(16), one pair of a large monoid.  `axioms emit` runs for
every class over null_adjoined(6), nat_min_adjoined(5) and
semilattice_of_groups(3,2), and `zoo report` over null_adjoined(2..24):
their maximal generation classes are large, so these runs pin which
generators are chosen.  Usage runs cover the
top-level help and errors (no arguments, -h, an unknown verb), every verb
with -h, each verb with actions named without one, a missing required
option, an invalid choice and an unrecognized trailing argument.  The input files are written
to a temporary directory, which is also the working directory of the runs.
Only the standard library and the package under src/ are used; the script
takes no options and its output does not depend on the machine.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from itertools import product
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from actalab import zoo  # noqa: E402
from actalab.act import enumerate_acts, regular_act, validate_act  # noqa: E402
from actalab.cli import run_command  # noqa: E402
from actalab.serialize import act_to_dict, dump_json, monoid_to_dict  # noqa: E402

ZOO = (
    ("cyclic_group", {"n": 1}),
    ("cyclic_group", {"n": 2}),
    ("cyclic_group", {"n": 3}),
    ("inverse_omega_chain", {"n": 2}),
    ("null_adjoined", {"n": 2}),
    ("semilattice_of_groups", {"n1": 2, "n0": 2}),
    ("nat_min_adjoined", {"n": 3}),
)
CONDITIONS = ("tf", "p", "e", "ep", "w", "pwp", "sf", "pwf", "wf", "flat")
CLASSES = ("p", "e", "ep", "w", "pwp")


def run(argv, env=None):
    """Run one invocation, with `env` added to the environment, and print
    its line."""
    env = env or {}
    out, err = io.StringIO(), io.StringIO()
    try:
        with mock.patch.dict(os.environ, {"COLUMNS": "80", **env}), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = str(run_command(argv))
    except Exception as exc:  # the installed command would exit 1 here
        code = f"1 {type(exc).__name__}"
    prefix = "".join(f"{k}={v} " for k, v in env.items())
    digests = (hashlib.sha256(f.getvalue().encode("utf-8")).hexdigest() for f in (out, err))
    print(f"{prefix}{' '.join(argv)} -> {code} {' '.join(digests)}")


def every(items, count):
    """`count` items spread evenly over the list, first and last included."""
    if len(items) <= count:
        return list(items)
    return [items[i * (len(items) - 1) // (count - 1)] for i in range(count)]


def write(name, data):
    dump_json(data, name)
    return name


def corpus_for(index, M):
    mfile = write(f"m{index}.json", monoid_to_dict(M))
    lefts = [regular_act(M, "left")] + every(list(enumerate_acts(M, "left", 3)), 4)
    rights = [regular_act(M, "right")] + every(list(enumerate_acts(M, "right", 3)), 2)
    lfiles = [write(f"m{index}_left{i}.json", act_to_dict(B)) for i, B in enumerate(lefts)]
    rfiles = [write(f"m{index}_right{i}.json", act_to_dict(A)) for i, A in enumerate(rights)]

    run(["monoid", "validate", mfile])
    run(["monoid", "validate", mfile, "--json"])
    for f in lfiles + rfiles:
        run(["act", "validate", f, "--monoid", mfile, "--json"])

    for f in lfiles:
        for cond in CONDITIONS:
            base = ["check", "--condition", cond, "--act", f, "--monoid", mfile]
            run(base)
            run(base + ["--witnesses", "--json"])
        for bound in ("1", "3"):
            run(["check", "--condition", "flat", "--act", f, "--monoid", mfile,
                 "--flat-bound", bound, "--json"])

    for (A, af), (B, bf) in product(zip(rights, rfiles), zip(lefts, lfiles)):
        base = ["--monoid", mfile, "--right-act", af, "--left-act", bf]
        run(["tensor"] + base)
        run(["tensor"] + base + ["--json"])
        if A.size * B.size > 9:
            continue
        pairs = [f"{a},{b}" for a in A.carrier_names for b in B.carrier_names]
        for src, dst in product(pairs, pairs):
            run(["tossing"] + base + ["--from", src, "--to", dst])
        run(["tossing"] + base + ["--from", pairs[0], "--to", pairs[-1], "--json"])

    for cls in CLASSES:
        sfile = f"m{index}_{cls}.sentences.json"
        run(["axioms", "emit", "--class", cls, "--monoid", mfile])
        run(["axioms", "emit", "--class", cls, "--monoid", mfile, "--json"])
        run(["axioms", "emit", "--class", cls, "--monoid", mfile, "-o", sfile])
        for f in lfiles:
            run(["axioms", "modelcheck", "--act", f, "--monoid", mfile,
                 "--sentences", sfile, "--json"])
        run(["axioms", "verify", "--class", cls, "--monoid", mfile,
             "--max-size", "3", "--json"])
        for s, t in product(M.element_names, repeat=2):
            run(["replace", "compute", "--class", cls, "--monoid", mfile,
                 "--s", s, "--t", t, "--json"])
        run(["replace", "compute", "--class", cls, "--monoid", mfile,
             "--s", M.element_names[-1]])
        for f in lfiles:
            run(["replace", "verify", "--class", cls, "--monoid", mfile, "--act", f])
            run(["replace", "verify", "--class", cls, "--monoid", mfile, "--act", f,
                 "--s", M.element_names[-1], "--json"])
    run(["axioms", "verify", "--class", "all", "--monoid", mfile, "--max-size", "3"])
    run(["axioms", "verify", "--class", "all", "--monoid", mfile, "--max-size", "3",
         "--json"])

    for side in ("left", "right"):
        enumerate_runs(mfile, side)
        run(["enumerate", "--monoid", mfile, "--side", side, "--max-size", "3",
             "--limit", "4", "--json"])


def flat_witness(null2):
    """One flatness failure whose skeleton splits two gamma pairs, (a2, a0)
    and (a0, a2): the witness is the least in carrier order, (a0, a2)."""
    rows = [[0, 1, 2], [0, 1, 0], [0, 1, 0]]  # eps, x1, 0
    B = validate_act(null2, "left", ["a0", "a1", "a2"], rows)
    act = write("null2_split.json", act_to_dict(B))
    run(["check", "--condition", "flat", "--act", act, "--monoid", "m4.json",
         "--flat-bound", "2", "--json"])


def w_failure(null3):
    """An act of null_adjoined(3) that is PWF but fails (W), so that WF
    fails on (W)'s instance: ideal [x1, x2, 0], pairs [x1, a2] and
    [x2, a2]."""
    rows = [[0, 1, 2], [0, 0, 1], [0, 0, 1], [0, 0, 0]]  # eps, x1, x2, 0
    B = validate_act(zoo.build("null_adjoined", n=3), "left", ["a0", "a1", "a2"], rows)
    act = write("null3_w.json", act_to_dict(B))
    base = ["check", "--act", act, "--monoid", null3, "--condition"]
    run(base + ["wf"])
    run(base + ["wf", "--json"])
    run(base + ["pwf"])


def larger_class_tables():
    """Every class's sentences over three larger monoids, whose maximal
    generation classes are large, so that the generators' choice shows."""
    for name, family, params in (
        ("null6", "null_adjoined", {"n": 6}),
        ("natmin5", "nat_min_adjoined", {"n": 5}),
        ("semilattice32", "semilattice_of_groups", {"n1": 3, "n0": 2}),
    ):
        mfile = write(f"{name}.json", monoid_to_dict(zoo.build(family, **params)))
        for cls in CLASSES:
            run(["axioms", "emit", "--class", cls, "--monoid", mfile])
    run(["zoo", "report", "--family", "null_adjoined", "--range", "2..24"])


def enumerate_runs(mfile, side):
    for size in ("2", "3", "4"):
        base = ["enumerate", "--monoid", mfile, "--side", side, "--max-size", size]
        run(base)
        run(base + ["--distinct"])


def usage(mfile):
    """Help and usage errors, top-level and per verb."""
    verbs = ("monoid", "act", "tensor", "tossing", "check", "axioms", "replace", "zoo",
             "enumerate")
    run([])
    run(["-h"])
    run(["bogus"])
    for verb in verbs:
        run([verb, "-h"])
    for verb in ("monoid", "act", "axioms", "replace", "zoo"):
        run([verb])
    run(["axioms", "verify", "-h"])
    run(["enumerate", "--monoid", mfile, "--side", "left"])
    run(["check", "--condition", "nope", "--act", "a.json", "--monoid", mfile])
    run(["enumerate", "--monoid", mfile, "--side", "left", "--max-size", "2", "--bogus"])


def malformed(z2):
    """Monoid and act files with a mistyped key, and the budget guards."""
    good_monoid = monoid_to_dict(z2)
    good_act = act_to_dict(regular_act(z2, "left"))
    mfile = write("z2.json", good_monoid)
    afile = write("z2_left.json", good_act)
    monoid_edits = (
        ("elements", 5), ("table", [["1", "g"], 1]), ("identity", ["1"]),
        ("elements", [["1"], "g"]), ("name", ["x"]), ("name", 3),
    )
    for i, (key, value) in enumerate(monoid_edits):
        data = dict(good_monoid, **{key: value})
        bad = write(f"bad_monoid{i}.json", data)
        # the act names the edited monoid, so a mistyped name reaches `check`
        act = write(f"bad_monoid{i}_left.json", dict(good_act, monoid=data["name"]))
        run(["monoid", "validate", bad])
        run(["check", "--condition", "p", "--act", act, "--monoid", bad])
    act_edits = (
        ("action", dict(good_act["action"], g=5)),
        ("action", dict(good_act["action"], g=[["g"], "1"])),
        ("elements", [["1"], "g"]),
        ("side", ["left"]),
        ("monoid", ["cyclic_group(2)"]),
    )
    for i, (key, value) in enumerate(act_edits):
        bad = write(f"bad_act{i}.json", dict(good_act, **{key: value}))
        run(["act", "validate", bad, "--monoid", mfile])
        run(["check", "--condition", "p", "--act", bad, "--monoid", mfile])

    natmin = zoo.build("nat_min_adjoined", n=3)
    nfile = write("natmin3.json", monoid_to_dict(natmin))
    point = write("natmin3_point.json", act_to_dict(
        validate_act(natmin, "left", ["o"], [[0]] * natmin.size)))
    flat = ["check", "--condition", "flat", "--act", point, "--monoid", nfile]
    run(flat + ["--flat-bound", "2"], env={"ACTALAB_MAX_CELLS": "200"})
    run(flat + ["--flat-bound", "1"], env={"ACTALAB_MAX_CELLS": "200"})
    # skeletons of length 4, 69 904 of them, on the point and two acts of size 2
    pairs = [B for B in enumerate_acts(natmin, "left", 2) if B.size == 2]
    for i, B in enumerate(every(pairs, 2)):
        act = write(f"natmin3_pair{i}.json", act_to_dict(B))
        run(["check", "--condition", "flat", "--act", act, "--monoid", nfile,
             "--flat-bound", "4", "--json"])
    run(flat + ["--flat-bound", "4"])
    # a bound is refused with any other condition
    run(["check", "--condition", "pwf", "--act", point, "--monoid", nfile, "--flat-bound", "3"])
    run(["enumerate", "--monoid", mfile, "--side", "left", "--max-size", "9"])
    run(["tensor", "--monoid", mfile, "--right-act", afile, "--left-act", afile])
    # |S|^3 = 64 and 125 for the associativity check, 2^4 + 3^4 + 4^4 = 353
    run(["zoo", "build", "--family", "null_adjoined", "--n", "3"],
        env={"ACTALAB_MAX_CELLS": "63"})
    run(["zoo", "build", "--family", "semilattice_of_groups", "--g1", "2", "--g0", "3"],
        env={"ACTALAB_MAX_CELLS": "124"})
    run(["zoo", "report", "--family", "null_adjoined", "--range", "2..4"],
        env={"ACTALAB_MAX_CELLS": "352"})
    # members below n = 1 add nothing to the estimate
    run(["zoo", "report", "--family", "null_adjoined", "--range=-100000..1"])


def main():
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            monoids = [zoo.build(family, **params) for family, params in ZOO]
            for index, M in enumerate(monoids):
                corpus_for(index, M)
            flat_witness(monoids[4])
            null3 = write("null3.json", monoid_to_dict(zoo.build("null_adjoined", n=3)))
            for side in ("left", "right"):
                enumerate_runs(null3, side)
            w_failure(null3)
            # one pair of a 17-element monoid, whose class table is large
            null16 = write("null16.json", monoid_to_dict(zoo.build("null_adjoined", n=16)))
            run(["replace", "compute", "--class", "p", "--monoid", null16,
                 "--s", "x1", "--t", "x2", "--json"])
            for index in (5, 6):  # semilattice22 and natmin3
                for cls in CLASSES:
                    run(["axioms", "verify", "--class", cls, "--monoid", f"m{index}.json",
                         "--max-size", "4", "--json"])
            run(["zoo", "families", "--json"])
            run(["zoo", "report", "--family", "null_adjoined", "--range", "2..4", "--json"])
            run(["zoo", "build", "--family", "semilattice_of_groups", "--g1", "2", "--g0", "3"])
            larger_class_tables()
            malformed(monoids[1])
            usage("m1.json")
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    main()
