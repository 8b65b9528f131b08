"""Tests of the benchmark itself: each re-checker accepts the program's real
output and rejects a deliberately wrong one, traced runs repeat their layer
counts exactly, and the command fails cleanly without the program.

    python3 -m pytest perfbench -q
"""

import dataclasses
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import actalab as al  # noqa: E402
from actalab import cli, serialize  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402


def _monoid(family, **params):
    return workloads.load_monoid(family, params)


def _left_act(M, table):
    return al.validate_act(M, "left", [f"a{i}" for i in range(len(table[0]))], table)


def test_schema_checker_rejects_flipped_verdicts():
    M = _monoid("null_adjoined", n=2)
    e = M.element_names[M.identity]
    axsets = {c: al.emit_axioms(M, c) for c in oracles.CLASSES}
    flips = 0
    for B in al.enumerate_acts(M, "left", 3):
        result = workloads._schema_item(M, B, axsets)
        assert workloads.check_schema_item(M, B, result) == []
        for i, (cls, rep, models, replaced) in enumerate(result):
            # the schema verdict alone flipped
            wrong = list(result)
            wrong[i] = (cls, rep, not models, replaced)
            assert workloads.check_schema_item(M, B, wrong)
            if rep.holds:
                # both verdicts flipped to "fails", on the trivial instance
                # s = t = 1, a = a2 = a0, which always interpolates
                witness = {k: e if k in ("s", "s2", "t") else "a0"
                           for k in oracles.WITNESS_KEYS[cls]}
                failed = dataclasses.replace(rep, verdict="fails", witness=witness)
                wrong[i] = (cls, failed, False, ())
                errors = workloads.check_schema_item(M, B, wrong)
                assert any("is no violation" in x for x in errors)
                flips += 1
    assert flips > 0


def test_failure_witness_of_a_holding_instance_is_rejected():
    M = _monoid("null_adjoined", n=2)
    B = _left_act(M, [[0, 1], [0, 0], [0, 0]])
    report = al.check_condition(B, "P")
    assert report.verdict == "fails"
    inst = oracles.witness_instance("P", report.witness, M.element_names, B.carrier_names)
    assert oracles.instance_violated(M.mul, B.table, "P", inst)
    # s = s2 = eps, b = b2: the trivial interpolant u = u2 = eps exists
    assert not oracles.instance_violated(M.mul, B.table, "P", (0, 0, 1, 1))


def test_flatness_checker_rejects_flipped_verdicts():
    M = _monoid("null_adjoined", n=2)
    B = _left_act(M, [[0, 1], [0, 0], [0, 0]])
    result = workloads._flatness_item(B)
    assert [r.verdict for r in result] == ["fails", "fails", "fails"]
    assert workloads.check_flatness_item(B, result) == []
    pwf, wf, flat = result
    wf_held = dataclasses.replace(wf, verdict="holds", witness=None)
    assert workloads.check_flatness_item(B, (pwf, wf_held, flat))
    # a flat failure moved to an act with (P) must be refused
    C = _left_act(M, [[0, 1], [0, 1], [0, 1]])
    assert oracles.holds_p(M.mul, C.table)
    c_result = workloads._flatness_item(C)
    assert workloads.check_flatness_item(C, c_result) == []
    c_flat = dataclasses.replace(c_result[2], verdict="fails",
                                 witness={"skeleton": ["eps", "eps"], "b": "a0", "b2": "a1"})
    assert workloads.check_flatness_item(C, (c_result[0], c_result[1], c_flat))


def test_tossing_checker_rejects_one_wrong_witness():
    M = _monoid("nat_min_adjoined", n=3)
    A = next(a for a in al.enumerate_acts(M, "right", 3) if a.size == 3)
    B = next(b for b in al.enumerate_acts(M, "left", 3) if b.size == 3)
    result = workloads._tossing_item(M, A, [B], [])
    assert workloads.check_tossing_item(M, A, [], result) == []
    _, T, pairs, found = result[0][0]
    index, toss = next((i, t) for i, t in enumerate(found)
                       if t is not None and t.start != t.end)
    wits = list(toss.b_witnesses)
    wits[0] = (wits[0] + 1) % B.size
    bad = dataclasses.replace(toss, b_witnesses=tuple(wits))
    assert oracles.tossing_error(A.table, B.table, bad.skeleton.entries, bad.start,
                                 bad.end, bad.a_witnesses, bad.b_witnesses)
    wrong = list(found)
    wrong[index] = bad
    assert workloads.check_tossing_item(M, A, [], ([(B, T, pairs, wrong)], []))
    # a missing tossing for tensor-equal pairs is refused too
    wrong[index] = None
    assert workloads.check_tossing_item(M, A, [], ([(B, T, pairs, wrong)], []))


def test_morphism_checker_rejects_a_broken_map():
    M = _monoid("nat_min_adjoined", n=3)
    A = next(a for a in al.enumerate_acts(M, "right", 3) if a.size == 3)
    sk = al.Skeleton((0, 1, 2, 0))
    chain = oracles.delta_chains(A.table, sk.entries)[0]
    nu = al.induced_morphism(M, sk, A, chain)
    assert workloads.induced_errors(M, sk, A, chain, nu) == []
    for q in range(len(nu.mapping)):
        mapping = list(nu.mapping)
        mapping[q] = (mapping[q] + 1) % A.size
        broken = dataclasses.replace(nu, mapping=tuple(mapping))
        assert workloads.induced_errors(M, sk, A, chain, broken)


def test_enumeration_checker_rejects_a_repeated_class(tmp_path):
    M = _monoid("cyclic_group", n=2)
    path = tmp_path / "z2.json"
    serialize.dump_json(serialize.monoid_to_dict(M), path)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run_command(["enumerate", "--monoid", str(path), "--side", "left",
                                "--max-size", "3", "--distinct"])
    expected = workloads.iso_class_counts(M, 3)
    assert workloads.check_enumeration(M, expected, code, out.getvalue(), err.getvalue()) == []
    lines = out.getvalue().splitlines()
    act = json.loads(lines[-1])
    # the same act with its carrier labels swapped: an isomorphic copy
    swap = {"a0": "a1", "a1": "a0"}
    act["action"] = {s: [swap.get(x, x) for x in row] for s, row in act["action"].items()}
    act["action"] = {s: [row[1], row[0]] + row[2:] for s, row in act["action"].items()}
    repeated = "\n".join(lines + [json.dumps(act)]) + "\n"
    errors = workloads.check_enumeration(M, expected, code, repeated,
                                         f"# {len(lines) + 1} acts\n")
    assert any("isomorphic" in e for e in errors)


def test_canonical_form_separates_classes():
    M = _monoid("cyclic_group", n=2)
    forms = {oracles.canonical_form(B.table) for B in al.enumerate_acts(M, "left", 3)
             if B.size == 3}
    # Z2 on three points: trivial action, or one swapped pair plus a fixed point
    assert len(forms) == 2


def _traced_counts(workload):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "0.1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=170)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}


def test_traced_runs_repeat_their_counts():
    first = _traced_counts("tossing_sweep")
    assert first["tensor.tossing_queries"] > 0 and first["tensor.induced_calls"] > 0
    assert first["act.morphism_checks"] > 0 and first["conditions.decide_calls"] == 0
    assert _traced_counts("tossing_sweep") == first


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tossing_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
