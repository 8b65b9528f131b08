import argparse
import json

import pytest

import actalab as al
from actalab import zoo
from actalab.cli import build_parser, run_command
from actalab.serialize import act_to_dict, dump_json, monoid_to_dict


@pytest.fixture()
def z2_file(tmp_path, z2):
    path = tmp_path / "z2.json"
    dump_json(monoid_to_dict(z2), path)
    return str(path)


@pytest.fixture()
def z2_acts(tmp_path, z2):
    left = tmp_path / "s_left.json"
    right = tmp_path / "s_right.json"
    dump_json(act_to_dict(al.regular_act(z2, "left")), left)
    dump_json(act_to_dict(al.regular_act(z2, "right")), right)
    return str(left), str(right)


@pytest.fixture()
def null2_pwp_failure(tmp_path, null2):
    """Files of null2 and of its first left act that fails (PWP), and that act."""
    mfile, afile = tmp_path / "null2.json", tmp_path / "bad_act.json"
    dump_json(monoid_to_dict(null2), mfile)
    bad = next(
        B for B in al.enumerate_acts(null2, "left", 3) if not al.check_condition(B, "PWP").holds
    )
    dump_json(act_to_dict(bad), afile)
    return str(mfile), str(afile), bad


def test_monoid_validate_ok(z2_file, capsys):
    assert run_command(["monoid", "validate", z2_file]) == 0
    assert "valid monoid" in capsys.readouterr().out


def test_monoid_validate_bad_table(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "name": "bad",
                "elements": ["1", "a", "b"],
                "identity": "1",
                "table": [["1", "a", "b"], ["a", "a", "1"], ["b", "b", "b"]],
            }
        )
    )
    assert run_command(["monoid", "validate", str(bad)]) == 2
    assert "associativity" in capsys.readouterr().err


def test_act_validate(z2_file, z2_acts, capsys):
    left, _ = z2_acts
    assert run_command(["act", "validate", left, "--monoid", z2_file]) == 0


def test_check_condition_exit_codes(z2_file, z2_acts, null2_pwp_failure, capsys):
    left, _ = z2_acts
    for cond in ("w", "pwf", "wf"):
        assert run_command(
            ["check", "--condition", cond, "--act", left, "--monoid", z2_file]
        ) == 0
        assert capsys.readouterr().out == f"{cond.upper()}: holds\n"
    null_file, act_file, bad_act = null2_pwp_failure
    code = run_command(
        [
            "check", "--condition", "pwp", "--act", act_file,
            "--monoid", null_file, "--json",
        ]
    )
    assert code == 1
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "fails" and "witness" in out
    # PWF and WF fail on this act too, with the deciders' own witnesses
    for cond, report in (("pwf", al.check_pwf(bad_act)), ("wf", al.check_wf(bad_act))):
        argv = ["check", "--condition", cond, "--act", act_file, "--monoid", null_file]
        assert run_command(argv + ["--json"]) == 1
        assert json.loads(capsys.readouterr().out) == report.to_dict()
        assert run_command(argv) == 1
        assert capsys.readouterr().out.startswith(f"{report.condition}: fails\n  witness: ")


def test_flat_bound_only_with_flat(z2_file, z2_acts, null2_pwp_failure, capsys):
    """--flat-bound with any condition but flat is refused before a file is
    read, and flat without it searches to length 2."""
    null_file, act_file, bad_act = null2_pwp_failure
    base = ["--act", act_file, "--monoid", null_file]
    for cond in ("pwf", "wf", "p", "tf", "sf"):
        for bound in ("3", "2"):
            argv = ["check", "--condition", cond, "--flat-bound", bound] + base
            assert run_command(argv) == 2
            assert capsys.readouterr() == (
                "", "error: check: --flat-bound applies only to --condition flat\n")
    argv = ["check", "--condition", "pwf", "--flat-bound", "3", "--act", "missing.json",
            "--monoid", "missing.json"]
    assert run_command(argv) == 2
    assert "--flat-bound applies only" in capsys.readouterr().err
    flat = ["check", "--condition", "flat", "--json"] + base
    code = run_command(flat)
    out = capsys.readouterr().out
    assert code == 1 and json.loads(out) == al.check_flat_bounded(bad_act, 2).to_dict()
    assert run_command(flat + ["--flat-bound", "2"]) == code
    assert capsys.readouterr().out == out
    argv = ["check", "--condition", "flat", "--act", z2_acts[0], "--monoid", z2_file, "--json"]
    assert run_command(argv) == 0
    assert json.loads(capsys.readouterr().out)["details"] == {"m_max": 2, "skeletons": 20}


def test_tossing_command(z2_file, z2_acts, capsys):
    left, right = z2_acts
    code = run_command(
        [
            "tossing", "--monoid", z2_file, "--right-act", right,
            "--left-act", left, "--from", "g,1", "--to", "1,g", "--json",
        ]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["connected"] and data["tossing"]["from"] == ["g", "1"]
    # 1 ⊗ 1 and 1 ⊗ g differ in S ⊗ S ≅ S: no tossing, exit 1
    argv = ["tossing", "--monoid", z2_file, "--right-act", right,
            "--left-act", left, "--from", "1,1", "--to", "1,g"]
    assert run_command(argv) == 1
    assert capsys.readouterr().out == "(1,1) and (1,g) are not tensor-equal\n"
    assert run_command(argv + ["--json"]) == 1
    assert json.loads(capsys.readouterr().out) == {"connected": False}
    # a pair without its comma is refused before any search
    assert run_command(argv[:-4] + ["--from", "g", "--to", "1,g"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: pair 'g' must be 'aLabel,bLabel'\n"


def test_tensor_command(z2_file, z2_acts, capsys):
    left, right = z2_acts
    code = run_command(
        [
            "tensor", "--monoid", z2_file, "--right-act", right,
            "--left-act", left, "--json",
        ]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["n_classes"] == 2


def test_axioms_emit_and_modelcheck(z2_file, z2_acts, tmp_path, capsys):
    left, _ = z2_acts
    out = tmp_path / "sigma.json"
    assert run_command(
        ["axioms", "emit", "--class", "w", "--monoid", z2_file, "-o", str(out)]
    ) == 0
    assert run_command(
        [
            "axioms", "modelcheck", "--act", left, "--monoid", z2_file,
            "--sentences", str(out),
        ]
    ) == 0
    data = json.loads(out.read_text())
    data["sentences"][0]["equation"]["rhs"]["var"] = "q"
    out.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_command(
        [
            "axioms", "modelcheck", "--act", left, "--monoid", z2_file,
            "--sentences", str(out),
        ]
    ) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unbound variable 'q'" in captured.err

    # a missing or mistyped key, or an unknown kind, is a diagnostic naming
    # the key and the sentence, not a traceback and not a silent implication
    def drop(*path):
        def edit(sentences):
            node = sentences
            for step in path[:-1]:
                node = node[step]
            del node[path[-1]]
        return edit

    def set_kind(sentences):
        sentences[-1]["kind"] = "implicaton"

    def set_word(sentences):
        sentences[0]["equation"]["lhs"]["word"] = 5

    def set_forall(sentences):
        sentences[-1]["forall"] = [["x"]]

    def set_conjunction(sentences):
        sentences[-1]["consequent"][0] = 5

    def set_sentence(sentences):
        sentences[0] = "x"

    cases = [
        (drop(0, "kind"), "'kind'", "'unit'"),
        (drop(0, "equation"), "'equation'", "'unit'"),
        (drop(0, "equation", "lhs"), "'lhs'", "'unit'"),
        (drop(0, "equation", "rhs", "word"), "'word'", "'unit'"),
        (drop(0, "equation", "lhs", "var"), "'var'", "'unit'"),
        (drop(-1, "antecedent"), "'antecedent'", "'W[g,g]'"),
        (drop(-1, "exists"), "'exists'", "'W[g,g]'"),
        (drop(-1, "consequent"), "'consequent'", "'W[g,g]'"),
        (drop(-1, "consequent", 0, 1, "rhs", "var"), "'var'", "'W[g,g]'"),
        (set_kind, "'implicaton'", "'W[g,g]'"),
        (set_word, "'word'", "'unit'"),
        (set_forall, "'forall'", "'W[g,g]'"),
        (set_conjunction, "conjunction", "'W[g,g]'"),
        (set_sentence, "object", "a sentence"),
    ]
    pristine = json.loads(out.read_text())
    pristine["sentences"][0]["equation"]["rhs"]["var"] = "x"
    for edit, key, name in cases:
        data = json.loads(json.dumps(pristine))
        edit(data["sentences"])
        out.write_text(json.dumps(data))
        assert run_command(
            [
                "axioms", "modelcheck", "--act", left, "--monoid", z2_file,
                "--sentences", str(out),
            ]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert key in captured.err and name in captured.err, captured.err


def test_axioms_modelcheck_lists_failures(null2_pwp_failure, tmp_path, capsys):
    mfile, afile, _ = null2_pwp_failure
    sfile = str(tmp_path / "pwp.json")
    assert run_command(["axioms", "emit", "--class", "pwp", "--monoid", mfile, "-o", sfile]) == 0
    capsys.readouterr()
    argv = ["axioms", "modelcheck", "--act", afile, "--monoid", mfile, "--sentences", sfile]
    assert run_command(argv) == 1
    assert capsys.readouterr().out == "fails PWP[x1] at {'x': 'a0', \"x'\": 'a1'}\n"
    assert run_command(argv + ["--json"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "sentences": 13,
        "satisfied": False,
        "failures": [{"sentence": "PWP[x1]", "assignment": {"x": "a0", "x'": "a1"}}],
    }


def test_axioms_verify(z2_file, capsys):
    assert run_command(
        ["axioms", "verify", "--class", "pwp", "--monoid", z2_file,
         "--max-size", "3"]
    ) == 0
    capsys.readouterr()
    # --class all walks the acts once and reports each class as --class does
    argv = ["axioms", "verify", "--monoid", z2_file, "--max-size", "3"]
    assert run_command(argv + ["--class", "all"]) == 0
    text = capsys.readouterr().out.splitlines()
    assert run_command(argv + ["--class", "all", "--json"]) == 0
    every = json.loads(capsys.readouterr().out)
    singles = []
    for cls in ("p", "e", "ep", "w", "pwp"):
        assert run_command(argv + ["--class", cls]) == 0
        singles.append(capsys.readouterr().out.strip())
        assert run_command(argv + ["--class", cls, "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == every[len(singles) - 1]
    assert text == singles


def test_replace_commands(z2_file, z2_acts, z2, capsys):
    left, _ = z2_acts
    assert run_command(
        ["replace", "compute", "--class", "p", "--monoid", z2_file,
         "--s", "1", "--t", "g", "--json"]
    ) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["skeletons"]) == 1
    # r(1,g) = {u : u = g·u} is empty in a group
    assert run_command(
        ["replace", "compute", "--class", "e", "--monoid", z2_file,
         "--s", "1", "--t", "g"]
    ) == 0
    assert capsys.readouterr().out == (
        "trigger ['1', '1', 'g', '1']\n"
        "  (empty replacement set: underlying structure is empty)\n"
    )
    assert run_command(
        ["replace", "verify", "--class", "w", "--monoid", z2_file,
         "--act", left]
    ) == 0
    capsys.readouterr()
    # --s alone verifies the pair (s, s); with --t, the pair (s, t)
    assert run_command(
        ["replace", "verify", "--class", "w", "--monoid", z2_file,
         "--act", left, "--s", "g"]
    ) == 0
    assert capsys.readouterr().out == "(g,g): ok, 2 instances\n"
    assert run_command(
        ["replace", "verify", "--class", "p", "--monoid", z2_file,
         "--act", left, "--s", "1", "--t", "g", "--json"]
    ) == 0
    B = al.regular_act(z2, "left")
    assert json.loads(capsys.readouterr().out) == {
        "class": "P", "reports": [al.verify_replacement(B, 0, 1, "P").to_dict()],
    }
    assert run_command(
        ["replace", "verify", "--class", "p", "--monoid", z2_file,
         "--act", left, "--t", "g"]
    ) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--t" in captured.err


def test_zoo_build_and_report(tmp_path, capsys):
    out = tmp_path / "m.json"
    assert run_command(
        ["zoo", "build", "--family", "nat_min_adjoined", "--n", "4",
         "-o", str(out)]
    ) == 0
    capsys.readouterr()
    assert run_command(
        ["zoo", "report", "--family", "null_adjoined", "--range", "2..4",
         "--json"]
    ) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["monotonicity"]["R"] == "strictly-increasing"
    assert run_command(
        ["zoo", "report", "--family", "null_adjoined", "--range", "4..2"]
    ) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--range" in captured.err
    assert run_command(
        ["zoo", "report", "--family", "null_adjoined", "--range", "2-4"]
    ) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --range must look like '2..4', got '2-4'\n"
    assert run_command(["zoo", "build", "--family", "cyclic_group"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --n is required for this family\n"
    assert run_command(["zoo", "families"]) == 0
    text = capsys.readouterr().out.splitlines()
    assert text == ["families:"] + [f"  {f}" for f in zoo.FAMILIES] + ["excluded:"] + [
        f"  {name}: {why}" for name, why in zoo.EXCLUSIONS.items()
    ]
    assert run_command(["zoo", "families", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "families": list(zoo.FAMILIES), "excluded": zoo.EXCLUSIONS,
    }


def test_zoo_guards(monkeypatch, capsys):
    """`zoo build` estimates its |S|^3 associativity check and `zoo report`
    the sum of n^4 over its range, each before any work is done."""

    def run(argv):
        code = run_command(argv)
        return code, capsys.readouterr()

    build = ["zoo", "build", "--family", "null_adjoined", "--n", "3"]
    semilattice = ["zoo", "build", "--family", "semilattice_of_groups", "--g1", "2", "--g0", "3"]
    report = ["zoo", "report", "--family", "null_adjoined", "--range", "2..4"]
    monkeypatch.setenv("ACTALAB_MAX_CELLS", "63")
    code, captured = run(build)
    assert code == 2 and captured.out == ""
    assert "|S|^3 = 64 exceeds ACTALAB_MAX_CELLS = 63" in captured.err
    monkeypatch.setenv("ACTALAB_MAX_CELLS", "124")
    assert run(build)[0] == 0
    code, captured = run(semilattice)
    assert code == 2 and "|S|^3 = 125 exceeds" in captured.err
    monkeypatch.setenv("ACTALAB_MAX_CELLS", "352")
    code, captured = run(report)
    assert code == 2 and captured.out == ""
    assert "sum(n^4) = 353 exceeds ACTALAB_MAX_CELLS = 352" in captured.err
    monkeypatch.setenv("ACTALAB_MAX_CELLS", "353")
    assert run(report)[0] == 0
    monkeypatch.delenv("ACTALAB_MAX_CELLS")
    # a range far too long to walk is estimated in closed form
    code, captured = run(report[:-1] + ["1..1000000000"])
    big = 10**9
    expected = (6 * big**5 + 15 * big**4 + 10 * big**3 - big) // 30
    assert code == 2 and f"sum(n^4) = {expected} exceeds" in captured.err
    # members below n = 1 add nothing to the estimate, so a long range of
    # them still reaches the family's own diagnostic
    for lo in ("-2", "-100000"):
        code, captured = run(report[:-2] + [f"--range={lo}..1"])
        assert code == 2 and f"n must be an integer >= 1, got {lo}" in captured.err


def test_enumerate_jsonl(z2_file, capsys):
    assert run_command(
        ["enumerate", "--monoid", z2_file, "--side", "left",
         "--max-size", "2", "--json"]
    ) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.strip()]
    # three acts, pretty-printed JSON blocks
    assert out.count('"monoid"') == 3
    assert run_command(
        ["enumerate", "--monoid", z2_file, "--side", "left",
         "--max-size", "2", "--limit", "-1"]
    ) == 2
    assert "--limit" in capsys.readouterr().err
    # --limit N prints the first N acts of the stream
    argv = ["enumerate", "--monoid", z2_file, "--side", "left"]
    assert run_command(argv + ["--max-size", "3"]) == 0
    every = capsys.readouterr().out.splitlines(keepends=True)
    for limit in (0, 2, 7, 9):
        assert run_command(argv + ["--max-size", "3", "--limit", str(limit)]) == 0
        captured = capsys.readouterr()
        assert captured.out == "".join(every[:limit])
        assert captured.err == f"# {min(limit, 7)} acts\n"
    # a bad size is refused even when --limit 0 reads no act
    for size in ("0", "-3"):
        assert run_command(argv + ["--max-size", size, "--limit", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "max_size must be at least 1" in captured.err


def test_enumeration_guard_names_the_exponential_term(
    z2_file, trivial, tmp_path, monkeypatch, capsys
):
    # |S|^2*k^2 = 324 passes; the 9^9 row candidates do not
    for argv in (
        ["enumerate", "--monoid", z2_file, "--side", "left", "--max-size", "9"],
        ["axioms", "verify", "--class", "pwp", "--monoid", z2_file,
         "--max-size", "9"],
    ):
        assert run_command(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "(|S|-1)*k^k = 387420489 exceeds" in captured.err
    trivial_file = tmp_path / "trivial.json"
    dump_json(monoid_to_dict(trivial), trivial_file)
    monkeypatch.setenv("ACTALAB_MAX_CELLS", "1000")
    argv = ["enumerate", "--monoid", str(trivial_file), "--side", "left",
            "--max-size", "7"]
    assert run_command(argv + ["--distinct"]) == 2
    assert "k! = 5040 exceeds" in capsys.readouterr().err
    assert run_command(argv) == 0
    assert capsys.readouterr().err == "# 7 acts\n"


def test_enumerate_output_below_the_guard(z2_file, z2, capsys):
    assert run_command(
        ["enumerate", "--monoid", z2_file, "--side", "left", "--max-size", "3"]
    ) == 0
    captured = capsys.readouterr()
    acts = list(al.enumerate_acts(z2, "left", 3))
    assert captured.out == "".join(json.dumps(act_to_dict(a)) + "\n" for a in acts)
    assert captured.err == f"# {len(acts)} acts\n" == "# 7 acts\n"


def test_budget_guard(z2_file, z2_acts, monkeypatch, capsys):
    left, right = z2_acts
    monkeypatch.setenv("ACTALAB_MAX_CELLS", "10")
    code = run_command(
        ["tensor", "--monoid", z2_file, "--right-act", right,
         "--left-act", left]
    )
    assert code == 2
    assert "ACTALAB_MAX_CELLS" in capsys.readouterr().err


def test_flat_bound_guard(tmp_path, natmin3, trivial, monkeypatch, capsys):
    """The bounded flatness search's skeleton term is estimated before the
    search starts, without raising |S| to a huge power."""
    files = {}
    for M in (natmin3, trivial):
        mfile, afile = tmp_path / f"{M.size}.json", tmp_path / f"{M.size}_point.json"
        dump_json(monoid_to_dict(M), mfile)
        point = al.validate_act(M, "left", ["o"], [[0]] * M.size)
        dump_json(act_to_dict(point), afile)
        files[M.size] = ["--monoid", str(mfile), "--act", str(afile)]

    def check(size, bound):
        argv = ["check", "--condition", "flat", "--flat-bound", bound] + files[size]
        code = run_command(argv)
        return code, capsys.readouterr()

    term = "(|S|^2+...+|S|^(2m))*(m+1)*|S|^2*|B|^2"
    # 16 + 256 + ... + 16^6 = 17895696 skeletons of length <= 6 over natmin3,
    # each a quotient of 7 * 4 elements under 4 actions
    code, captured = check(4, "6")
    assert code == 2 and captured.out == ""
    assert f"{term} = 2004317952 exceeds" in captured.err
    code, captured = check(4, "7")
    assert code == 2 and f"{term} = 36650387456 exceeds" in captured.err
    code, captured = check(4, "1000000000")
    assert code == 2 and f"{term} >= " in captured.err
    code, captured = check(1, "1000000000")
    assert code == 2 and f"{term} = 1000000001000000000 exceeds" in captured.err
    assert check(1, "3")[0] == 0
    monkeypatch.setenv("ACTALAB_MAX_CELLS", "512")
    code, captured = check(4, "2")
    assert code == 2 and f"{term} = 13056 exceeds" in captured.err
    assert check(4, "1")[0] == 0
    monkeypatch.setenv("ACTALAB_MAX_CELLS", "511")
    code, captured = check(4, "1")
    assert code == 2 and f"{term} = 512 exceeds" in captured.err


@pytest.mark.parametrize("raw", ["abc", "1.5", "0", "-5"])
def test_budget_rejects_bad_values(z2_file, z2_acts, monkeypatch, capsys, raw):
    left, _ = z2_acts
    monkeypatch.setenv("ACTALAB_MAX_CELLS", raw)
    code = run_command(
        ["check", "--condition", "p", "--monoid", z2_file, "--act", left]
    )
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "ACTALAB_MAX_CELLS" in captured.err and repr(raw) in captured.err
    assert "exceeds" not in captured.err


def test_usage_error_is_exit_2():
    assert run_command(["check", "--condition", "nonsense"]) == 2


def test_reproducible_output(z2_file, capsys):
    run_command(["axioms", "emit", "--class", "p", "--monoid", z2_file, "--json"])
    first = capsys.readouterr().out
    run_command(["axioms", "emit", "--class", "p", "--monoid", z2_file, "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_round_trip_cli_artifacts(tmp_path, capsys):
    """Everything the CLI writes is accepted back by the loaders."""
    mfile = tmp_path / "m.json"
    assert run_command(
        ["zoo", "build", "--family", "semilattice_of_groups",
         "--g1", "2", "--g0", "2", "-o", str(mfile)]
    ) == 0
    assert run_command(["monoid", "validate", str(mfile)]) == 0
    sfile = tmp_path / "sigma.json"
    assert run_command(
        ["axioms", "emit", "--class", "e", "--monoid", str(mfile),
         "-o", str(sfile)]
    ) == 0
    from actalab.serialize import load_json, monoid_from_dict, sentences_from_dict

    M = monoid_from_dict(load_json(mfile))
    sentences = sentences_from_dict(load_json(sfile), M)
    assert sentences == al.emit_axioms(M, "E").sentences


def test_replace_verify_inapplicable_exits_2(null2_pwp_failure):
    mfile, afile, _ = null2_pwp_failure
    code = run_command(
        ["replace", "verify", "--class", "pwp", "--monoid", mfile, "--act", afile]
    )
    assert code == 2


def test_malformed_monoid_and_act_json_name_the_key(z2_file, z2_acts, tmp_path, capsys):
    """A mistyped monoid or act key is a diagnostic naming the key, not a
    traceback, and a list-valued name no longer passes validation."""
    left, _ = z2_acts
    with open(z2_file) as fh:
        monoid = json.load(fh)
    with open(left) as fh:
        act = json.load(fh)

    def edited(data, key, value):
        data = json.loads(json.dumps(data))
        if isinstance(key, tuple):
            data[key[0]][key[1]] = value
        else:
            data[key] = value
        return data

    monoid_cases = [
        ("elements", 5),
        (("table", 1), 1),
        ("identity", ["1"]),
        ("elements", [["1"], "g"]),
        (("table", 1), ["g", ["1"]]),
        ("name", ["x"]),
    ]
    bad = tmp_path / "bad.json"
    for key, value in monoid_cases:
        bad.write_text(json.dumps(edited(monoid, key, value)))
        assert run_command(["monoid", "validate", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        named = key[0] if isinstance(key, tuple) else key
        assert f"{named!r}" in captured.err, captured.err
    assert run_command(["check", "--condition", "p", "--act", left,
                        "--monoid", str(bad)]) == 2
    assert "'name'" in capsys.readouterr().err

    act_cases = [
        (("action", "g"), 5, "'g'"),
        (("action", "g"), [["p"], "q"], "'g'"),
        ("elements", [["1"], "g"], "'elements'"),
        ("elements", 5, "'elements'"),
        ("side", ["left"], "'side'"),
        ("monoid", ["Z2"], "'monoid'"),
        ("action", [], "'action'"),
        ("action", dict(act["action"], h=act["action"]["1"]), "'h'"),
    ]
    for key, value, named in act_cases:
        bad.write_text(json.dumps(edited(act, key, value)))
        assert run_command(["act", "validate", str(bad), "--monoid", z2_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and named in captured.err, captured.err

    # well-typed files whose labels do not fit: the message names the label
    without_g = dict(act["action"])
    del without_g["g"]
    label_cases = [
        ("monoid", edited(monoid, "identity", "e"), "identity label 'e' not among elements"),
        ("monoid", edited(monoid, ("table", 1), ["g", "h"]), "table entry 'h' is not an element"),
        ("act", edited(act, "action", without_g), "action row for 'g' missing"),
        ("act", edited(act, ("action", "g"), ["g"]), "action row for 'g' has wrong length"),
        ("act", edited(act, ("action", "g"), ["g", "h"]), "action value 'h' not in carrier"),
    ]
    for verb, data, message in label_cases:
        bad.write_text(json.dumps(data))
        argv = ["act", "validate", str(bad), "--monoid", z2_file] if verb == "act" else [
            "monoid", "validate", str(bad)]
        assert run_command(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n", captured.err


def test_malformed_json_reports_location(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"name": "x",')
    assert run_command(["monoid", "validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err
    # UTF-16 with its byte-order mark is not UTF-8: a diagnostic, no traceback
    bad.write_bytes(b"\xff\xfe{\x00}\x00")
    assert run_command(["monoid", "validate", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"{bad}: not UTF-8" in captured.err


def test_missing_file_exits_2(capsys):
    assert run_command(["monoid", "validate", "/nonexistent/m.json"]) == 2


def test_replace_verify_decides_the_class_once(tmp_path, natmin3, monkeypatch, capsys):
    """Without --s, one decider call serves all |S|^2 parameter pairs."""
    import actalab.replacement as replacement

    mfile = tmp_path / "natmin3.json"
    dump_json(monoid_to_dict(natmin3), mfile)
    B = next(
        B for B in al.enumerate_acts(natmin3, "left", 3)
        if B.size == 3 and al.check_condition(B, "P").holds
    )
    afile = tmp_path / "b.json"
    dump_json(act_to_dict(B), afile)
    argv = ["replace", "verify", "--class", "p", "--monoid", str(mfile),
            "--act", str(afile), "--json"]
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return al.check_condition(*args, **kwargs)

    monkeypatch.setattr(replacement, "check_condition", counting)
    assert run_command(argv) == 0
    assert len(calls) == 1
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert len(reports) == natmin3.size ** 2
    assert reports == [
        al.verify_replacement(B, s, t, "P").to_dict()
        for s in natmin3.elements() for t in natmin3.elements()
    ]


def _run_full_tree(argv) -> int:
    """A command parsed by every verb's parser, as `run_command` did when it
    built the whole tree for each command."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    return args.func(args)


def test_one_verb_parser_prints_as_the_full_tree(z2_file, monkeypatch, capsys):
    """`run_command` builds only the named verb's parser, yet help, usage
    errors and output match the full tree's, top-level errors included."""
    monkeypatch.setenv("COLUMNS", "80")
    (verbs,) = [a.choices for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)]
    enum = ["enumerate", "--monoid", z2_file, "--side", "left", "--max-size", "2"]
    argvs = [[], ["-h"], ["bogus"], ["bogus", "-h"], ["--json"]]
    argvs += [[verb, "-h"] for verb in verbs]
    argvs += [[verb] for verb in ("monoid", "act", "axioms", "replace", "zoo")]
    argvs += [
        ["enumerate", "--monoid", z2_file, "--side", "left"],
        ["check", "--condition", "nope", "--act", "a.json", "--monoid", z2_file],
        enum + ["--bogus"],
        ["axioms", "emit", "-h"],
        ["zoo", "families"],
        enum,
    ]
    assert len(verbs) == 9
    for argv in argvs:
        code = run_command(argv)
        got = capsys.readouterr()
        assert _run_full_tree(argv) == code, argv
        assert capsys.readouterr() == got, argv
        assert got.out or got.err, argv
