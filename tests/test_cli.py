import argparse
import inspect
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import replace

import pytest

import rsinv
from rsinv import cli, greene, insertion, verify
from rsinv.cli import run
from rsinv.enumeration import involutions, layered_from_composition
from rsinv.errors import DomainError
from rsinv.permutations import decreasing, format_permutation
from rsinv.tableaux import tableau_to_json


def out_of(capsys):
    captured = capsys.readouterr()
    return captured.out, captured.err


def test_rsk_plain(capsys):
    assert run(["rsk", "2 1 5 4 3 9 8 7 6"]) == 0
    out, _ = out_of(capsys)
    assert out == "P:\n1 3 6\n2 4 7\n5 8\n9\nQ:\n1 3 6\n2 4 7\n5 8\n9\n"


def test_rsk_json(capsys):
    assert run(["rsk", "215439876", "--json"]) == 0
    out, _ = out_of(capsys)
    assert out == (
        '{"P":{"rows":[[1,3,6],[2,4,7],[5,8],[9]]},'
        '"Q":{"rows":[[1,3,6],[2,4,7],[5,8],[9]]}}\n'
    )
    assert json.loads(out)["P"]["rows"][0] == [1, 3, 6]


def test_unrsk(tmp_path, capsys):
    p_file = tmp_path / "p.json"
    q_file = tmp_path / "q.json"
    p_file.write_text('{"rows":[[1,2,5,9],[3,4,8],[6,7]]}')
    q_file.write_text('{"rows":[[1,2,5,9],[3,4,8],[6,7]]}')
    assert run(["unrsk", "--p", str(p_file), "--q", str(q_file)]) == 0
    out, _ = out_of(capsys)
    assert out == "6 7 3 4 8 1 2 5 9\n"


def test_unrsk_missing_file(tmp_path, capsys):
    assert run(["unrsk", "--p", str(tmp_path / "nope.json"), "--q", str(tmp_path / "nope.json")]) == 2


def refused(capsys, argv):
    """Run argv and return its one error line; nothing may reach stdout."""
    assert run(argv) == 2, argv
    out, err = out_of(capsys)
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (out, err)
    return err


def test_unrsk_refuses_boolean_entries(tmp_path, capsys):
    # JSON true loads as bool, which is an int to isinstance
    path = tmp_path / "t.json"
    path.write_text('{"rows":[[true,2]]}')
    refused(capsys, ["unrsk", "--p", str(path), "--q", str(path)])


def test_unrsk_refuses_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_bytes(b"\xff")
    err = refused(capsys, ["unrsk", "--p", str(path), "--q", str(path)])
    assert "UTF-8" in err


def test_unrsk_shape_mismatch(tmp_path, capsys):
    p_file = tmp_path / "p.json"
    q_file = tmp_path / "q.json"
    p_file.write_text('{"rows":[[1,2]]}')
    q_file.write_text('{"rows":[[1],[2]]}')
    assert run(["unrsk", "--p", str(p_file), "--q", str(q_file)]) == 2


def test_f_default(capsys):
    assert run(["f", "215439876"]) == 0
    out, _ = out_of(capsys)
    assert out == "6 7 3 4 8 1 2 5 9\n"


def test_f_methods_agree(capsys):
    assert run(["f", "6574213", "--method", "all"]) == 0
    out, _ = out_of(capsys)
    assert out == "1 3 2 4 5 7 6\n"
    assert run(["f", "321", "--method", "shortcut"]) == 0
    out, _ = out_of(capsys)
    assert out == "1 2 3\n"
    assert run(["f", "673481259", "--method", "direct"]) == 0
    out, _ = out_of(capsys)
    assert out == "2 1 5 4 3 9 8 7 6\n"


def test_f_method_all_on_all_involutions_up_to_8(capsys):
    for n in range(9):
        for p in involutions(n):
            assert run(["f", format_permutation(p), "--method", "all"]) == 0, p
    capsys.readouterr()


def test_f_method_all_inserts_each_involution_once(capsys, monkeypatch):
    # f inserts q once: one bump per 2-cycle of q, plus one per 2-cycle of
    # q# when it takes the evacuation route.  The GFK-tightness precondition
    # of direct-gfk then inserts the short side, each entry once, up to its
    # row count: q itself for all three, as 3 jogs <= a longest of 4,
    # 2 <= 29 and 2 <= 30.  The general rsk is never called.
    bumped = []

    def bump(rows, tail, x):
        bumped.append(x)
        return real_bump(rows, tail, x)

    def general_rsk(p):
        raise AssertionError(f"general rsk called on {p}")

    real_bump = insertion._bump
    monkeypatch.setattr(insertion, "_bump", bump)
    monkeypatch.setattr(insertion, "rsk", general_rsk)
    wide = (2, 1, *range(3, 31))  # T of shape (29, 1): T^T is nearly all tail, so the peel
    square = (*range(31, 61), *range(1, 31))  # T of shape (30, 30), q# = q: evacuation
    for q, image, inserted in [
        (
            (6, 7, 3, 4, 8, 1, 2, 5, 9),
            (2, 1, 5, 4, 3, 9, 8, 7, 6),
            [1, 2, 5, 6, 7, 3, 4, 8, 1, 2, 5, 9],
        ),
        (wide, (1, *range(30, 1, -1)), [1, *wide]),
        (square, (*range(30, 0, -1), *range(60, 30, -1)), [*range(1, 31), *range(1, 31), *square]),
    ]:
        bumped.clear()
        assert run(["f", format_permutation(q), "--method", "all"]) == 0
        assert out_of(capsys) == (format_permutation(image) + "\n", "")
        assert bumped == inserted, q


def test_f_method_all_reports_a_disagreement(capsys, monkeypatch):
    # 3 2 1 is a GFK-tight, 123-avoiding involution whose reverse is one
    # too, so all four constructions apply; one is made to answer wrongly
    monkeypatch.setitem(cli.F_METHODS["shortcut"], "shortcut", lambda p: p)
    assert run(["f", "3 2 1", "--method", "all"]) == 1
    assert out_of(capsys) == (
        "direct-123: 1 2 3\ndirect-gfk: 1 2 3\nrsk: 1 2 3\nshortcut: 3 2 1\n",
        "error: methods disagree\n",
    )


def test_f_rejects_non_involution(capsys):
    assert run(["f", "231"]) == 2
    _, err = out_of(capsys)
    assert "error" in err
    # under "all" the refusal is the definition's, whatever else refuses
    for command in ("f", "tableau"):
        assert run([command, "231", "--method", "all"]) == 2
        assert out_of(capsys) == ("", "error: not an involution: (2, 3, 1)\n")


def test_f_direct_inapplicable(capsys):
    # 1324 is an involution but neither GFK-tight nor 123-avoiding
    assert run(["f", "1 3 2 4", "--method", "direct"]) == 2


def test_tableau_subcommand(capsys):
    assert run(["tableau", "1325467"]) == 0
    out, _ = out_of(capsys)
    assert out == "1 2 4 6 7\n3 5\n"
    assert run(["tableau", "1325467", "--method", "all", "--json"]) == 0
    out, _ = out_of(capsys)
    assert out == '{"rows":[[1,2,4,6,7],[3,5]]}\n'
    assert run(["tableau", "1325467", "--method", "direct", "--json"]) == 0
    out, _ = out_of(capsys)
    assert out == '{"rows":[[1,2,4,6,7],[3,5]]}\n'


def test_tableau_direct_needs_321_avoidance(capsys):
    assert run(["tableau", "321", "--method", "direct"]) == 2
    assert run(["tableau", "321", "--method", "all"]) == 0  # falls back to insertion
    capsys.readouterr()


def test_oracle_cap_env(monkeypatch, capsys):
    monkeypatch.setattr(greene, "ORACLE_CAP", 6)
    assert run(["verify", "--suite", "greene"]) == 1
    out, err = out_of(capsys)
    assert err == ""
    assert out.splitlines() == [
        "greene/shape-prefix-sums: FAIL (874 instances)",
        "  shape-prefix-sums stops at (1, 2, 3, 4, 5, 6, 7): subset oracle capped at n <= 6, got 7",
        "greene/profile-monotone: FAIL (874 instances)",
        "  profile-monotone stops at (1, 2, 3, 4, 5, 6, 7): subset oracle capped at n <= 6, got 7",
        "greene/jog-lower-bound: FAIL (874 instances)",
        "  jog-lower-bound stops at (1, 2, 3, 4, 5, 6, 7): subset oracle capped at n <= 6, got 7",
        "greene/record-breaker-column: PASS (5914 instances)",
        "greene: FAIL (8536 instances)",
    ]
    monkeypatch.setattr(greene, "ORACLE_CAP", 4)
    monkeypatch.setattr(verify, "BRUTE_COUNT_CAP", 4)
    # the row's cap is the scan's, read when the row is built
    scan, *rest = verify.SUITES["counting"]
    capped = replace(scan, family=replace(scan.family, last=verify.BRUTE_COUNT_CAP))
    monkeypatch.setitem(verify.SUITES, "counting", [capped, *rest])
    assert run(["verify", "--suite", "counting", "--max-n", "6"]) == 1
    out, _ = out_of(capsys)
    lines = out.splitlines()
    # formula-vs-scan clamps its sizes to the cap that the scan enforces
    assert "counting/formula-vs-scan: PASS (4 instances)" in lines
    assert "  pairs-distinct stops at n=5: subset oracle capped at n <= 4, got 5" in lines
    assert "counting/composition-total: PASS (6 instances)" in lines
    # the answering paths do not read the cap
    assert run(["check", "1 2 3 4 5", "--prop", "gfk-tight"]) == 0
    capsys.readouterr()
    monkeypatch.undo()
    assert run(["verify", "--suite", "counting", "--max-n", "6"]) == 0
    capsys.readouterr()


def test_rsinv_max_n_has_no_effect(monkeypatch, capsys):
    # 4 is below the sizes walked, so a cap that read the variable would
    # change the output
    monkeypatch.delenv("RSINV_MAX_N", raising=False)
    assert run(["verify", "--suite", "greene", "--max-n", "6"]) == 0
    unset = out_of(capsys)
    for value in ("4", "abc"):
        monkeypatch.setenv("RSINV_MAX_N", value)
        assert run(["verify", "--suite", "greene", "--max-n", "6"]) == 0
        assert out_of(capsys) == unset, value


def test_tightness_and_direct_past_the_oracle_cap(capsys):
    layered = format_permutation(layered_from_composition((120, 1, 60, 119)))
    assert run(["check", layered, "--prop", "dually-gfk-tight"]) == 0
    assert run(["check", layered, "--prop", "gfk-tight"]) == 1
    out, _ = out_of(capsys)
    assert out == "true\nfalse\n"
    word = format_permutation(decreasing(300))
    assert run(["f", word, "--method", "direct"]) == 0
    direct, _ = out_of(capsys)
    assert run(["f", word, "--method", "rsk"]) == 0
    by_insertion, _ = out_of(capsys)
    assert direct == by_insertion == format_permutation(range(1, 301)) + "\n"


def first_line_then_close(*argv):
    """Run the CLI in a child, read one line of stdout, close the pipe;
    return (line, exit code, stderr)."""
    # the child imports rsinv from where this process found it
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rsinv.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "rsinv.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        code = proc.wait(timeout=60)
        err = proc.stderr.read()
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    return first, code, err


def test_broken_pipe_exits_141_quietly():
    first, code, err = first_line_then_close("enumerate", "--family", "layered", "--n", "30")
    assert first == (" ".join(map(str, range(1, 31))) + "\n").encode()
    assert code == 141 and err == b""


@pytest.mark.parametrize("family", ["layered", "involutions", "layered-tableaux", "generalized"])
def test_enumerate_past_the_recursion_limit(family):
    # n = 1200 is deeper than Python's default recursion limit of 1000, and
    # far too large to hold every layered tableau; each family starts with
    # the identity, whose tableau is a single row
    line, code, err = first_line_then_close("enumerate", "--family", family, "--n", "1200")
    identity = tuple(range(1, 1201))
    if family == "layered-tableaux":
        assert line == (tableau_to_json((identity,)) + "\n").encode()
    else:
        assert line == (format_permutation(identity) + "\n").encode()
    assert code == 141 and err == b""


def test_check_properties(capsys):
    cases = [
        (["check", "123", "--prop", "layered"], 0, "true"),
        (["check", "231", "--prop", "layered"], 1, "false"),
        (["check", "21543", "--prop", "involution"], 0, "true"),
        (["check", "1423", "--prop", "gfk-tight"], 0, "true"),
        (["check", "1342", "--prop", "gfk-tight"], 1, "false"),
        (["check", "215439876", "--prop", "dually-gfk-tight"], 0, "true"),
        (["check", "673481259", "--prop", "transposed-layer"], 0, "true"),
        (["check", "6574213", "--prop", "avoids:123"], 0, "true"),
        (["check", "6574213", "--prop", "avoids:321"], 1, "false"),
    ]
    for argv, code, text in cases:
        assert run(argv) == code, argv
        out, _ = out_of(capsys)
        assert out == text + "\n", argv


def test_check_avoids_past_the_pattern_scan_budget(capsys):
    word = format_permutation(decreasing(400))
    assert run(["check", word, "--prop", "avoids:1234"]) == 0
    assert run(["check", word, "--prop", "avoids:4321"]) == 1
    out, _ = out_of(capsys)
    assert out == "true\nfalse\n"
    assert run(["check", word, "--prop", "avoids:2143"]) == 2
    out, err = out_of(capsys)
    assert out == "" and err.startswith("error: pattern scan capped at")


def test_internal_error_exits_3_without_a_traceback(capsys, monkeypatch):
    def broken(p):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.PROPS, "layered", broken)
    assert run(["check", "123", "--prop", "layered"]) == 3
    out, err = out_of(capsys)
    assert out == ""
    assert err == "internal error: RuntimeError: boom\n"


def test_check_transposed_layer_needs_involution(capsys):
    assert run(["check", "231", "--prop", "transposed-layer"]) == 2


def test_non_ascii_digits_are_refused(capsys):
    # "²".isdigit() is true, but int("²") raises
    refused(capsys, ["f", "²"])
    refused(capsys, ["check", "1 2", "--prop", "avoids:²"])


def test_check_unknown_prop(capsys):
    assert run(["check", "123", "--prop", "mystery"]) == 2


def test_enumerate_layered(capsys):
    assert run(["enumerate", "--family", "layered", "--n", "3"]) == 0
    out, _ = out_of(capsys)
    assert out == "1 2 3\n1 3 2\n2 1 3\n3 2 1\n"


def test_enumerate_tableaux(capsys):
    assert run(["enumerate", "--family", "layered-tableaux", "--n", "2"]) == 0
    out, _ = out_of(capsys)
    assert out == '{"rows":[[1,2]]}\n{"rows":[[1],[2]]}\n'


def test_enumerate_generalized(capsys):
    assert run(["enumerate", "--family", "generalized", "--n", "3"]) == 0
    out, _ = out_of(capsys)
    assert len(out.splitlines()) == 6


def test_enumerate_negative_n(capsys):
    assert run(["enumerate", "--family", "layered", "--n", "-1"]) == 2


@pytest.mark.parametrize("family", sorted(cli.FAMILIES))
def test_enumerate_past_sys_maxsize(family, capsys, monkeypatch):
    called = []
    generate, show = cli.FAMILIES[family]
    monkeypatch.setitem(cli.FAMILIES, family, (lambda n: called.append(n) or (), show))
    assert run(["enumerate", "--family", family, "--n", str(sys.maxsize)]) == 0
    assert called == [sys.maxsize]
    # one past it, the size is refused before the family is generated
    err = refused(capsys, ["enumerate", "--family", family, "--n", str(sys.maxsize + 1)])
    assert called == [sys.maxsize] and str(sys.maxsize) in err
    monkeypatch.setitem(cli.FAMILIES, family, (generate, show))
    refused(capsys, ["enumerate", "--family", family, "--n", str(10**20)])


def test_count(capsys):
    assert run(["count", "--what", "A", "--n", "3"]) == 0
    out, _ = out_of(capsys)
    assert out == "6\n"
    assert run(["count", "--what", "layered", "--n", "10"]) == 0
    out, _ = out_of(capsys)
    assert out == "512\n"
    assert run(["count", "--what", "involutions", "--n", "8"]) == 0
    out, _ = out_of(capsys)
    assert out == "764\n"


def test_count_A_past_its_step_bound_is_refused_at_once(capsys):
    # n^3 / 6 steps of the dynamic programme would take minutes here
    start = time.perf_counter()
    assert run(["count", "--what", "A", "--n", "1000"]) == 2
    assert time.perf_counter() - start < 1
    out, err = out_of(capsys)
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: ") and "COUNT_A_STEP_BOUND" in err


@pytest.mark.parametrize("what", ["A", "layered", "involutions"])
def test_count_past_the_int_to_str_limit(what, capsys, monkeypatch):
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter prints integers of any length")
    digits = sys.get_int_max_str_digits()
    if digits == 0:
        pytest.skip("the int-to-str limit is switched off")
    message = f"count --what {what} at n={{}} has more than {digits} digits"
    counted = []
    monkeypatch.setitem(cli.COUNTS, what, lambda n: counted.append(n) or 10**digits)
    # every count is at least 2^(n-1), which first reaches 10^digits here;
    # the count is refused before it is computed
    first = math.ceil(digits / math.log10(2)) + 1
    assert run(["count", "--what", what, "--n", str(first)]) == 2
    out, err = out_of(capsys)
    assert out == "" and counted == []
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message.format(first) in err
    # one size below, a count too long to print is still refused once made
    assert run(["count", "--what", what, "--n", str(first - 1)]) == 2
    out, err = out_of(capsys)
    assert out == "" and counted == [first - 1]
    assert message.format(first - 1) in err


def test_verify_suite(capsys):
    assert run(["verify", "--suite", "counting", "--max-n", "5"]) == 0
    out, _ = out_of(capsys)
    lines = out.splitlines()
    assert all("PASS" in line for line in lines)
    assert any(line.startswith("counting/formula-vs-scan:") for line in lines)
    assert "instances" in lines[0]
    assert lines[-1].startswith("counting: PASS")


def test_verify_json_records(capsys, monkeypatch):
    # one record per check, in suite order, and no text report
    assert run(["verify", "--suite", "rsk", "--json"]) == 0
    out, err = out_of(capsys)
    records = [json.loads(line) for line in out.splitlines()]
    assert err == ""
    assert [r["check"] for r in records] == [check.name for check in verify.SUITES["rsk"]]
    for record, check in zip(records, verify.SUITES["rsk"]):
        assert list(record) == ["suite", "check", "max_n", "checked", "failures", "seconds"]
        assert record["suite"] == "rsk" and record["max_n"] == check.max_n
        assert type(record["checked"]) is int and record["checked"] > 0
        assert record["failures"] == []
        assert type(record["seconds"]) is float and record["seconds"] >= 0
    # --max-n is the size each record reports; a failing check exits 1
    failing = verify.Check("always-false", verify._sizes(lambda n: 1), 2, lambda n: False)
    monkeypatch.setitem(verify.SUITES, "counting", [failing])
    assert run(["verify", "--suite", "counting", "--max-n", "1", "--json"]) == 1
    out, _ = out_of(capsys)
    (record,) = map(json.loads, out.splitlines())
    assert record["max_n"] == 1 and record["checked"] == 1
    assert record["failures"] == ["always-false fails at n=1"]


def test_verify_negative_max_n(capsys):
    assert run(["verify", "--suite", "rsk", "--max-n", "-1"]) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert err == "error: n must be nonnegative, got -1\n"


def test_verify_refuses_a_run_past_the_instance_budget(capsys, monkeypatch):
    started = []
    monkeypatch.setattr(verify, "_check", lambda name, *args, **kwargs: started.append(name))
    assert run(["verify", "--suite", "rsk", "--max-n", "13"]) == 2
    out, err = out_of(capsys)
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: rsk/roundtrip walks more than 1000000 instances at max-n 13")
    # a later suite over the budget stops the earlier ones from starting
    assert run(["verify", "--suite", "all", "--max-n", "10"]) == 2
    out, err = out_of(capsys)
    assert out == "" and err.startswith("error: rsk/roundtrip walks more than")
    assert run(["verify", "--suite", "counting", "--max-n", str(10**18)]) == 2
    out, err = out_of(capsys)
    assert out == "" and err.startswith("error: counting/pairs-distinct walks more than")
    assert started == []


def test_a_check_called_past_the_budget_refuses_before_walking(monkeypatch):
    started = []
    monkeypatch.setattr(verify, "_check", lambda name, *args, **kwargs: started.append(name))
    # the message is the one the CLI's up-front refusal prints
    for label, max_n in (("rsk/roundtrip", 10), ("rsk/f-twice", 14), ("counting/pairs-distinct", 99)):
        check = verify.CHECKS[label.split("/")[1]]
        assert check.walked(max_n) > verify.INSTANCE_BUDGET
        with pytest.raises(DomainError) as refusal:
            check(max_n)
        assert str(refusal.value) == (
            f"{label} walks more than 1000000 instances at max-n {max_n}; lower --max-n"
        )
    assert started == []
    verify.CHECKS["roundtrip"](9)
    assert started == ["roundtrip"]


def test_instance_budget_bounds_every_check():
    # Each member family counts exactly what it yields.
    for family in (verify.PERMUTATIONS, verify.INVOLUTIONS, verify.LAYERED):
        for n in range(9):
            assert family.count(n) == sum(1 for _ in family.members(n)), (family, n)
    # Every check of the default battery fits the budget, and what a check
    # is said to walk bounds what it counts.
    for name, check in verify.CHECKS.items():
        default = inspect.signature(check).parameters["max_n"].default
        assert default == check.max_n and check.walked(default) <= verify.INSTANCE_BUDGET, name
        for n in range(7):
            result = check(n)
            assert result.name == name and result.ok, result
            assert result.checked <= check.walked(n), (result, n)
    checks = verify.CHECKS
    assert checks["jog-lower-bound"].walked(8) == 46234
    assert checks["direct-123"].walked(10) == 13232
    assert checks["roundtrip"].walked(9) <= verify.INSTANCE_BUDGET
    assert checks["roundtrip"].walked(10) > verify.INSTANCE_BUDGET
    # a check clamped to its own cap walks no more past it: sizes 1..8
    assert checks["formula-vs-scan"].walked(10**18) == 46233


def test_verify_rsk_small(capsys):
    assert run(["verify", "--suite", "rsk", "--max-n", "4"]) == 0
    out, _ = out_of(capsys)
    lines = out.splitlines()
    assert len(lines) == 6  # five checks plus the suite summary
    assert lines[-1].startswith("rsk: PASS")


def test_usage_errors(capsys):
    assert run([]) == 2
    assert run(["frobnicate"]) == 2
    assert run(["count", "--what", "A"]) == 2  # missing --n
    assert run(["rsk", "not a perm"]) == 2
    assert run(["rsk", "1234567891"]) == 2  # compact form too long


def test_output_determinism(capsys):
    run(["enumerate", "--family", "involutions", "--n", "4"])
    first, _ = out_of(capsys)
    run(["enumerate", "--family", "involutions", "--n", "4"])
    second, _ = out_of(capsys)
    assert first == second


def outcomes(capsys, argvs):
    """(exit code, stdout, stderr) of each argv, run in turn."""
    results = []
    for argv in argvs:
        code = run(argv)
        results.append((code, *out_of(capsys)))
    return results


def test_one_parser_per_process(capsys, monkeypatch):
    queries = [
        ["rsk", "2 1 3", "--json"],
        ["f", "6574213", "--method", "all"],
        ["tableau", "1325467", "--method", "direct"],
        ["check", "2 1 3", "--prop", "gfk-tight"],
        ["check", "1 2 3", "--prop", "avoids:12"],
        ["enumerate", "--family", "layered", "--n", "3"],
        ["count", "--what", "A", "--n", "12"],
        ["verify", "--suite", "counting", "--max-n", "3"],
        ["f", "2 1", "--method", "nope"],
        ["--help"],
    ]
    before = outcomes(capsys, queries)
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    assert outcomes(capsys, queries) == before
    assert built == []
    assert [code for code, _, _ in before] == [0, 0, 0, 0, 1, 0, 0, 0, 2, 0]


def test_a_reused_parser_leaks_no_state(capsys, monkeypatch):
    # help, an argparse error, and optional flags given then left out
    sequence = [
        ["--help"],
        ["f", "2 1", "--method", "nope"],
        ["rsk", "2 1", "--json"],
        ["rsk", "2 1"],
        ["tableau", "2 1", "--json"],
        ["tableau", "2 1"],
        ["count", "--what", "A"],
        ["f", "2 1", "--method", "direct"],
        ["f", "2 1"],
        ["rsk", "--help"],
    ]
    for argvs in (sequence, sequence[::-1]):
        reused = outcomes(capsys, argvs)
        with monkeypatch.context() as m:
            m.setattr(cli, "_parser", cli.build_parser, raising=False)
            fresh = outcomes(capsys, argvs)
        assert reused == fresh
    codes = [code for code, _, _ in reused[::-1]]
    assert codes == [0, 2, 0, 0, 0, 0, 2, 0, 0, 0]


def fuzz_argvs(seed):
    """
    A seeded table of argv lists: malformed and random words under every
    command that reads one, every --prop with odd patterns, and odd sizes
    for enumerate, count and verify --max-n (accepted ones small enough to
    answer at once).
    """
    rng = random.Random(seed)
    words = ["", " ", "1 1", "0", "１ ２", "1" * 30, "1\t2", "2\t1\t3", "1e3", "-1 1", "x", "1,2"]
    words += ["2 1 3", "21543", "1234567890", "3 2 1 0", "²", "+1", "1 2 3 4 5 6 7 8 9 10 11"]
    tokens = ["0", "-1", "1", "2", "3", "4", "5", "9", "10", "1e3", "x", "１", "1" * 30, "+2", ""]
    for _ in range(40):
        n = rng.randrange(10)
        word = rng.sample(range(1, n + 1), n)
        kind = rng.randrange(3)
        if kind == 1:  # an involution: pair off a prefix of the shuffle
            partner = dict(zip(word[: n // 2 * 2 : 2], word[1 : n // 2 * 2 : 2]))
            partner.update({b: a for a, b in partner.items()})
            word = [partner.get(i, i) for i in range(1, n + 1)]
        elif kind == 2:
            word = [rng.choice(tokens) for _ in range(n)]
        words.append(rng.choice(" \t").join(map(str, word)))
    patterns = ["", " ", "1 1", "12", "21", "x", "1" * 30, "1234567", "7654321", "123456"]
    patterns += ["1 2 3 4 5 6 7", "0", "2 1 3", "1e3", "21 3", "132"]
    props = [*cli.PROPS, *(f"avoids:{pattern}" for pattern in patterns)]
    props += ["", "mystery", "avoids", "AVOIDS:12", "layered ", "gfk-tight:1"]
    argvs = []
    for word in words:
        argvs += [["rsk", word], ["rsk", word, "--json"], ["tableau", word, "--json"]]
        argvs += [["f", word, "--method", method] for method in (*cli.F_METHODS, "all")]
        argvs += [["tableau", word, "--method", method] for method in (*cli.TABLEAU_METHODS, "all")]
        argvs += [["check", word, "--prop", rng.choice(props)]]
    for prop in props:
        argvs += [["check", rng.choice(words), "--prop", prop] for _ in range(3)]
    odd = ["-5", "-1", "x", "", "1.5", "1e3", "²", str(2**60), str(sys.maxsize), str(sys.maxsize + 1)]
    argvs += [["enumerate", "--family", family, "--n", n] for family in cli.FAMILIES for n in odd]
    argvs += [["enumerate", "--family", family, "--n", str(rng.randrange(6))] for family in cli.FAMILIES]
    counts = [*odd, "0", "1", "2", "60", "428", "600", "14285", "14286", str(10**6)]
    argvs += [["count", "--what", what, "--n", n] for what in cli.COUNTS for n in counts]
    max_ns = ["-1", "0", "1", "2", "3", "4", "x", "", "1e3", str(10**20)]
    argvs += [["verify", "--suite", suite, "--max-n", n] for suite in ("all", *verify.SUITES) for n in max_ns]
    argvs += [["verify", "--suite", "all", "--max-n", n] for n in ("5", "10", "11")]
    rng.shuffle(argvs)
    return argvs


def test_fuzzed_argv_never_hits_an_internal_error(capsys):
    # Each call exits 0, 1 or 2, says nothing of an internal error, and
    # answers within 3 s by its own timing.
    argvs = fuzz_argvs(1)
    assert len(argvs) >= 500
    bad = []
    for argv in argvs:
        start = time.perf_counter()
        code = run(argv)
        seconds = time.perf_counter() - start
        _, err = out_of(capsys)
        if code not in (0, 1, 2) or "internal error" in err or seconds >= 3:
            bad.append((argv, code, err[-200:], round(seconds, 2)))
    assert bad == []
