import json

import pytest

from rsinv.cli import run
from rsinv.enumeration import involutions
from rsinv.permutations import format_permutation


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


def test_f_rejects_non_involution(capsys):
    assert run(["f", "231"]) == 2
    _, err = out_of(capsys)
    assert "error" in err


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
    monkeypatch.setenv("RSINV_MAX_N", "4")
    assert run(["check", "1 2 3 4 5", "--prop", "gfk-tight"]) == 2
    _, err = out_of(capsys)
    assert "capped" in err
    for bad in ("abc", "-3"):
        monkeypatch.setenv("RSINV_MAX_N", bad)
        assert run(["check", "123", "--prop", "gfk-tight"]) == 2
        out, err = out_of(capsys)
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: RSINV_MAX_N") and repr(bad) in err
    monkeypatch.delenv("RSINV_MAX_N")
    assert run(["check", "1 2 3 4 5", "--prop", "gfk-tight"]) == 0
    capsys.readouterr()


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


def test_check_transposed_layer_needs_involution(capsys):
    assert run(["check", "231", "--prop", "transposed-layer"]) == 2


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


def test_verify_suite(capsys):
    assert run(["verify", "--suite", "counting", "--max-n", "5"]) == 0
    out, _ = out_of(capsys)
    lines = out.splitlines()
    assert all("PASS" in line for line in lines)
    assert any(line.startswith("counting/formula-vs-scan:") for line in lines)
    assert "instances" in lines[0]
    assert lines[-1].startswith("counting: PASS")


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
