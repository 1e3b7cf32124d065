"""End-to-end CLI behavior: commands, formats, exit codes, determinism."""

import json
import os

import pytest

from zdspec.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# field
# ---------------------------------------------------------------------------

def test_field_command(capsys):
    code, out, _ = run(capsys, "field", "2", "3")
    assert code == 0
    assert out == "2,3,1,1,0,1\n"
    code, out, _ = run(capsys, "field", "3", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"p": 3, "n": 2, "modulus": [1, 0, 1]}


def test_field_composite_p_is_usage_error(capsys):
    code, _, err = run(capsys, "field", "4", "2")
    assert code == 2
    assert "prime" in err


def test_field_cache_flag_and_env(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "fields.txt"
    cache.write_text("2,3,1,0,1,1\n")
    code, out, _ = run(capsys, "field", "2", "3", "--cache", str(cache))
    assert code == 0
    assert out == "2,3,1,0,1,1\n"          # cached modulus wins
    monkeypatch.setenv("ZDSPEC_CACHE", str(cache))
    code, out, _ = run(capsys, "field", "2", "3")
    assert out == "2,3,1,0,1,1\n"          # env var honored
    other = tmp_path / "other.txt"
    code, out, _ = run(capsys, "field", "2", "3", "--cache", str(other))
    assert out == "2,3,1,1,0,1\n"          # flag beats env; canonical modulus
    # and the field command persists what it computed
    assert other.read_text() == "2,3,1,1,0,1\n"


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def test_table_fbct_csv(capsys):
    code, out, _ = run(capsys, "table", "fbct", "2", "4", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 17
    assert lines[0].startswith("a\\b,")
    entries = [int(v) for line in lines[1:] for v in line.split(",")[1:]]
    assert set(entries) <= {0, 4, 16}
    assert all(v % 4 == 0 for v in entries)


def test_table_sozd_odd_characteristic(capsys):
    code, out, _ = run(capsys, "table", "sozd", "3", "2", "5")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 10
    for line in lines[2:]:
        cells = line.split(",")
        assert set(int(v) for v in cells[2:]) <= {1, 3}


def test_table_ddt_apn(capsys):
    code, out, _ = run(capsys, "table", "ddt", "2", "5", "3")
    assert code == 0
    lines = out.splitlines()
    body = [int(v) for line in lines[2:] for v in line.split(",")[1:]]
    assert max(body) == 2


def test_table_force_guard(capsys):
    # refused on output size alone: q > 4096, not the cost of the kind
    code, out, err = run(capsys, "table", "sozd", "2", "13", "3")
    assert code == 2
    assert out == ""
    assert "67108864 entries" in err and "16777216" in err and "--force" in err
    code, out, _ = run(capsys, "table", "sozd", "2", "11", "3")
    assert code == 0
    assert len(out.splitlines()) == 2049


def test_table_fbct_odd_char_is_error(capsys):
    code, _, err = run(capsys, "table", "fbct", "3", "2", "5")
    assert code == 2
    assert "characteristic 2" in err


def test_table_explicit_modulus(capsys):
    code, out, _ = run(capsys, "table", "fbct", "2", "3", "3",
                       "--modulus", "1,0,1,1")
    assert code == 0
    code2, _, err = run(capsys, "table", "fbct", "2", "3", "3",
                        "--modulus", "1,1,1,1")
    assert code2 == 2
    assert "reducible" in err


@pytest.mark.parametrize("argv", [["table", "fbct", "2", "3", "3"],
                                  ["verify", "3.1", "2", "3"]])
def test_malformed_modulus_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--modulus", "1,x,1,1")
    assert code == 2
    assert out == ""
    assert "malformed modulus" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_json_and_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "3.1", "2", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["uniformity"] == 4
    assert payload["mismatches"] == []
    assert payload["passed"] is True

    code, out, _ = run(capsys, "verify", "4.2", "3", "3")
    assert code == 0
    assert json.loads(out)["uniformity"] == 3

    code, _, err = run(capsys, "verify", "4.1", "2", "6")
    assert code == 2
    assert "odd characteristic" in err


def test_verify_csv_summary(capsys):
    code, out, _ = run(capsys, "verify", "4.1", "7", "1", "--format", "csv")
    assert code == 0
    header, row = out.splitlines()
    record = dict(zip(header.split(","), row.split(",")))
    assert record["theorem"] == "4.1"
    assert record["uniformity"] == "3"
    assert record["mismatch_count"] == "0"
    assert record["mode"] == "full"


def test_verify_sample_flag(capsys):
    code, out, _ = run(capsys, "verify", "3.2", "2", "10",
                       "--sample", "400", "--seed", "11")
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "sampled"
    assert payload["pairs_checked"] == 400
    assert payload["seed"] == 11


def test_verify_force_guard(capsys):
    # verify has no guard: all of GF(2^11) runs in full mode, and --force
    # is not an option of verify
    code, out, _ = run(capsys, "verify", "3.1", "2", "11")
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "full"
    assert payload["pairs_checked"] == 2048 ** 2
    code, out, err = run(capsys, "verify", "3.1", "2", "6", "--force")
    assert code == 2
    assert out == ""
    assert "--force" in err


def test_usage_error_exit_code(capsys):
    assert main(["table", "nosuch", "2", "4", "3"]) == 2
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()
    for size in ("-5", "0"):
        assert main(["verify", "3.1", "2", "6", "--sample", size]) == 2
        assert "sample size" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# survey
# ---------------------------------------------------------------------------

def test_survey_matching_rows(capsys):
    code, out, _ = run(capsys, "survey", "--rows",
                       "inv-n6,cube-p7n2,p3inv-n3,quartic-p5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("key,")
    assert len(lines) == 5
    assert all(",match," in line for line in lines[1:])


def test_survey_reports_known_mismatch(capsys):
    code, out, _ = run(capsys, "survey", "--rows", "inv-n5", "--format", "json")
    assert code == 1
    rows = json.loads(out)
    assert rows[0]["status"] == "mismatch"
    assert rows[0]["observed"] == 0
    assert "divisible by 4" in rows[0]["note"]


def test_survey_scale_skip(capsys):
    code, out, _ = run(capsys, "survey", "--rows", "bl-k3")
    assert code == 0
    assert "skipped: scale" in out


def test_survey_unknown_key(capsys):
    code, _, err = run(capsys, "survey", "--rows", "nope")
    assert code == 2
    assert "unknown survey row" in err


def test_survey_list(capsys, tmp_path):
    code, out, _ = run(capsys, "survey", "--list")
    assert code == 0
    assert "inv-n6" in out.split()
    path = tmp_path / "keys.txt"
    code, printed, _ = run(capsys, "survey", "--list", "--out", str(path))
    assert code == 0
    assert printed == ""
    assert path.read_text() == out


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_outputs_are_byte_identical_across_runs(tmp_path, capsys):
    pairs = [
        (["verify", "3.1", "2", "5"], "v1.json"),
        (["verify", "3.2", "2", "10", "--sample", "300", "--seed", "5"], "v2.json"),
        (["table", "fbct", "2", "4", "3"], "t1.csv"),
        (["table", "sozd", "3", "2", "5", "--format", "json"], "t2.json"),
        (["survey", "--rows", "inv-n6,x7p3-n2"], "s1.csv"),
        (["field", "2", "6"], "f1.csv"),
    ]
    for argv, name in pairs:
        a = tmp_path / ("a_" + name)
        b = tmp_path / ("b_" + name)
        main(argv + ["--out", str(a)])
        main(argv + ["--out", str(b)])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes(), argv


def test_table_threads_do_not_change_bytes(tmp_path, capsys):
    a = tmp_path / "one.csv"
    b = tmp_path / "four.csv"
    main(["table", "sozd", "2", "4", "7", "--threads", "1", "--out", str(a)])
    main(["table", "sozd", "2", "4", "7", "--threads", "4", "--out", str(b)])
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
