import csv
import json
import os
import subprocess
import sys

import pytest

import freecycle
from freecycle import counting, half_pairing_from_json, parse_word
from freecycle.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.rstrip("\n"), out.err


def test_reduce(capsys):
    code, out, _ = run(capsys, "reduce", "AbBABa", "--gens", "2")
    assert (code, out) == (0, "AABa")


def test_reduce_to_identity_prints_one(capsys):
    code, out, _ = run(capsys, "reduce", "aA", "--gens", "1")
    assert (code, out) == (0, "1")


def test_cyclic_reduce_json(capsys):
    code, out, _ = run(capsys, "cyclic-reduce", "AbBABa", "--gens", "2", "--json")
    data = json.loads(out)
    assert code == 0 and data["reduced"] == "AB" and data["k"] == 2


def test_good_rotations(capsys):
    code, out, _ = run(capsys, "good-rotations", "aaaAA", "--gens", "1")
    assert (code, out) == (0, "k=1 rotations=[0]")


def test_profile(capsys):
    code, out, _ = run(capsys, "profile", "aaAbbBAA", "--gens", "2")
    assert code == 0
    assert out.splitlines()[0] == "k=2 period_start=3"


def test_profile_refuses_oversized_horizon(capsys):
    code, out, err = run(capsys, "profile", "a" * 5001 + "A" * 5000, "--gens", "1")
    assert (code, out) == (2, "") and "exceeds the limit" in err


def test_decompose(capsys):
    code, out, _ = run(capsys, "decompose", "aaAbbBAA", "--gens", "2")
    assert (code, out) == (0, "prefix=aa core=Ab suffix=bBAA")


def test_pairing_text_and_json(capsys):
    code, out, _ = run(capsys, "pairing", "AbBABa", "--gens", "2")
    assert code == 0
    assert out.splitlines() == ["k=2 standard_reduction=BA", "1-6", "2-5", "|3", "|4"]
    code, out, _ = run(capsys, "pairing", "AbBABa", "--gens", "2", "--json")
    data = json.loads(out)
    p = half_pairing_from_json(data)
    assert sorted(p.singletons) == [3, 4]
    # the reported word round-trips through the parser
    assert parse_word(data["word"], 2).letters == (-1, 2, -2, -1, -2, 1)


def test_dots_encode_decode(capsys):
    code, out, _ = run(capsys, "dots", "aaaAA", "--gens", "1")
    assert (code, out) == (0, "WBBWW")
    code, out, _ = run(capsys, "dots", "--decode", "WBBWW")
    assert code == 0 and out.splitlines() == ["2-5", "3-4", "|1"]


def test_dots_requires_input(capsys):
    code, _, err = run(capsys, "dots")
    assert code == 2 and "decode" in err


def test_enumerate_pairings(capsys):
    code, out, _ = run(capsys, "enumerate-pairings", "--len", "4", "--through", "2")
    lines = out.splitlines()
    assert code == 0 and lines[0] == "count=4" and len(lines) == 5


def test_count(capsys):
    code, out, _ = run(capsys, "count", "--len", "6", "--through", "2", "--gens", "2")
    assert (code, out) == (0, "135")


def test_kesten(capsys):
    code, out, _ = run(capsys, "kesten", "--len", "4", "--gens", "2")
    assert (code, out) == (0, "28")


def test_census_text_json_csv(capsys, tmp_path, monkeypatch):
    code, out, _ = run(capsys, "census", "--len", "3", "--gens", "1")
    assert code == 0
    assert out.splitlines()[-1] == "total=8 classes=4"

    # an empty cache, so that --jobs 2 runs its worker processes
    monkeypatch.setattr(counting, "_CENSUS_CACHE", {})
    for extra in (["--jobs", "2"], []):
        code, out, _ = run(capsys, "census", "--len", "4", "--gens", "2", *extra, "--json")
        data = json.loads(out)
        assert code == 0
        assert data["counts"][""] == 28
        assert data["counts"]["ab"] == 12

    path = tmp_path / "census.csv"
    code, _, _ = run(capsys, "census", "--len", "4", "--gens", "2", "--csv", str(path))
    assert code == 0
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["reduction", "length", "count"]
    assert ["", "0", "28"] in rows


def test_census_budget_exceeded(capsys):
    code, _, err = run(capsys, "census", "--len", "30", "--gens", "2", "--budget", "1000")
    assert code == 2 and "budget" in err


def test_verify_xtoq(capsys):
    code, out, _ = run(capsys, "verify-xtoq", "--len", "4", "--gens", "2")
    assert code == 0 and out.endswith("PASS")


def test_poly(capsys):
    code, out, _ = run(capsys, "poly", "--len", "3", "--gens", "2")
    assert (code, out) == (0, "x^3 - 9x")
    code, out, _ = run(capsys, "poly", "--len", "2", "--gens", "1", "--basis", "recurrence")
    assert (code, out) == (0, "x^2")
    code, out, _ = run(capsys, "poly", "--len", "2", "--gens", "2", "--json")
    assert json.loads(out)["coefficients"] == [-4, 0, 1]


def test_verify_poly(capsys):
    code, out, _ = run(capsys, "verify-poly", "--len", "2", "--gens", "1")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "triangle: PASS"
    assert lines[1] == "recurrence: Q_n + (2)*identity"


def test_rmt_small_run(capsys, tmp_path):
    path = tmp_path / "rmt.csv"
    code, out, _ = run(
        capsys, "rmt", "--gens", "2", "--size", "20", "--trials", "40",
        "--max-power", "3", "--seed", "5", "--k-max", "2", "--csv", str(path),
    )
    assert code == 0
    assert out.splitlines()[0] == "seed=5"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["table", "i", "j", "value", "se", "z"]
    assert sum(1 for r in rows if r[0] == "moment") == 3
    assert sum(1 for r in rows if r[0] == "basis") == 4


def test_rmt_seed_echoed_when_drawn(capsys):
    code, out, _ = run(
        capsys, "rmt", "--gens", "1", "--size", "8", "--trials", "10",
        "--max-power", "2", "--k-max", "0", "--json",
    )
    assert code == 0
    assert isinstance(json.loads(out)["seed"], int)


def test_usage_errors(capsys):
    code, _, err = run(capsys, "reduce", "c", "--gens", "2")
    assert code == 2 and "generator 3 exceeds" in err
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["reduce"])  # missing word and --gens
    assert exc.value.code == 2


def test_reduce_rejects_json_boolean(capsys):
    code, out, err = run(capsys, "reduce", "[true, 2]", "--gens", "2", "--json")
    assert (code, out) == (2, "") and "malformed" in err


def test_closed_stdout_leaves_no_traceback():
    # 3003 lines overflow the pipe buffer, so the write after close must fail
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(freecycle.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "freecycle.cli", "enumerate-pairings", "--len", "14", "--through", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"count=3003\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 141
    with proc.stderr:
        err = proc.stderr.read().decode()
    assert "Traceback" not in err and "Exception ignored" not in err
