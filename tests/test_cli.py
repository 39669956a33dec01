import csv
import json
import os
import subprocess
import sys

import pytest

import freecycle
from freecycle import half_pairing_from_json, parse_word
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


def test_empty_word_prints_one_for_large_alphabet(capsys):
    code, out, _ = run(capsys, "reduce", "[1,-1]", "--gens", "27")
    assert (code, out) == (0, "1")
    code, out, _ = run(capsys, "reduce", "[1,-1]", "--gens", "27", "--json")
    assert code == 0 and json.loads(out)["reduced"] == ""


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


@pytest.fixture
def int_digits_640():
    # the least limit Python allows on converting an integer to text
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize(
    "command, function, args, printable, refused",
    [
        # count(1190, 2, 2) has 640 digits and count(1192, 2, 2) 642
        (["count", "--through", "2"], "reduction_class_size", (2, 2), 1190, 1192),
        # kesten(1192, 2) has 640 digits and kesten(1196, 2) 642; kesten(1194, 2), with
        # 641, is above the lower bound's reach and fails only when printed
        (["kesten"], "kesten_moment", (2,), 1192, 1196),
    ],
    ids=["count", "kesten"],
)
def test_unprintable_answer_refused_before_computing(
    capsys, monkeypatch, int_digits_640, command, function, args, printable, refused
):
    import freecycle.counting

    code, out, _ = run(capsys, *command, "--len", str(printable), "--gens", "2")
    assert code == 0 and len(out) == 640
    with pytest.raises(ValueError, match="limit"):
        str(getattr(freecycle.counting, function)(refused, *args))

    def refuse(*args):
        raise AssertionError("computed an answer too long to print")

    monkeypatch.setattr(freecycle.counting, function, refuse)
    code, out, err = run(capsys, *command, "--len", str(refused), "--gens", "2", "--json")
    assert (code, out) == (2, "") and "more than 640 digits" in err


def test_census_text_json_csv(capsys, tmp_path):
    code, out, _ = run(capsys, "census", "--len", "3", "--gens", "1")
    assert code == 0
    assert out.splitlines()[-1] == "total=8 classes=4"

    code, out, _ = run(capsys, "census", "--len", "4", "--gens", "2", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["counts"][""] == 28
    assert data["counts"]["ab"] == 12

    # above 26 generators the keys are JSON arrays and the identity class is ""
    for n, gens, identity, other in (
        ("4", "2", "28", ["ab", "2", "12"]),
        ("2", "27", "54", ["[1, 2]", "2", "1"]),
    ):
        path = tmp_path / f"census{gens}.csv"
        code, _, _ = run(capsys, "census", "--len", n, "--gens", gens, "--csv", str(path))
        assert code == 0
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["reduction", "length", "count"]
        assert ["", "0", identity] in rows and other in rows


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


@pytest.mark.parametrize("basis", ["triangle", "recurrence"])
def test_poly_alphabet_below_one_rejected(capsys, basis):
    for gens in ("-3", "0"):
        code, out, err = run(capsys, "poly", "--len", "4", "--gens", gens, "--basis", basis)
        assert (code, out, err) == (2, "", "error: need alphabet_size >= 1\n")


@pytest.mark.parametrize("basis", ["triangle", "recurrence"])
def test_poly_degree_over_the_limit_rejected(capsys, basis):
    code, out, err = run(capsys, "poly", "--len", "6000", "--gens", "2", "--basis", basis)
    assert (code, out, err) == (2, "", "error: degree 6000 exceeds the limit of 1000\n")


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


@pytest.mark.parametrize(
    "command",
    [["census", "--len", "2", "--gens", "1"],
     ["rmt", "--gens", "1", "--size", "4", "--trials", "3", "--max-power", "2", "--seed", "1"]],
)
def test_unwritable_csv_is_a_usage_error(capsys, tmp_path, command):
    for path in (tmp_path / "missing" / "x.csv", tmp_path):
        code, out, err = run(capsys, *command, "--csv", str(path))
        assert (code, out) == (2, "") and err.startswith("error: ")
        assert "Traceback" not in err


def test_rmt_unwritable_csv_fails_before_sampling(capsys, monkeypatch, tmp_path):
    import freecycle.rmt

    def refuse(cfg):
        raise AssertionError("sampled before the --csv file was opened")

    monkeypatch.setattr(freecycle.rmt, "sample_traces", refuse)
    code, out, err = run(
        capsys, "rmt", "--gens", "2", "--size", "100", "--trials", "200", "--seed", "1",
        "--csv", str(tmp_path / "missing" / "x.csv"),
    )
    assert (code, out) == (2, "") and err.startswith("error: ")


def test_rmt_too_few_trials_leave_csv_unchanged(capsys, tmp_path):
    # two trials give moments but no jackknife for the diagonalization check
    path = tmp_path / "old.csv"
    path.write_text("kept\n")
    code, out, err = run(
        capsys, "rmt", "--gens", "2", "--size", "20", "--trials", "2", "--seed", "1",
        "--csv", str(path),
    )
    assert (code, out) == (2, "") and err.startswith("error: need --trials >= 3")
    assert path.read_text() == "kept\n"
    code, _, _ = run(
        capsys, "rmt", "--gens", "2", "--size", "20", "--trials", "2", "--seed", "1",
        "--k-max", "0",
    )
    assert code == 0


@pytest.mark.parametrize("power", ["2000", "100000"])
def test_rmt_power_beyond_float_range_refused_before_sampling(capsys, monkeypatch, tmp_path, power):
    import freecycle.rmt

    def refuse(cfg):
        raise AssertionError("sampled a power whose traces overflow a float")

    monkeypatch.setattr(freecycle.rmt, "sample_traces", refuse)
    path = tmp_path / "old.csv"
    path.write_text("kept\n")
    code, out, err = run(
        capsys, "rmt", "--gens", "2", "--size", "20", "--trials", "3", "--max-power", power,
        "--k-max", "0", "--seed", "1", "--csv", str(path),
    )
    assert (code, out) == (2, "") and err.startswith("error: need") and err.count("\n") == 1
    assert "float range" in err and path.read_text() == "kept\n"


@pytest.mark.parametrize(
    "power, k_max, message",
    [("509", "0", "need m (2N)^max_power"), ("250", "250", "need k_max <= 111"),
     ("150", "150", "need k_max <= 111")],
)
def test_rmt_squares_beyond_float_range_refused_before_sampling(
    capsys, monkeypatch, power, k_max, message
):
    # each of these ran and passed its checks on standard errors and z scores of inf or nan
    import freecycle.rmt

    def refuse(cfg):
        raise AssertionError("sampled traces whose squares overflow a float")

    monkeypatch.setattr(freecycle.rmt, "sample_traces", refuse)
    code, out, err = run(
        capsys, "rmt", "--gens", "2", "--size", "20", "--trials", "3", "--max-power", power,
        "--k-max", k_max, "--seed", "1",
    )
    assert (code, out) == (2, "") and err.startswith(f"error: {message}")
    assert err.count("\n") == 1 and "float range" in err


def test_rmt_seed_echoed_when_drawn(capsys):
    code, out, _ = run(
        capsys, "rmt", "--gens", "1", "--size", "8", "--trials", "10",
        "--max-power", "2", "--k-max", "0", "--json",
    )
    assert code == 0
    assert isinstance(json.loads(out)["seed"], int)


@pytest.mark.parametrize(
    "option, value",
    [("--k-max", "-3"), ("--k-max", "3"), ("--z-threshold", "nan"), ("--z-threshold", "-1"),
     ("--z-threshold", "inf")],
)
def test_rmt_rejects_malformed_settings(capsys, option, value):
    code, out, err = run(
        capsys, "rmt", "--gens", "1", "--size", "4", "--trials", "3", "--max-power", "2",
        "--seed", "1", option, value,
    )
    assert (code, out) == (2, "") and err.startswith("error: need")


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


PROFILE_VALUES = [
    1, 2, 1, 2, 3, 2, 3, 4, 3, 2, 3, 4, 5, 4, 5, 6, 5, 4, 5, 6, 7, 6, 7, 8, 7, 6, 7, 8, 9, 8, 9, 10,
    9, 8, 9, 10, 11, 10, 11, 12, 11, 10, 11, 12, 13, 12, 13, 14, 13, 12, 13, 14, 15, 14, 15, 16, 15,
    14, 15, 16, 17, 16, 17, 18, 17, 16, 17, 18, 19, 18, 19, 20, 19, 18, 19, 20, 21, 20, 21, 22, 21,
    20, 21, 22, 23, 22, 23, 24, 23, 22, 23, 24, 25, 24, 25, 26,
]


def _orient(*outs, n):
    return {str(i): "out" if i in outs else "in" for i in range(1, n + 1)}


# (command, exit code, text stdout, JSON payload): every subcommand but rmt.
PINNED = [
    ("reduce AbBABa --gens 2", 0, "AABa",
     {"word": "AbBABa", "reduced": "AABa", "letters": [-1, -1, -2, 1], "length": 4}),
    ("cyclic-reduce AbBABa --gens 2", 0, "AB",
     {"word": "AbBABa", "reduced": "AB", "letters": [-1, -2], "k": 2}),
    ("good-rotations aaaAA --gens 1", 0, "k=1 rotations=[0]",
     {"word": "aaaAA", "k": 1, "rotations": [0]}),
    ("profile aaAbbBAA --gens 2", 0,
     "k=2 period_start=3\nvalues=" + ",".join(map(str, PROFILE_VALUES)),
     {"word": "aaAbbBAA", "k": 2, "period_start": 3, "values": PROFILE_VALUES}),
    ("decompose aaAbbBAA --gens 2", 0, "prefix=aa core=Ab suffix=bBAA",
     {"word": "aaAbbBAA", "prefix": "aa", "core": "Ab", "suffix": "bBAA"}),
    ("pairing AbBABa --gens 2", 0, "k=2 standard_reduction=BA\n1-6\n2-5\n|3\n|4",
     {"word": "AbBABa", "k": 2, "standard_reduction": "BA", "n": 6, "pairs": [[1, 6], [2, 5]],
      "singletons": [3, 4], "orientations": _orient(3, 4, 5, 6, n=6)}),
    ("dots aaaAA --gens 1", 0, "WBBWW", {"word": "aaaAA", "colors": "WBBWW"}),
    ("dots --decode WBBWW", 0, "2-5\n3-4\n|1",
     {"n": 5, "pairs": [[2, 5], [3, 4]], "singletons": [1], "orientations": _orient(1, 2, 3, n=5)}),
    ("enumerate-pairings --len 4 --through 2", 0,
     "count=4\n1-2, |3, |4\n2-3, |1, |4\n3-4, |1, |2\n1-4, |2, |3",
     {"n": 4, "through": 2, "count": 4, "pairings": [
         {"n": 4, "pairs": [[1, 2]], "singletons": [3, 4], "orientations": _orient(1, 3, 4, n=4)},
         {"n": 4, "pairs": [[2, 3]], "singletons": [1, 4], "orientations": _orient(1, 2, 4, n=4)},
         {"n": 4, "pairs": [[3, 4]], "singletons": [1, 2], "orientations": _orient(1, 2, 3, n=4)},
         {"n": 4, "pairs": [[1, 4]], "singletons": [2, 3], "orientations": _orient(2, 3, 4, n=4)},
     ]}),
    ("count --len 6 --through 2 --gens 2", 0, "135", {"n": 6, "k": 2, "gens": 2, "count": 135}),
    ("kesten --len 4 --gens 2", 0, "28", {"n": 4, "gens": 2, "moment": 28}),
    ("census --len 2 --gens 1", 0, "1 2\nAA 1\naa 1\ntotal=4 classes=3",
     {"alphabet_size": 1, "length": 2, "counts": {"": 2, "AA": 1, "aa": 1}}),
    ("verify-xtoq --len 3 --gens 1", 0, "n=3 gens=1 total=8 PASS",
     {"length": 3, "alphabet_size": 1, "ok": True, "total": 8, "violations": []}),
    ("poly --len 3 --gens 2", 0, "x^3 - 9x",
     {"n": 3, "gens": 2, "basis": "triangle", "coefficients": [0, -9, 0, 1], "text": "x^3 - 9x"}),
    ("verify-poly --len 2 --gens 1", 0, "triangle: PASS\nrecurrence: Q_n + (2)*identity",
     {"length": 2, "alphabet_size": 1, "triangle_exact": True, "recurrence_residual": 2,
      "ok": True, "violations": []}),
]


@pytest.mark.parametrize("command, code, text, payload", PINNED, ids=[p[0] for p in PINNED])
def test_pinned_output(capsys, command, code, text, payload):
    argv = command.split()
    assert main(argv) == code
    assert capsys.readouterr().out == text + "\n"
    assert main(argv + ["--json"]) == code
    assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"


def test_rmt_pinned_lines_and_keys(capsys):
    # rmt's floats move with the BLAS thread count; its fixed lines and keys do not
    argv = "rmt --gens 2 --size 12 --trials 25 --max-power 3 --seed 9 --k-max 2".split()
    code, out, _ = run(capsys, *argv)
    lines = out.splitlines()
    assert code == 0 and lines[:2] == ["seed=9", "m=12 gens=2 trials=25"]
    assert lines[5] == "diagonalizing basis: x, x^2 - 4"
    code, out, _ = run(capsys, *argv, "--json")
    data = json.loads(out)
    assert code == 0 and list(data) == ["seed", "config", "moments", "diagonalization"]
    assert data["seed"] == 9
    assert list(data["config"]) == ["matrix_size", "alphabet_size", "trials", "max_power", "z_threshold"]
    assert [list(m) for m in data["moments"]] == [["p", "estimate", "se", "kesten", "z"]] * 3
    assert list(data["diagonalization"]) == ["k_max", "z_threshold", "polynomials", "basis", "monomial"]
    tables = ["covariance", "standard_error", "z"]
    assert list(data["diagonalization"]["basis"]) == [*tables, "offdiag_ok"]
    assert list(data["diagonalization"]["monomial"]) == [*tables, "has_large_offdiag"]


def test_import_leaves_numpy_unloaded():
    # Only the Monte Carlo harness needs numpy; `rmt` loads it on first use.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(freecycle.__file__)))
    code = "import sys, freecycle, freecycle.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, check=True)
    assert proc.stdout == b"False\n"
