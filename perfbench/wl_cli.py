"""cli: one freecycle subcommand per subprocess, on small inputs, with --json.

A CLI command is what a shell user pays for: interpreter start, importing
freecycle.cli, parsing, the computation and the JSON.  Two operations fail on
every run today because of faults in the program; they are counted as failed
until the faults are mended:

* ``reduce '[true, 2]' --gens 2 --json`` must exit 2, because a JSON boolean is
  not a generator index; it exits 0 and prints ``"letters": [true, 2]``.
* ``enumerate-pairings --len 14 --through 2`` must end without a traceback when
  its reader closes the pipe after one line, as ``| head -1`` does; it dies with
  a BrokenPipeError traceback.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys

import bench
import checks
from checks import expect

KNOWN_FAULTS = ("reduce-bool", "enumerate-pairings-head")


def warm_up(fc) -> None:
    import freecycle.cli

    with contextlib.redirect_stdout(io.StringIO()):
        freecycle.cli.main(["reduce", "aBAb", "--gens", "2", "--json"])


def _word(rng: random.Random, n: int) -> tuple[int, ...]:
    while True:
        letters = tuple(rng.choice((1, -1, 2, -2)) for _ in range(n))
        if checks.cyclic_reduce_letters(letters):
            return letters


def _out_points(n: int, pairs, singletons) -> set[int]:
    """Singletons, and the endpoint of each chord whose clockwise stretch holds no singleton."""
    outs = set(singletons)
    for a, b in pairs:
        outs.add(b if any(a < s < b for s in singletons) else a)
    return outs


def commands(rng: random.Random) -> list[tuple[str, list[str], object]]:
    """(name, arguments, check of (exit code, stdout, stderr)) for one round, from the seed."""
    out = []

    def add(name, args, check):
        out.append((name, args, check))

    def ok_json(code, stdout):
        expect(code == 0, f"exit code {code}")
        return json.loads(stdout)

    w = _word(rng, rng.randint(20, 32))

    def reduce_check(code, stdout, stderr, w=w):
        data, red = ok_json(code, stdout), checks.reduce_letters(w)
        expect(data["reduced"] == checks.key_text(red) and data["letters"] == red and data["length"] == len(red),
               "reduce output differs from own reduction")
    add("reduce", ["reduce", checks.key_text(w), "--gens", "2", "--json"], reduce_check)

    w = _word(rng, rng.randint(20, 32))

    def cyclic_check(code, stdout, stderr, w=w):
        data, cyc = ok_json(code, stdout), list(checks.cyclic_reduce_letters(w))
        expect(data["letters"] == cyc and data["reduced"] == checks.key_text(cyc) and data["k"] == len(cyc),
               "cyclic-reduce output differs from own cyclic reduction")
    add("cyclic-reduce", ["cyclic-reduce", checks.key_text(w), "--gens", "2", "--json"], cyclic_check)

    w = _word(rng, rng.randint(20, 32))

    def rotations_check(code, stdout, stderr, w=w):
        data = ok_json(code, stdout)
        own = [r for r in range(len(w)) if checks.is_good_rotation(w, r)]
        expect(data["rotations"] == own and data["k"] == len(checks.cyclic_reduce_letters(w)),
               "good-rotations output differs from own rotation scan")
    add("good-rotations", ["good-rotations", checks.key_text(w), "--gens", "2", "--json"], rotations_check)

    w = _word(rng, rng.randint(20, 32))

    def pairing_check(code, stdout, stderr, w=w):
        data = ok_json(code, stdout)
        pairs, singles = checks.admissible_pairing(w)
        expect({tuple(p) for p in data["pairs"]} == pairs and set(data["singletons"]) == singles,
               "pairing differs from own admissible pairing")
        through = [w[i - 1] for i in sorted(singles)]
        expect(data["standard_reduction"] == checks.key_text(through) and data["k"] == len(through),
               "standard_reduction is not the through-string letters")
        outs = _out_points(len(w), pairs, singles)
        expect(data["orientations"] == {str(i): "out" if i in outs else "in" for i in range(1, len(w) + 1)},
               "orientations differ from own")
    add("pairing", ["pairing", checks.key_text(w), "--gens", "2", "--json"], pairing_check)

    w = _word(rng, rng.randint(20, 32))

    def dots_check(code, stdout, stderr, w=w):
        data = ok_json(code, stdout)
        pairs, singles = checks.admissible_pairing(w)
        blacks = _out_points(len(w), pairs, singles) - singles
        expect(data["colors"] == "".join("B" if i in blacks else "W" for i in range(1, len(w) + 1)),
               "dot colours differ from own")
    add("dots", ["dots", checks.key_text(w), "--gens", "2", "--json"], dots_check)

    gens = rng.randint(2, 3)
    n = rng.randint(20, 40)
    k = rng.randrange(2 - n % 2, n + 1, 2)

    def count_check(code, stdout, stderr, n=n, k=k, gens=gens):
        expect(ok_json(code, stdout)["count"] == checks.class_size(n, k, gens), "count differs from own formula")
    add("count", ["count", "--len", str(n), "--through", str(k), "--gens", str(gens), "--json"], count_check)

    n = 2 * rng.randint(5, 20)

    def kesten_check(code, stdout, stderr, n=n, gens=gens):
        expect(ok_json(code, stdout)["moment"] == checks.kesten_count(n, gens), "kesten differs from own count")
    add("kesten", ["kesten", "--len", str(n), "--gens", str(gens), "--json"], kesten_check)

    n = rng.randint(8, 20)

    def poly_check(code, stdout, stderr, n=n):
        checks.check_poly(n, 2, ok_json(code, stdout)["coefficients"])
    add("poly", ["poly", "--len", str(n), "--gens", "2", "--json"], poly_check)

    def census_check(code, stdout, stderr):
        data = ok_json(code, stdout)
        expect(data["length"] == 6 and data["alphabet_size"] == 2, "census echoes other parameters")
        checks.check_census(6, 2, data["counts"])
    add("census", ["census", "--len", "6", "--gens", "2", "--json"], census_check)

    n = rng.randint(4, 6)

    def verify_check(code, stdout, stderr, n=n):
        data = ok_json(code, stdout)
        expect(data["ok"] is True and data["violations"] == [] and data["total"] == 4 ** n,
               "verify-xtoq does not report a clean expansion")
    add("verify-xtoq", ["verify-xtoq", "--len", str(n), "--gens", "2", "--json"], verify_check)

    def bool_check(code, stdout, stderr):
        expect(code == 2, f"a JSON boolean letter is accepted: exit {code}, output {stdout.strip()[:80]!r}")
    add("reduce-bool", ["reduce", "[true, 2]", "--gens", "2", "--json"], bool_check)

    def head_check(code, stdout, stderr):
        expect(stdout == "count=3003\n", f"first line is {stdout!r}")
        expect("Traceback" not in stderr and "Exception ignored" not in stderr,
               f"closing the pipe leaves: {stderr.strip().splitlines()[-1:]}")
    add("enumerate-pairings-head", ["enumerate-pairings", "--len", "14", "--through", "2"], head_check)
    return out


class Workload:
    unit = "commands"

    def __init__(self, seed: int, tracer: bench.Tracer):
        self.inputs = random.Random(f"cli:{seed}")
        self.tracer = tracer
        self.rss_mb = 0.0

    def round(self, index: int) -> dict:
        ops = []
        round_cmds = commands(self.inputs)
        with self.tracer.span("round"):
            for name, args, check in round_cmds:
                error = None
                with self.tracer.span(f"cli.subprocess.{name}"):
                    child = bench.run_child([sys.executable, "-m", "freecycle.cli", *args],
                                            first_line=name == "enumerate-pairings-head")
                self.rss_mb = max(self.rss_mb, child.rss_mb)
                try:
                    check(child.code, child.out, child.err)
                except Exception as exc:  # one operation's failure, recorded and counted
                    error = f"{type(exc).__name__}: {exc}"
                ops.append({"name": name, "s": child.wall_s, "error": error, "known": name in KNOWN_FAULTS})
        errors = self.in_process(round_cmds) if self.tracer.enabled else []
        return {"ops": ops, "work": len(ops), "errors": errors}

    def in_process(self, round_cmds) -> list[str]:
        """freecycle.cli.main(argv) with stdout captured: parsing, compute and formatting."""
        bench.import_freecycle()
        import freecycle.cli

        errors = []
        for name, args, check in round_cmds:
            if name in KNOWN_FAULTS:
                continue
            buf = io.StringIO()
            with self.tracer.span("cli.main"), contextlib.redirect_stdout(buf):
                code = freecycle.cli.main(args)
            try:
                check(code, buf.getvalue(), "")
            except checks.CheckFailed as exc:
                errors.append(f"in-process {name}: {exc}")
        return errors

    def peak_rss_mb(self) -> float:
        return self.rss_mb

    def finish(self) -> list[str]:
        return []

    def layer_metrics(self, span_groups) -> dict[str, tuple[float, str]]:
        samples = bench.layer_samples(span_groups)
        calls = [t for r in samples.get("cli.main", []) for t in r] or [0.0]
        return {"cli.main.p50_ms": (bench.median(calls) * 1e3, "ms")}
