"""exact-census: exhaustive censuses, the x^n and P_n verifications, Kesten moments
and the diagonalizing polynomial of high degree.

freecycle keeps every census it has computed in a module-level cache that the
verify functions cannot bypass.  So each round runs in a fresh interpreter
(child.py), with the import outside the timer, and within a round no two
operations share a census: the census calls pass cache=False, and the two
verify calls use (n, N) sets that do not meet.
"""

from __future__ import annotations

import json
import random
import sys
import time

import bench
import checks
from checks import expect

CENSUSES = ((8, 2), (14, 1), (6, 3))
POWER_EXPANSION = (7, 2)
POLY_EXPANSION = (6, 2)  # censuses (0..6, 2): none is (7, 2)
KESTEN = (tuple(range(2, 202, 2)), 2)
POLY_DEGREE = (160, 2)
SHORT_WORDS = (8, 2, 2000)  # length, alphabet, sample size for the per-word kernel probe


def census_name(n: int, gens: int) -> str:
    return f"n{n}_N{gens}"


def warm_up(fc) -> None:
    fc.census(3, 2, cache=False)


def _ops(fc):
    """(name, words enumerated, call, check) for every operation of a round."""

    def census(n, gens):
        def run():
            return fc.census(n, gens, cache=False)

        def check(result):
            checks.check_census(n, gens, dict(result.counts))

        return f"counting.census.{census_name(n, gens)}", (2 * gens) ** n, run, check

    def power_expansion(n, gens):
        def check(report):
            expect(report.ok and not report.violations, f"verify_power_expansion({n}, {gens}) reports violations")
            expect(report.total == (2 * gens) ** n, "verify_power_expansion total is not (2N)^n")

        return ("counting.verify_power_expansion", (2 * gens) ** n,
                lambda: fc.verify_power_expansion(n, gens), check)

    def poly_expansion(n, gens):
        # The recurrence carries +2 for even n; P_n carries (N-1)(1+(-1)^n).
        residual = 2 - 2 * (gens - 1) if n % 2 == 0 else 0

        def check(report):
            expect(report.ok and report.triangle_exact, f"verify_poly_expansion({n}, {gens}) is not ok")
            expect(report.recurrence_residual == residual,
                   f"recurrence residual {report.recurrence_residual}, want {residual}")

        return ("polynomials.verify_poly_expansion", sum((2 * gens) ** j for j in range(n + 1)),
                lambda: fc.verify_poly_expansion(n, gens), check)

    def kesten(ns, gens):
        def run():
            return [fc.kesten_moment(n, gens) for n in ns]

        def check(values):
            for n, v in zip(ns, values):
                expect(v == checks.kesten_count(n, gens), f"kesten_moment({n}, {gens}) = {v}")

        return "counting.kesten_moment", 0, run, check

    def poly(n, gens):
        def check(p):
            checks.check_poly(n, gens, p.coeffs)

        return "polynomials.fluctuation_poly", 0, lambda: fc.fluctuation_poly(n, gens), check

    return ([census(n, g) for n, g in CENSUSES]
            + [power_expansion(*POWER_EXPANSION), poly_expansion(*POLY_EXPANSION),
               kesten(*KESTEN), poly(*POLY_DEGREE)])


def run_round(seed: int, index: int, traced: bool) -> dict:
    """One round, in a fresh interpreter: every operation once, in a seeded order."""
    fc = bench.import_freecycle()
    tracer = bench.Tracer()
    tracer.enabled = traced
    ops = _ops(fc)
    random.Random(f"exact-census:{seed}:{index}").shuffle(ops)
    records, work = [], 0
    with tracer.span("round"):
        for name, words, run, check in ops:
            start = time.perf_counter()
            error = None
            try:
                with tracer.span(name):
                    result = run()
                seconds = time.perf_counter() - start
                check(result)
            except Exception as exc:  # one operation's failure, recorded and counted
                seconds = time.perf_counter() - start
                error = f"{type(exc).__name__}: {exc}"
            records.append({"name": name, "s": seconds, "error": error})
            work += words
    errors = []
    if traced:
        try:
            short_word_probe(fc, tracer, random.Random(f"exact-census-short:{seed}:{index}"))
        except checks.CheckFailed as exc:
            errors.append(str(exc))
    return {"ops": records, "work": work, "spans": tracer.spans, "errors": errors}


def short_word_probe(fc, tracer: bench.Tracer, rng: random.Random) -> None:
    """standard_cyclic_reduction called one word at a time on a sample of census words."""
    n, gens, count = SHORT_WORDS
    alphabet = [s * g for g in range(1, gens + 1) for s in (1, -1)]
    words = [fc.word([rng.choice(alphabet) for _ in range(n)], gens) for _ in range(count)]
    with tracer.span("pairings.standard_cyclic_reduction.short_words"):
        reductions = [fc.standard_cyclic_reduction(w) for w in words]
    for w, r in zip(words, reductions):
        expect(checks.is_rotation(r.letters, checks.cyclic_reduce_letters(w.letters)),
               "standard reduction of a short word is not a rotation of its cyclic reduction")


class Workload:
    unit = "words"

    def __init__(self, seed: int, tracer: bench.Tracer):
        self.seed, self.tracer = seed, tracer
        self.rss_mb = 0.0

    def round(self, index: int) -> dict:
        child = bench.run_child([sys.executable, f"{bench.HERE}/child.py", "census-round",
                                 str(self.seed), str(index), str(int(self.tracer.enabled))])
        if child.code != 0:
            raise RuntimeError(f"census round exited {child.code}: {child.err.strip()[-2000:]}")
        self.rss_mb = max(self.rss_mb, child.rss_mb)
        return json.loads(child.out.strip().splitlines()[-1])

    def peak_rss_mb(self) -> float:
        return self.rss_mb

    def finish(self) -> list[str]:
        return []

    def layer_metrics(self, span_groups) -> dict[str, tuple[float, str]]:
        samples = bench.layer_samples(span_groups)

        def per_round(name):
            return bench.median([sum(r) for r in samples.get(name, [[0.0]])])

        out = {f"{name}.self_s": (per_round(name), "s") for name in (
            "counting.verify_power_expansion", "polynomials.verify_poly_expansion",
            "polynomials.fluctuation_poly", "counting.kesten_moment")}
        for n, gens in CENSUSES:
            name = f"counting.census.{census_name(n, gens)}"
            out[f"counting.census.words_per_s.{census_name(n, gens)}"] = (
                (2 * gens) ** n / per_round(name), "1/s")
        out["pairings.standard_cyclic_reduction.us_per_short_word"] = (
            per_round("pairings.standard_cyclic_reduction.short_words") / SHORT_WORDS[2] * 1e6, "us")
        return out
