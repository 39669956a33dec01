"""monte-carlo: batches of Haar-unitary trials at the acceptance and CLI default size.

Each round is one operation: sample_traces on a short batch, then
estimate_moment for every power and diagonalization_from_samples.  The finite-m
identities, the Kesten moments and the diagonalization are tested at the end,
on the trials of every round pooled.
"""

from __future__ import annotations

import math
import time

import bench
import checks
from checks import expect

M, GENS, MAX_POWER, K_MAX = 200, 2, 6, 4
BATCH = 12
Z_BOUND = 5.0  # for the identities and moments; the diagonalization uses the program's 4


def warm_up(fc) -> None:
    samples = fc.sample_traces(fc.SimConfig(M, GENS, 3, MAX_POWER, 0))
    fc.diagonalization_from_samples(samples, K_MAX)


def _own_traces(traces, coeffs):
    out = 0.0 * traces[:, 0]
    for j, c in enumerate(coeffs):
        out = out + c * (M if j == 0 else traces[:, j - 1])
    return out


class Workload:
    unit = "trials"

    def __init__(self, seed: int, tracer: bench.Tracer):
        self.fc = bench.import_freecycle()
        import numpy as np

        self.np = np
        self.seed, self.tracer = seed, tracer
        self.pooled = []
        self.unitarity_err = 0.0
        self.polys = [checks.fluctuation_coeffs(k, GENS) for k in range(1, K_MAX + 1)]

    def round(self, index: int) -> dict:
        fc, np, call = self.fc, self.np, self.tracer.call
        cfg = fc.SimConfig(M, GENS, BATCH, MAX_POWER, self.seed * 1_000_000 + index)
        start = time.perf_counter()
        error = None
        try:
            with self.tracer.span("op"):
                samples = call("rmt.sample_traces", fc.sample_traces, cfg)
                moments = [call("rmt.estimate_moment", fc.estimate_moment, samples, p)
                           for p in range(1, MAX_POWER + 1)]
                report = call("rmt.diagonalization_from_samples", fc.diagonalization_from_samples, samples, K_MAX)
            seconds = time.perf_counter() - start
            rng = np.random.default_rng([self.seed, index])
            for _ in range(GENS):
                u = call("rmt.haar_unitary", fc.haar_unitary, M, rng)
                self.unitarity_err = max(self.unitarity_err, checks.check_unitary(u))
            self.check(samples.traces, moments, report)
            self.pooled.append(samples.traces)
        except Exception as exc:  # one operation's failure, recorded and counted
            seconds, error = time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
        return {"ops": [{"name": "batch", "s": seconds, "error": error}], "work": BATCH}

    def check(self, traces, moments, report) -> None:
        np = self.np
        expect(traces.shape == (BATCH, MAX_POWER) and bool(np.isfinite(traces).all()), "traces are not finite")
        for p in range(1, MAX_POWER + 1):
            expect(float(np.abs(traces[:, p - 1]).max()) <= M * (2 * GENS) ** p * (1 + 1e-9),
                   f"|Tr X^{p}| exceeds m (2N)^{p}: the spectrum leaves [-2N, 2N]")
            values = traces[:, p - 1] / M
            mean, se = float(values.mean()), float(values.std(ddof=1) / math.sqrt(BATCH))
            got_mean, got_se = moments[p - 1]
            expect(math.isclose(got_mean, mean, rel_tol=1e-9, abs_tol=1e-12)
                   and math.isclose(got_se, se, rel_tol=1e-9, abs_tol=1e-12),
                   f"estimate_moment({p}) differs from the mean of the traces")
        self.check_covariances(traces, report)

    def check_covariances(self, traces, report) -> None:
        """The report's covariances equal the benchmark's own, in both bases."""
        np = self.np
        for name, cov, bases in (
            ("basis", report.basis_cov, self.polys),
            ("monomial", report.monomial_cov, [[0] * k + [1] for k in range(1, K_MAX + 1)]),
        ):
            own = np.cov(np.array([_own_traces(traces, c) for c in bases]))
            for i in range(K_MAX):
                for j in range(K_MAX):
                    expect(math.isclose(cov[i][j], own[i, j], rel_tol=1e-7, abs_tol=1e-7 * (1 + abs(own[i, i]))),
                           f"{name} covariance [{i + 1},{j + 1}] differs from own estimate")

    def finish(self) -> list[str]:
        """Pooled tests: E Tr X = 0, E Tr X^2/m = 2N, Var Tr X = 2N, the moments p = 4, 6,
        and the diagonalization."""
        if not self.pooled:
            return []
        np, fc = self.np, self.fc
        traces = np.concatenate(self.pooled)
        t = len(traces)
        errors = []

        def test(f, *args):
            try:
                f(*args)
            except checks.CheckFailed as exc:
                errors.append(str(exc))

        tr1 = traces[:, 0]
        sd = float(tr1.std(ddof=1))
        test(checks.z_check, "E Tr X", float(tr1.mean()), 0.0, sd / math.sqrt(t), Z_BOUND)
        var = float(tr1.var(ddof=1))
        m4 = float(((tr1 - tr1.mean()) ** 4).mean())
        test(checks.z_check, "Var Tr X", var, 2 * GENS, math.sqrt(max(m4 - var * var, 0.0) / t), Z_BOUND)
        for p in (2, 4, 6):
            values = traces[:, p - 1] / M
            target = 2 * GENS if p == 2 else checks.kesten_count(p, GENS)
            test(checks.z_check, f"E Tr X^{p}/m", float(values.mean()), target,
                 float(values.std(ddof=1)) / math.sqrt(t), Z_BOUND)
        pooled = fc.TraceSamples(fc.SimConfig(M, GENS, t, MAX_POWER, 0), traces)
        report = fc.diagonalization_from_samples(pooled, K_MAX)
        test(self.check_covariances, traces, report)
        test(expect, report.basis_offdiag_ok,
             f"basis off-diagonal |z| exceeds {report.z_threshold} over {t} pooled trials")
        test(expect, report.monomial_has_large_offdiag,
             f"monomial contrast shows no off-diagonal |z| above {report.z_threshold}")
        return errors

    def layer_metrics(self, span_groups) -> dict[str, tuple[float, str]]:
        samples = bench.layer_samples(span_groups)

        def per_call_ms(name):
            return bench.median([t for r in samples.get(name, [[0.0]]) for t in r]) * 1e3

        haar = per_call_ms("rmt.haar_unitary")
        per_trial = per_call_ms("rmt.sample_traces") / BATCH
        return {
            "rmt.haar_unitary.ms": (haar, "ms"),
            "rmt.sample_traces.ms_per_trial": (per_trial, "ms"),
            "rmt.trace_step.ms_per_trial": (per_trial - GENS * haar, "ms"),
            "rmt.diagonalization_from_samples.ms": (per_call_ms("rmt.diagonalization_from_samples"), "ms"),
            "rmt.estimate_moment.ms": (per_call_ms("rmt.estimate_moment"), "ms"),
            "rmt.unitarity_err_max": (self.unitarity_err, "1"),
        }
