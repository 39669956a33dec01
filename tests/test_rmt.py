import itertools
import math
import os
import sys
import threading
from functools import reduce

import numpy as np
import pytest

from freecycle import (
    IntPolynomial,
    SimConfig,
    cyclically_reduced_words,
    diagonalization_from_samples,
    estimate_moment,
    fluctuation_covariance,
    fluctuation_poly,
    haar_unitary,
    kesten_moment,
    sample_traces,
)

from freecycle import rmt
from freecycle.rmt import _cmv_entries, _sample_traces, _trial_sum, _workers

from oracles import (
    cyclically_reduced_count,
    dense_cmv,
    haar_sample_traces,
    householder_product,
    qr_haar_unitary,
    second_order_limits,
    trace_by_matrix_powers,
    trial_unitaries,
)

LAW_SEED = 1994
LAW_TRIALS = 10_000
SAME_LAW_TRIALS = 8_000
HAAR_TWO_SAMPLE_TRIALS = 5_000
Z_BOUND = 4.0


def _cmv_dense(m: int, rng: np.random.Generator) -> np.ndarray:
    """The CMV factor's entries scattered into zeros: _trial_sum at N = 1, for any m >= 1."""
    c = np.zeros((m, m), dtype=complex)
    index, values = _cmv_entries(m, rng)
    c[index] += values
    return c


def _config(**overrides) -> SimConfig:
    base = dict(matrix_size=30, alphabet_size=2, trials=100, max_power=4, seed=99)
    base.update(overrides)
    return SimConfig(**base)


class TestHaarUnitary:
    @pytest.mark.parametrize("m", [1, 5, 64])
    def test_unitarity(self, m):
        rng = np.random.default_rng(1)
        u = haar_unitary(m, rng)
        assert np.max(np.abs(u.conj().T @ u - np.eye(m))) <= 1e-10

    def test_one_by_one_is_a_phase(self):
        rng = np.random.default_rng(2)
        u = haar_unitary(1, rng)
        assert abs(abs(u[0, 0]) - 1) <= 1e-12

    def test_first_entry_square_modulus_mean(self):
        # |U_11|^2 of a Haar 4x4 unitary has mean 1/4 and variance 3/80
        rng = np.random.default_rng(3)
        values = [abs(haar_unitary(4, rng)[0, 0]) ** 2 for _ in range(10_000)]
        se = math.sqrt(3 / 80 / 10_000)
        assert abs(np.mean(values) - 0.25) <= 3 * se

    @pytest.mark.parametrize("m", [1, 2, 31, 32, 33, 65, 200])  # one, partial and full blocks
    def test_equals_product_of_its_reflectors(self, m):
        u = haar_unitary(m, np.random.default_rng([7, m]))
        assert np.max(np.abs(u - householder_product(m, np.random.default_rng([7, m])))) <= 1e-12

    def test_zero_source_entry_is_drawn_again(self):
        class FirstDrawZero:  # x_00 = 0 in the first draw only
            def __init__(self):
                self.rng, self.draws = np.random.default_rng(9), 0

            def standard_normal(self, size):
                self.draws += 1
                out = self.rng.standard_normal(size)
                if self.draws == 1:
                    out[:2] = 0
                return out

        rng = FirstDrawZero()
        u = haar_unitary(3, rng)
        assert rng.draws == 2
        skipped = np.random.default_rng(9)
        skipped.standard_normal(12)
        assert np.array_equal(u, haar_unitary(3, skipped))

    @pytest.mark.parametrize("m", [2, 5])
    def test_same_law_as_qr_sampler(self, m):
        # two-sample z of |U_11|^2, |U_mm|^2, Re U_11 and |Tr U|^2 against QR of Ginibre
        def statistics(sampler, seed):
            rng = np.random.default_rng([seed, m])
            us = np.array([sampler(m, rng) for _ in range(HAAR_TWO_SAMPLE_TRIALS)])
            tr = np.trace(us, axis1=1, axis2=2)
            first, last = us[:, 0, 0], us[:, -1, -1]
            return np.abs(first) ** 2, np.abs(last) ** 2, first.real, np.abs(tr) ** 2

        for a, b in zip(statistics(haar_unitary, 500), statistics(qr_haar_unitary, 600)):
            se = math.sqrt((a.var(ddof=1) + b.var(ddof=1)) / HAAR_TWO_SAMPLE_TRIALS)
            assert abs(a.mean() - b.mean()) <= Z_BOUND * se, (a.mean(), b.mean())


class TestFiniteSizeLaw:
    """Exact identities of a Haar unitary's spectrum at every m (Diaconis and
    Shahshahani 1994): E Tr U^j = 0 and E |Tr U^j|^2 = min(j, m) for j >= 1."""

    @pytest.mark.parametrize("sampler", [_cmv_dense, haar_unitary], ids=["cmv", "haar"])
    @pytest.mark.parametrize("m", [3, 6])
    def test_power_trace_moments(self, sampler, m):
        rng = np.random.default_rng([LAW_SEED, m])
        us = np.array([sampler(m, rng) for _ in range(LAW_TRIALS)])
        power = us
        for j in range(1, m + 3):
            tr = np.trace(power, axis1=1, axis2=2)
            for name, values, target in (
                ("Re Tr", tr.real, 0.0),
                ("Im Tr", tr.imag, 0.0),
                ("|Tr|^2", np.abs(tr) ** 2, min(j, m)),
            ):
                z = (values.mean() - target) / (values.std(ddof=1) / math.sqrt(LAW_TRIALS))
                assert abs(z) <= Z_BOUND, f"{name} U^{j}: mean {values.mean():.4f}, z = {z:.2f}"
            power = power @ us

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 64, 65])
    def test_cmv_factor_is_unitary_and_sparse(self, m):
        c = _cmv_dense(m, np.random.default_rng(6))
        assert np.max(np.abs(c.conj().T @ c - np.eye(m))) <= 1e-12
        assert np.count_nonzero(c, axis=1).max() <= 4

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 64, 65])
    def test_cmv_scatter_equals_dense_product(self, m):
        c = _cmv_dense(m, np.random.default_rng([6, m]))
        assert np.array_equal(c, dense_cmv(m, np.random.default_rng([6, m])))

    @pytest.mark.parametrize("n_gens", [1, 2, 3])
    def test_trial_sum_equals_sum_of_dense_unitaries(self, n_gens):
        for m in (8, 9):  # both parities of the CMV factor's last row pair
            cfg = _config(matrix_size=m, alphabet_size=n_gens)
            s = _trial_sum(cfg, np.random.default_rng(8))
            assert np.array_equal(s, sum(trial_unitaries(cfg, np.random.default_rng(8))))

    def test_second_order_limits_oracle(self):
        for n_gens in (1, 2, 3):
            for k in range(1, 7):
                assert len(cyclically_reduced_words(k, n_gens)) == cyclically_reduced_count(k, n_gens)
        monomial, diagonal = second_order_limits(4, 2)
        assert diagonal == [4, 24, 84, 336]
        assert monomial == [[4, 0, 36, 0], [0, 24, 0, 288], [36, 0, 408, 0], [0, 288, 0, 3792]]


class TestSampleTraces:
    def test_config_validation(self):
        for bad in (
            dict(matrix_size=1),
            dict(trials=1),
            dict(max_power=0),
            dict(alphabet_size=0),
        ):
            with pytest.raises(ValueError):
                _config(**bad)

    def test_power_traces_within_float_range(self):
        # log(4 * 100) + 2P log 4 passes log(float max), about 709.78, between P = 253 and 254
        assert _config(matrix_size=20, max_power=253).max_power == 253
        for max_power in (254, 509, 510, 2000, 100000):
            with pytest.raises(ValueError, match="float range"):
                _config(matrix_size=20, max_power=max_power)

    def test_largest_admitted_power_gives_finite_standard_errors(self):
        # with 3 trials, log 12 + 2P log 4 <= log(float max) up to P = 255
        samples = sample_traces(_config(matrix_size=20, trials=3, max_power=255))
        for p in (1, 255):
            assert all(map(math.isfinite, estimate_moment(samples, p)))
        with pytest.raises(ValueError, match="float range"):
            _config(matrix_size=20, trials=3, max_power=256)

    @pytest.mark.parametrize("z_threshold", [math.nan, math.inf, 0.0, -1.0])
    def test_z_threshold_must_be_finite_and_positive(self, z_threshold):
        with pytest.raises(ValueError):
            _config(z_threshold=z_threshold)

    def test_deterministic(self):
        cfg = _config(trials=8)
        a = sample_traces(cfg)
        b = sample_traces(cfg)
        assert np.array_equal(a.traces, b.traces)

    def test_x_is_hermitian_with_bounded_spectrum(self):
        rng = np.random.default_rng(4)
        m, n_gens = 40, 2
        x = np.zeros((m, m), dtype=complex)
        for _ in range(n_gens):
            u = haar_unitary(m, rng)
            x += u + u.conj().T
        assert np.max(np.abs(x - x.conj().T)) <= 1e-10
        eig = np.linalg.eigvalsh(x)
        assert eig.min() >= -2 * n_gens - 1e-9
        assert eig.max() <= 2 * n_gens + 1e-9

    def test_traces_match_matrix_powers(self):
        # odd and even max_power, from 3 to 6 powers of X
        for max_power in (5, 8, 9, 12):
            cfg = _config(matrix_size=25, trials=3, max_power=max_power, seed=11)
            samples = sample_traces(cfg)
            streams = np.random.SeedSequence(cfg.seed).spawn(cfg.trials)
            for t in range(cfg.trials):
                x = np.zeros((25, 25), dtype=complex)
                for u in trial_unitaries(cfg, np.random.default_rng(streams[t])):
                    x += u + u.conj().T
                direct = trace_by_matrix_powers(x, cfg.max_power)
                for p in range(1, cfg.max_power + 1):
                    assert abs(direct[p - 1].imag) <= 1e-8 * cfg.matrix_size
                    assert samples.traces[t, p - 1] == pytest.approx(direct[p - 1].real, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("m, n_gens", [(3, 1), (4, 2), (5, 3)])
    def test_same_law_as_all_haar_sampler(self, m, n_gens):
        # Two-sample z of the means and of every covariance of Tr X^p, p <= 4,
        # against the construction that draws every U_i as a dense Haar matrix
        new = sample_traces(SimConfig(m, n_gens, SAME_LAW_TRIALS, 4, seed=300 + m)).traces
        old = haar_sample_traces(SimConfig(m, n_gens, SAME_LAW_TRIALS, 4, seed=400 + m))

        def mean_and_var(values):
            return values.mean(), values.var(ddof=1) / len(values)

        def statistics(traces):
            centered = traces - traces.mean(axis=0)
            yield from (mean_and_var(traces[:, p]) for p in range(4))
            yield from (mean_and_var(centered[:, p] * centered[:, q])
                        for p in range(4) for q in range(p, 4))

        for (a, var_a), (b, var_b) in zip(statistics(new), statistics(old)):
            assert abs(a - b) <= Z_BOUND * math.sqrt(var_a + var_b), (a, b)

    def test_trace_identity_of_the_diagonalizing_polynomials(self):
        # Tr P_n(X) = sum of Tr U_v over the cyclically reduced v of length n, at every m
        cfg = SimConfig(matrix_size=12, alphabet_size=2, trials=2, max_power=6, seed=5)
        us = trial_unitaries(cfg, np.random.default_rng(cfg.seed))
        letters = {g: u for g, u in enumerate(us, 1)} | {-g: u.conj().T for g, u in enumerate(us, 1)}
        x = sum(u + u.conj().T for u in us)
        for n in range(1, 7):
            coeffs = fluctuation_poly(n, 2).coeffs
            lhs = sum(c * np.trace(np.linalg.matrix_power(x, j)) for j, c in enumerate(coeffs))
            words = cyclically_reduced_words(n, 2)
            rhs = sum(np.trace(reduce(np.matmul, [letters[l] for l in w.letters])) for w in words)
            assert abs(lhs - rhs) <= 1e-12 * len(words) * cfg.matrix_size, (n, lhs, rhs)

    def test_power_bounds_checked(self):
        samples = sample_traces(_config(trials=4))
        with pytest.raises(ValueError):
            samples.power_traces(5)
        with pytest.raises(ValueError):
            samples.poly_traces(IntPolynomial.monomial(9))


class TestTrialPool:
    @pytest.mark.parametrize("n_gens", [1, 2, 3])
    def test_traces_do_not_depend_on_workers(self, n_gens):
        for trials in (2, 5):  # 3 workers for 2 trials too
            cfg = _config(matrix_size=24, alphabet_size=n_gens, trials=trials, max_power=5, seed=17)
            serial = _sample_traces(cfg, 1).traces
            for workers in (2, 3):
                assert np.array_equal(_sample_traces(cfg, workers).traces, serial)
            assert np.array_equal(sample_traces(cfg).traces, serial)

    def test_every_trial_runs_once_under_frequent_thread_switches(self, monkeypatch):
        calls = itertools.count()

        def counted(cfg, rng):
            next(calls)
            return _trial_sum(cfg, rng)

        cfg = _config(matrix_size=6, trials=60, max_power=3, seed=23)
        serial = _sample_traces(cfg, 1).traces
        monkeypatch.setattr(rmt, "_trial_sum", counted)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = _sample_traces(cfg, 5).traces  # more threads than cores
        finally:
            sys.setswitchinterval(interval)
        assert next(calls) == cfg.trials and np.array_equal(pooled, serial)

    def test_worker_rule(self, monkeypatch):
        def workers(m=200, trials=12):
            return _workers(_config(matrix_size=m, trials=trials))

        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert workers() == 1  # BLAS unpinned runs a thread per core itself
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert workers() == 2
        assert workers(rmt.POOL_MIN_SIZE) == 2
        assert workers(rmt.POOL_MIN_SIZE - 1) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        assert workers(trials=3) == 3
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        assert workers() == 4
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        monkeypatch.setenv("OMP_NUM_THREADS", "8")
        assert workers() == 1
        monkeypatch.setenv("OMP_NUM_THREADS", "garbage")
        assert workers() == 1
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert workers() == 4

    def test_failed_trial_propagates_and_joins_threads(self, monkeypatch):
        before = threading.active_count()
        started = itertools.count()

        def fail_fourth(cfg, rng):
            if next(started) == 3:
                raise RuntimeError("trial failed")
            return _trial_sum(cfg, rng)

        monkeypatch.setattr(rmt, "_trial_sum", fail_fourth)
        with pytest.raises(RuntimeError, match="trial failed"):
            _sample_traces(_config(matrix_size=20, trials=100), 2)
        assert threading.active_count() == before
        assert next(started) < 100  # the other thread stopped after its current trial

    def test_memory_limit(self, monkeypatch):
        # (N + ceil(P/2) + 4) m^2 16 bytes per thread, plus trials P 8: 9 * 100^2 * 16 + 480
        config = dict(matrix_size=100, trials=10, max_power=6)
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        monkeypatch.setattr(rmt, "MAX_SAMPLE_BYTES", 1_440_000 + 480)
        for blas in ("1", None):  # pinned or not, the limit does not depend on the threads
            if blas:
                monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas)
            else:
                monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
            assert _config(**config).trials == 10
        monkeypatch.setattr(rmt, "MAX_SAMPLE_BYTES", 1_440_000 + 479)
        with pytest.raises(ValueError, match="MAX_SAMPLE_BYTES"):
            _config(**config)
        monkeypatch.undo()
        for big in (dict(matrix_size=40_000, trials=3), dict(matrix_size=20, trials=100_000_000)):
            with pytest.raises(ValueError, match="above the 2 GiB limit"):
                _config(max_power=6, **big)

    def test_threads_shrink_to_fit_the_memory_limit(self, monkeypatch):
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        # 9 * 500^2 * 16 bytes, 36 MB, per thread: the run is admitted, and 59 threads
        # fit in 2 GiB, not 64
        assert _workers(_config(matrix_size=500, trials=100, max_power=6)) == 59
        # 9 * 3000^2 * 16 bytes, 1.3 GB: one thread
        assert _workers(_config(matrix_size=3000, trials=100, max_power=6)) == 1
        config = dict(matrix_size=100, trials=10, max_power=6)
        monkeypatch.setattr(rmt, "MAX_SAMPLE_BYTES", 3 * 1_440_000 + 480)
        assert _workers(_config(**config)) == 3
        monkeypatch.setattr(rmt, "MAX_SAMPLE_BYTES", 3 * 1_440_000 + 479)
        assert _workers(_config(**config)) == 2


class TestMomentEstimates:
    def test_first_moment_vanishes(self):
        samples = sample_traces(_config(matrix_size=50, trials=400, seed=21))
        est, se = estimate_moment(samples, 1)
        assert abs(est - 0) <= 3 * se

    def test_second_moment_matches_kesten(self):
        samples = sample_traces(_config(matrix_size=50, trials=400, seed=22))
        est, se = estimate_moment(samples, 2)
        assert abs(est - kesten_moment(2, 2)) <= 3 * se

    def test_fourth_moment_matches_kesten(self):
        samples = sample_traces(_config(matrix_size=80, trials=400, seed=23))
        est, se = estimate_moment(samples, 4)
        assert abs(est - kesten_moment(4, 2)) <= 3 * se + 10 * 16 / 80**2


class TestFluctuationCovariance:
    def test_constants_have_zero_fluctuation(self):
        samples = sample_traces(_config(trials=50))
        est, se = fluctuation_covariance(samples, IntPolynomial(3), IntPolynomial(5))
        assert est == 0.0 and se == 0.0

    def test_centering_invariance(self):
        samples = sample_traces(_config(trials=50))
        f = fluctuation_poly(2, 2)
        g = fluctuation_poly(3, 2)
        base, _ = fluctuation_covariance(samples, f, g)
        shifted, _ = fluctuation_covariance(samples, f, g + 1000)
        assert shifted == pytest.approx(base, rel=1e-9, abs=1e-6)

    def test_variance_positive_and_matches_numpy(self):
        samples = sample_traces(_config(trials=60))
        f = IntPolynomial.monomial(2)
        est, se = fluctuation_covariance(samples, f, f)
        values = samples.poly_traces(f)
        assert est == pytest.approx(float(np.cov(values, ddof=1)))
        assert est > 0 and se > 0

    def test_needs_three_trials(self):
        samples = sample_traces(_config(trials=2))
        with pytest.raises(ValueError):
            fluctuation_covariance(samples, IntPolynomial.x(), IntPolynomial.x())

    def test_covariance_out_of_float_range_refused(self):
        # Tr X^250 is in float range, but the squares in its jackknife are not; pytest turns
        # numpy's overflow warning into an error, so the refusal must come before numpy warns
        samples = sample_traces(SimConfig(20, 2, 3, 250, 1))
        x250 = IntPolynomial.monomial(250)
        with pytest.raises(ValueError, match="float range"):
            fluctuation_covariance(samples, x250, x250)
        # 10^307 Tr X^2 overflows in numpy's multiply; 10^400 does not convert to a float
        for f in (IntPolynomial.monomial(2, 10**307), IntPolynomial.monomial(1, 10**400)):
            with pytest.raises(ValueError, match="float range"):
                fluctuation_covariance(samples, f, f)


class TestDiagonalizationReport:
    def test_structure(self):
        samples = sample_traces(_config(trials=120, seed=31))
        report = diagonalization_from_samples(samples, 3)
        assert report.k_max == 3
        assert len(report.polynomials) == 3
        for matrix in (report.basis_cov, report.monomial_cov, report.basis_z):
            assert len(matrix) == 3 and all(len(row) == 3 for row in matrix)
        for i in range(3):
            assert report.basis_cov[i][i] > 0
            assert report.monomial_cov[i][i] > 0
            for j in range(3):
                assert report.basis_cov[i][j] == report.basis_cov[j][i]

    def test_k_max_validation(self):
        samples = sample_traces(_config(trials=10))
        with pytest.raises(ValueError):
            diagonalization_from_samples(samples, 5)
        with pytest.raises(ValueError):
            diagonalization_from_samples(samples, 0)

    def test_k_max_within_float_range(self):
        # 4 (log(4 * 20) + K log(2 + sqrt 7)) + log(144 * 3) passes log(float max) between
        # K = 111 and 112
        samples = sample_traces(_config(matrix_size=20, trials=3, max_power=112))
        report = diagonalization_from_samples(samples, 111)
        for matrix in (report.basis_cov, report.basis_se, report.monomial_se, report.monomial_z):
            assert all(math.isfinite(v) for row in matrix for v in row)
        with pytest.raises(ValueError, match="need k_max <= 111 .* float range"):
            diagonalization_from_samples(samples, 112)

    def test_json_round_trip_shape(self):
        samples = sample_traces(_config(trials=40, seed=41))
        data = diagonalization_from_samples(samples, 2).to_json()
        assert set(data) == {"k_max", "z_threshold", "polynomials", "basis", "monomial"}
        assert data["basis"]["offdiag_ok"] in (True, False)
