import math
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

from freecycle.rmt import _cue_unitary, _trial_unitaries

from oracles import (
    cyclically_reduced_count,
    haar_sample_traces,
    second_order_limits,
    trace_by_matrix_powers,
)

LAW_SEED = 1994
LAW_TRIALS = 10_000
SAME_LAW_TRIALS = 8_000
Z_BOUND = 4.0


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


class TestFiniteSizeLaw:
    """Exact identities of a Haar unitary's spectrum at every m (Diaconis and
    Shahshahani 1994): E Tr U^j = 0 and E |Tr U^j|^2 = min(j, m) for j >= 1."""

    @pytest.mark.parametrize("sampler", [_cue_unitary, haar_unitary], ids=["cmv", "haar"])
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

    @pytest.mark.parametrize("m", [1, 2, 5, 64])
    def test_cmv_factor_is_unitary_and_sparse(self, m):
        c = _cue_unitary(m, np.random.default_rng(6))
        assert np.max(np.abs(c.conj().T @ c - np.eye(m))) <= 1e-12
        assert np.count_nonzero(c, axis=1).max() <= 4

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
                for u in _trial_unitaries(cfg, np.random.default_rng(streams[t])):
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
        us = _trial_unitaries(cfg, np.random.default_rng(cfg.seed))
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
