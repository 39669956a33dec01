"""Monte Carlo harness for trace fluctuations of sums of Haar unitaries.

Samples X = sum of U_i + U_i* over independent Haar-distributed m x m
unitaries, records Tr(X^p) per trial, and estimates (a) normalized trace
moments, which converge to the Kesten moments as m grows, and (b) covariances
of centered traces of polynomials in X.  The diagonalization report checks
statistically that the exact polynomial family from :mod:`.polynomials` kills
the off-diagonal covariances while plain monomials do not.

Every trial draws from its own child stream of the master seed, so its draws
depend only on the seed and its index.  Results are reproducible bit for
bit only at a fixed BLAS thread count: changing it can move the last digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polynomials import IntPolynomial, fluctuation_poly


@dataclass(frozen=True)
class SimConfig:
    """Settings for one simulation run; equal configs give identical samples."""

    matrix_size: int
    alphabet_size: int
    trials: int
    max_power: int
    seed: int
    z_threshold: float = 4.0

    def __post_init__(self) -> None:
        if self.matrix_size < 2:
            raise ValueError("need matrix_size >= 2")
        if self.alphabet_size < 1:
            raise ValueError("need alphabet_size >= 1")
        if self.trials < 2:
            raise ValueError("need trials >= 2")
        if self.max_power < 1:
            raise ValueError("need max_power >= 1")


def haar_unitary(m: int, rng: np.random.Generator) -> np.ndarray:
    """An m x m unitary drawn from Haar measure.

    QR of a complex Ginibre matrix, with the unitary factor's column phases
    fixed so the triangular factor has a positive real diagonal; without that
    normalization the distribution would not be Haar.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    while True:
        z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / math.sqrt(2)
        q, r = np.linalg.qr(z)
        d = np.diagonal(r)
        if np.all(np.abs(d) > 0) and np.all(np.isfinite(q)):
            return q * (d / np.abs(d))


@dataclass(frozen=True)
class TraceSamples:
    """Per-trial traces of X^p; column p-1 holds Tr(X^p) for each trial."""

    config: SimConfig
    traces: np.ndarray

    def power_traces(self, p: int) -> np.ndarray:
        if not 1 <= p <= self.config.max_power:
            raise ValueError(f"power {p} outside 1..{self.config.max_power}")
        return self.traces[:, p - 1]

    def poly_traces(self, poly: IntPolynomial) -> np.ndarray:
        """Tr(f(X)) per trial, assembled from the recorded power traces."""
        if poly.degree > self.config.max_power:
            raise ValueError(f"degree {poly.degree} exceeds max_power {self.config.max_power}")
        out = np.zeros(self.config.trials)
        for j, c in enumerate(poly.coeffs):
            if not c:
                continue
            out += c * (self.config.matrix_size if j == 0 else self.traces[:, j - 1])
        return out


def sample_traces(cfg: SimConfig) -> TraceSamples:
    """Run all trials and record Tr(X^p) for p = 1..max_power.

    X is Hermitian by construction, so one eigendecomposition per trial gives
    every power trace as a sum of eigenvalue powers.
    """
    m = cfg.matrix_size
    powers = np.arange(1, cfg.max_power + 1)
    traces = np.zeros((cfg.trials, cfg.max_power))
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.trials)

    for t in range(cfg.trials):
        rng = np.random.default_rng(streams[t])
        x = np.zeros((m, m), dtype=complex)
        for _ in range(cfg.alphabet_size):
            u = haar_unitary(m, rng)
            x += u + u.conj().T
        eig = np.linalg.eigvalsh(x)
        traces[t] = np.sum(eig[:, None] ** powers, axis=0)
    return TraceSamples(cfg, traces)


def estimate_moment(samples: TraceSamples, p: int) -> tuple[float, float]:
    """Mean of Tr(X^p)/m over trials, with its standard error."""
    values = samples.power_traces(p) / samples.config.matrix_size
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(len(values)))


def _jackknife_cov(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    t = len(a)
    if t < 3:
        raise ValueError("need at least 3 trials for a jackknife standard error")
    sa, sb, sab = a.sum(), b.sum(), (a * b).sum()
    est = (sab - sa * sb / t) / (t - 1)
    loo = (sab - a * b - (sa - a) * (sb - b) / (t - 1)) / (t - 2)
    se = math.sqrt((t - 1) / t * np.sum((loo - loo.mean()) ** 2))
    return float(est), se


def fluctuation_covariance(
    samples: TraceSamples, f: IntPolynomial, g: IntPolynomial
) -> tuple[float, float]:
    """Sample covariance of the unnormalized traces Tr(f(X)) and Tr(g(X)).

    Traces are centered at their sample means (the fluctuations carry no 1/m),
    and the standard error is a leave-one-out jackknife.  Adding a constant to
    f or g only shifts a trace by a constant, so the estimate is unchanged.
    """
    return _jackknife_cov(samples.poly_traces(f), samples.poly_traces(g))


def _zscore(est: float, se: float) -> float:
    if se > 0:
        return est / se
    return 0.0 if est == 0 else math.inf


@dataclass(frozen=True)
class DiagonalizationReport:
    """Covariance, standard-error and z matrices in two bases of polynomials.

    ``basis_*`` uses the exact diagonalizing family, ``monomial_*`` plain
    powers of x for contrast.  Off-diagonal entries of the first should be
    statistical zeros; the second should show genuine correlations.
    """

    k_max: int
    z_threshold: float
    polynomials: tuple[str, ...]
    basis_cov: tuple[tuple[float, ...], ...]
    basis_se: tuple[tuple[float, ...], ...]
    basis_z: tuple[tuple[float, ...], ...]
    monomial_cov: tuple[tuple[float, ...], ...]
    monomial_se: tuple[tuple[float, ...], ...]
    monomial_z: tuple[tuple[float, ...], ...]

    @property
    def basis_offdiag_ok(self) -> bool:
        return all(
            abs(self.basis_z[i][j]) <= self.z_threshold
            for i in range(self.k_max)
            for j in range(self.k_max)
            if i != j
        )

    @property
    def monomial_has_large_offdiag(self) -> bool:
        return any(
            abs(self.monomial_z[i][j]) > self.z_threshold
            for i in range(self.k_max)
            for j in range(self.k_max)
            if i != j
        )

    def to_json(self) -> dict:
        return {
            "k_max": self.k_max,
            "z_threshold": self.z_threshold,
            "polynomials": list(self.polynomials),
            "basis": {
                "covariance": [list(r) for r in self.basis_cov],
                "standard_error": [list(r) for r in self.basis_se],
                "z": [list(r) for r in self.basis_z],
                "offdiag_ok": self.basis_offdiag_ok,
            },
            "monomial": {
                "covariance": [list(r) for r in self.monomial_cov],
                "standard_error": [list(r) for r in self.monomial_se],
                "z": [list(r) for r in self.monomial_z],
                "has_large_offdiag": self.monomial_has_large_offdiag,
            },
        }


def _cov_matrices(samples: TraceSamples, polys: list[IntPolynomial]):
    vals = [samples.poly_traces(p) for p in polys]
    k = len(polys)
    cov = [[0.0] * k for _ in range(k)]
    se = [[0.0] * k for _ in range(k)]
    z = [[0.0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            c, s = _jackknife_cov(vals[i], vals[j])
            cov[i][j] = cov[j][i] = c
            se[i][j] = se[j][i] = s
            z[i][j] = z[j][i] = _zscore(c, s)
    freeze = lambda rows: tuple(tuple(r) for r in rows)
    return freeze(cov), freeze(se), freeze(z)


def diagonalization_from_samples(samples: TraceSamples, k_max: int) -> DiagonalizationReport:
    """Covariance/z matrices for the diagonalizing family and for monomials."""
    cfg = samples.config
    if not 1 <= k_max <= cfg.max_power:
        raise ValueError(f"k_max {k_max} outside 1..{cfg.max_power}")
    polys = [fluctuation_poly(k, cfg.alphabet_size) for k in range(1, k_max + 1)]
    monos = [IntPolynomial.monomial(k) for k in range(1, k_max + 1)]
    bc, bs, bz = _cov_matrices(samples, polys)
    mc, ms, mz = _cov_matrices(samples, monos)
    return DiagonalizationReport(
        k_max, cfg.z_threshold, tuple(str(p) for p in polys), bc, bs, bz, mc, ms, mz
    )
