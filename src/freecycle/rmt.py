"""Monte Carlo harness for trace fluctuations of sums of Haar unitaries.

Samples X = sum of U_i + U_i* over independent Haar-distributed m x m
unitaries, records Tr(X^p) per trial, and estimates (a) normalized trace
moments, which converge to the Kesten moments as m grows, and (b) covariances
of centered traces of polynomials in X.  The diagonalization report checks
statistically that the exact polynomial family from :mod:`.polynomials` kills
the off-diagonal covariances while plain monomials do not.

The traces depend on (U_1, ..., U_N) only up to simultaneous conjugation, so
U_1 is drawn as a sparse CMV matrix whose spectrum has the law of a Haar
unitary's (one O(m) draw and no QR), and only U_2..U_N as dense Haar matrices.
The power traces come from matrix products.

Every trial draws from its own child stream of the master seed, so its draws
depend only on the seed and its index.  Results are reproducible bit for
bit only at a fixed BLAS thread count: changing it can move the last digits.
"""

from __future__ import annotations

import math
import sys
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
        # |X| <= 2N: m (2N)^P bounds |Tr X^P|, (2N)^P the Kesten moment and Tr X^P / m, whose
        # standard error sums the squares of trials deviations of at most 2 (2N)^P
        log_power = self.max_power * math.log(2 * self.alphabet_size)
        log_worst = max(math.log(self.matrix_size), math.log(4 * self.trials) + log_power)
        if log_worst + log_power > math.log(sys.float_info.max):
            raise ValueError("need m (2N)^max_power and 4 trials (2N)^(2 max_power) in float range")
        if not (math.isfinite(self.z_threshold) and self.z_threshold > 0):
            raise ValueError("need a finite z_threshold > 0")


def haar_unitary(m: int, rng: np.random.Generator) -> np.ndarray:
    """An m x m unitary drawn from Haar measure.

    QR of a complex Ginibre matrix (real parts drawn first, then imaginary
    parts), with the unitary factor's column phases fixed so the triangular
    factor has a positive real diagonal; without that normalization the
    distribution would not be Haar.  The Ginibre matrix is left unscaled:
    a positive scale changes only the triangular factor.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    z = np.empty((m, m), dtype=complex)
    while True:
        z.real, z.imag = rng.standard_normal((2, m, m))
        q, r = np.linalg.qr(z)
        d = np.diagonal(r)
        if np.all(np.abs(d) > 0) and np.all(np.isfinite(q)):
            return q * (d / np.abs(d))


def _cue_unitary(m: int, rng: np.random.Generator) -> np.ndarray:
    """An m x m unitary whose eigenvalues have the law of a Haar unitary's.

    The CMV matrix C = L M of Killip and Nenciu (IMRN 2004): L is the block sum
    T_0 + T_2 + ... and M is 1 + T_1 + T_3 + ..., where the block
    T_k = [[conj(a_k), r_k], [r_k, -a_k]] sits on rows and columns k, k + 1,
    r_k = sqrt(1 - |a_k|^2), and the last block is the 1 x 1 conj(a_{m-1}).
    The a_k are independent with uniform phases, |a_k|^2 ~ Beta(1, m - k - 1)
    for k < m - 1, and |a_{m-1}| = 1.  Draws m - 1 radii, then m phases; C has
    at most 4 nonzeros per row.
    """
    radius2 = np.append(1 - rng.random(m - 1) ** (1 / np.arange(m - 1, 0, -1)), 1.0)
    # Index k + 1 holds a_k and r_k; a_{-1} = -1 with r_{-1} = 0 makes M's leading 1
    # the lower corner of a block T_{-1} that the matrix cuts off.
    a = np.append(-1, np.sqrt(radius2) * np.exp(2j * np.pi * rng.random(m)))
    r = np.append(0.0, np.sqrt(1 - radius2))
    i = np.arange(m)

    def rows(first: int):
        """Per row of the block sum from T_first on: diagonal, off-diagonal and its column."""
        k = i - (i - first) % 2
        top = k == i
        diagonal = np.where(top, a[k + 1].conj(), -a[k + 1])
        return diagonal, r[k + 1], np.clip(np.where(top, i + 1, i - 1), 0, m - 1)

    diagonal, off, col = rows(1)
    right = np.zeros((m, m), dtype=complex)
    right[i, i] = diagonal
    right[i, col] += off  # a clipped column is the row's own, with off = r = 0
    # Each row of L has one partner row, so a row of L M mixes two rows of M.
    diagonal, off, col = rows(0)
    return diagonal[:, None] * right + off[:, None] * right[col]


def _trial_unitaries(cfg: SimConfig, rng: np.random.Generator) -> list[np.ndarray]:
    """One trial's U_1, ..., U_N: a CMV matrix with the Haar spectrum, then N - 1
    Haar unitaries, drawn in that order from rng.

    Tr X^p is a sum of traces of words in the U_i, which simultaneous conjugation
    leaves unchanged.  Conjugating by an independent Haar V keeps U_2..U_N Haar and
    makes V C V* Haar, so the traces have the law they have with U_1 Haar.
    """
    m = cfg.matrix_size
    return [_cue_unitary(m, rng)] + [haar_unitary(m, rng) for _ in range(cfg.alphabet_size - 1)]


def _power_traces(x: np.ndarray, max_power: int) -> np.ndarray:
    """Tr(X^p) for p = 1..max_power of a Hermitian X.

    Tr X^(a+b) = <X^a, X^b>, so powers up to ceil(max_power / 2) give every trace.
    """
    half = [x]
    while len(half) < (max_power + 1) // 2:
        half.append(half[-1] @ x)
    out = [np.trace(x).real]
    out += [np.vdot(half[p // 2 - 1], half[p - p // 2 - 1]).real for p in range(2, max_power + 1)]
    return np.array(out)


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

    Trial t draws its unitaries from child t of the seed: U_1 as a CMV matrix
    with the Haar spectrum, U_2..U_N as Haar matrices (see ``_trial_unitaries``).
    The traces follow the law of the all-Haar construction, but for a given seed
    they differ from those of versions that drew U_1 as a Haar matrix too.  They
    come from ceil(max_power / 2) - 1 matrix products.
    """
    traces = np.zeros((cfg.trials, cfg.max_power))
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.trials)

    for t in range(cfg.trials):
        s = sum(_trial_unitaries(cfg, np.random.default_rng(streams[t])))
        traces[t] = _power_traces(s + s.conj().T, cfg.max_power)
    return TraceSamples(cfg, traces)


def estimate_moment(samples: TraceSamples, p: int) -> tuple[float, float]:
    """Mean of Tr(X^p)/m over trials, with its standard error."""
    values = samples.power_traces(p) / samples.config.matrix_size
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(len(values)))


def _jackknife_cov(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    t = len(a)
    if t < 3:
        raise ValueError("need at least 3 trials for a jackknife standard error")
    with np.errstate(all="ignore"):  # an overflow is refused below, not warned about
        sa, sb, sab = a.sum(), b.sum(), (a * b).sum()
        est = float((sab - sa * sb / t) / (t - 1))
        loo = (sab - a * b - (sa - a) * (sb - b) / (t - 1)) / (t - 2)
        se = math.sqrt((t - 1) / t * np.sum((loo - loo.mean()) ** 2))
    if not (math.isfinite(est) and math.isfinite(se)):
        raise ValueError("the covariance or its standard error leaves float range")
    return est, se


def fluctuation_covariance(
    samples: TraceSamples, f: IntPolynomial, g: IntPolynomial
) -> tuple[float, float]:
    """Sample covariance of the unnormalized traces Tr(f(X)) and Tr(g(X)).

    Traces are centered at their sample means (the fluctuations carry no 1/m),
    and the standard error is a leave-one-out jackknife.  Adding a constant to
    f or g only shifts a trace by a constant, so the estimate is unchanged.
    Raises ValueError when the estimate or its standard error is not finite.
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

    @staticmethod
    def _offdiag(z: tuple[tuple[float, ...], ...]) -> list[float]:
        return [abs(v) for i, row in enumerate(z) for j, v in enumerate(row) if i != j]

    @property
    def basis_offdiag_ok(self) -> bool:
        return all(v <= self.z_threshold for v in self._offdiag(self.basis_z))

    @property
    def monomial_has_large_offdiag(self) -> bool:
        return any(v > self.z_threshold for v in self._offdiag(self.monomial_z))

    def to_json(self) -> dict:
        def block(prefix: str, flag: str) -> dict:
            names = {"covariance": "cov", "standard_error": "se", "z": "z"}
            out = {k: [list(r) for r in getattr(self, f"{prefix}_{a}")] for k, a in names.items()}
            return out | {flag: getattr(self, f"{prefix}_{flag}")}

        return {
            "k_max": self.k_max,
            "z_threshold": self.z_threshold,
            "polynomials": list(self.polynomials),
            "basis": block("basis", "offdiag_ok"),
            "monomial": block("monomial", "has_large_offdiag"),
        }


def _check_k_max(cfg: SimConfig, k_max: int) -> None:
    """Refuses a k_max outside 1..max_power, or one whose covariances' squares could
    leave float range.

    P_k = fluctuation_poly(k) is R_k = modified_chebyshev(k) plus a constant.  As
    R_k(ix) = i^k S_k(x) with S_(j+1) = x S_j + (2N-1) S_(j-1), S_0 = 2 and S_1 = x, R_k's
    |coefficients| times (2N)^j sum to S_k(2N) <= 2 t^k, t = N + sqrt(N^2 + 2N - 1) >= 2N.
    An even P_k's constant sums its other coefficients times Kesten moments <= (2N)^j.
    So, as |X| <= 2N, B = 4 m t^k bounds |Tr P_k(X)| and |Tr X^k|, and the jackknife
    sums trials squares of deviations of at most 12 B^2.
    """
    if not 1 <= k_max <= cfg.max_power:
        raise ValueError(f"k_max {k_max} outside 1..{cfg.max_power}")
    n_gens = cfg.alphabet_size
    log_t = math.log(n_gens + math.sqrt(n_gens**2 + 2 * n_gens - 1))
    room = math.log(sys.float_info.max / (144 * cfg.trials)) / 4 - math.log(4 * cfg.matrix_size)
    if k_max * log_t > room:
        raise ValueError(
            f"need k_max <= {math.floor(room / log_t)} for the covariances' squares in float range"
        )


def _cov_matrices(samples: TraceSamples, polys: list[IntPolynomial]):
    vals = [samples.poly_traces(p) for p in polys]
    cells = [[_jackknife_cov(a, b) for b in vals] for a in vals]  # (a, b) and (b, a) agree
    table = lambda f: tuple(tuple(f(*cell) for cell in row) for row in cells)
    return table(lambda c, s: c), table(lambda c, s: s), table(_zscore)


def diagonalization_from_samples(samples: TraceSamples, k_max: int) -> DiagonalizationReport:
    """Covariance/z matrices for the diagonalizing family and for monomials."""
    cfg = samples.config
    _check_k_max(cfg, k_max)
    polys = [fluctuation_poly(k, cfg.alphabet_size) for k in range(1, k_max + 1)]
    monos = [IntPolynomial.monomial(k) for k in range(1, k_max + 1)]
    bc, bs, bz = _cov_matrices(samples, polys)
    mc, ms, mz = _cov_matrices(samples, monos)
    return DiagonalizationReport(
        k_max, cfg.z_threshold, tuple(str(p) for p in polys), bc, bs, bz, mc, ms, mz
    )
