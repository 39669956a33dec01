"""Monte Carlo harness for trace fluctuations of sums of Haar unitaries.

Samples X = sum of U_i + U_i* over independent Haar-distributed m x m
unitaries, records Tr(X^p) per trial, and estimates (a) normalized trace
moments, which converge to the Kesten moments as m grows, and (b) covariances
of centered traces of polynomials in X.  The diagonalization report checks
statistically that the exact polynomial family from :mod:`.polynomials` kills
the off-diagonal covariances while plain monomials do not.

The traces depend on (U_1, ..., U_N) only up to simultaneous conjugation, so
U_1 is drawn as a sparse CMV matrix whose spectrum has the law of a Haar
unitary's (one O(m) draw), and only U_2..U_N as dense Haar matrices, each a
product of Householder reflectors (no QR).  The power traces come from matrix products.

Every trial draws from its own child stream of the master seed, so its draws
depend only on the seed and its index.  Trials run whole, each on one thread;
more than one thread runs them only when BLAS is pinned (OPENBLAS_NUM_THREADS
or OMP_NUM_THREADS) and m >= POOL_MIN_SIZE, and only as many as fit in
MAX_SAMPLE_BYTES (see ``_workers``).  So the traces do not depend on the number
of threads, but they are reproducible bit for bit only at a fixed BLAS thread
count: changing it can move the last digits.  The rule assumes an OpenBLAS
that read those variables when it loaded, as numpy's wheels do; it was
measured only there.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .polynomials import IntPolynomial, fluctuation_poly


# SimConfig refuses a run whose estimated memory exceeds this many bytes.
MAX_SAMPLE_BYTES = 2 << 30
# The smallest matrix size at which sample_traces runs trials on more than one thread.
POOL_MIN_SIZE = 100
_BLOCK = 32  # reflectors per block of haar_unitary's product


@dataclass(frozen=True)
class SimConfig:
    """Settings for one simulation run; equal configs give identical samples.

    Refuses, with ValueError, a run whose estimated memory exceeds MAX_SAMPLE_BYTES.
    """

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
        need = sum(_sample_bytes(self))  # on one thread; _workers adds only threads that fit
        if need > MAX_SAMPLE_BYTES:
            raise ValueError(f"the run needs about {need / 2**30:.3g} GiB, above the "
                             f"{MAX_SAMPLE_BYTES / 2**30:g} GiB limit (MAX_SAMPLE_BYTES)")


def haar_unitary(m: int, rng: np.random.Generator) -> np.ndarray:
    """An m x m unitary drawn from Haar measure, by Stewart's sampler.

    Householder QR of a complex Ginibre matrix reflects independent Gaussian vectors
    (Stewart, SIAM J. Numer. Anal. 17, 1980), so they are drawn directly, with no QR:
    x_0, ..., x_{m-1}, x_j of m - j complex entries, from m (m + 1) normals in that
    order, real and imaginary parts interleaved; a zero x_j0 is drawn again.  With
    p_j = -x_j0 / |x_j0|, H_j = I - tau_j v_j v_j* on rows j.. maps x_j to p_j ||x_j|| e_j,
    where v_j = x_j - p_j ||x_j|| e_j and 1/tau_j = ||v_j||^2 / 2.  H_0 ... H_{m-1} diag(p)
    is the unitary factor of the QR with positive diagonal.  It is built last block first
    as I - V T V*, T^-1 = striu(V* V) + diag(1/tau): matrix products, which release the GIL.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    upper = np.arange(m)[:, None] <= np.arange(m)
    g = np.zeros((m, m), dtype=complex)  # row j holds x_j from column j on, later Q
    while True:
        g[upper] = rng.standard_normal(m * (m + 1)).view(complex)
        x0 = g.ravel()[:: m + 1]
        size = np.abs(x0)
        if 0 < size.min() <= size.max() < math.inf:
            break
    phase = x0 / -size
    x0 -= phase * np.sqrt(np.einsum("ij,ij->i", g.view(float), g.view(float)))  # now v_j
    for j0 in range((m - 1) // _BLOCK * _BLOCK, -1, -_BLOCK):
        q, k = g[j0:, j0:], min(_BLOCK, m - j0)  # q[k:, k:] holds H_(j0+k) ... H_(m-1)
        vt = q[:k].copy()
        vh = vt.conj()
        t_inv = (vh @ vt.T) * (upper[:k, :k] - np.eye(k) / 2)
        q[:k] = np.eye(k, len(q))
        q -= vt.T @ (np.linalg.inv(t_inv) @ (vh @ q))
    g *= phase
    return g


def _cmv_entries(m: int, rng: np.random.Generator) -> tuple[tuple, np.ndarray]:
    """The nonzero entries of an m x m unitary whose eigenvalues have the law of a
    Haar unitary's, as (rows, columns) and values.

    The CMV matrix C = L M of Killip and Nenciu (IMRN 2004): L is the block sum
    T_0 + T_2 + ... and M is 1 + T_1 + T_3 + ..., where the block
    T_k = [[conj(a_k), r_k], [r_k, -a_k]] sits on rows and columns k, k + 1,
    r_k = sqrt(1 - |a_k|^2), and the last block is the 1 x 1 conj(a_{m-1}).
    The a_k are independent with uniform phases, |a_k|^2 ~ Beta(1, m - k - 1)
    for k < m - 1, and |a_{m-1}| = 1.  Draws m - 1 radii, then m phases.  Rows 2p
    and 2p + 1 of C are T_2p times the last row of T_{2p-1} and the first of T_{2p+1}.
    So with a0, a1, a2 = a_{2p-1}, a_{2p}, a_{2p+1}, and r alike, each nonzero is one
    product: [conj(a1) r0, -conj(a1) a0, r1 conj(a2), r1 r2] and
    [r1 r0, -r1 a0, -a1 conj(a2), -a1 r2] in columns 2p - 1..2p + 2.
    """
    radius2 = np.append(1 - rng.random(m - 1) ** (1 / np.arange(m - 1, 0, -1)), 1.0)
    # Index k + 1 holds a_k and r_k; a_{-1} = -1 with r_{-1} = 0 makes M's leading 1
    # the lower corner of a block T_{-1} that the matrix cuts off.  An odd m pads a_m = r_m = 0.
    pad = np.zeros(m % 2)
    a = np.concatenate(([-1], np.sqrt(radius2) * np.exp(2j * np.pi * rng.random(m)), pad))
    r = np.concatenate(([0.0], np.sqrt(1 - radius2), pad))
    (a0, a1, a2), (r0, r1, r2) = ((v[:-1:2], v[1::2], v[2::2]) for v in (a, r))
    # r1 * -a0, not -r1 * a0: the latter turns the zero imaginary part of C[1, 0] negative
    values = np.array([[a1.conj() * r0, -a1.conj() * a0, r1 * a2.conj(), r1 * r2],
                       [r1 * r0, r1 * -a0, -a1 * a2.conj(), -a1 * r2]])
    values = values.transpose(2, 0, 1).reshape(-1, 4)[:m]
    i = np.arange(m)
    cols = (i - 1 - i % 2)[:, None] + np.arange(4)
    keep = (cols >= 0) & (cols < m)
    return (np.broadcast_to(i[:, None], cols.shape)[keep], cols[keep]), values[keep]


def _power_traces(x: np.ndarray, max_power: int) -> np.ndarray:
    """Tr(X^p) for p = 1..max_power of the Hermitian X = S + S*, formed over the given S.

    Tr X^(a+b) = <X^a, X^b>, so powers up to ceil(max_power / 2) give every trace.
    """
    x += x.conj().T
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
        m, out = self.config.matrix_size, np.zeros(self.config.trials)
        if any(abs(c) * (1 if j else m) > sys.float_info.max for j, c in enumerate(poly.coeffs)):
            raise ValueError("a term of Tr(f(X)) leaves float range")
        with np.errstate(all="ignore"):  # an inf or nan is refused by _jackknife_cov
            for j, c in enumerate(poly.coeffs):
                if c:
                    out += c * (m if j == 0 else self.traces[:, j - 1])
        return out


def _trial_sum(cfg: SimConfig, rng: np.random.Generator) -> np.ndarray:
    """One trial's U_1 + ... + U_N: a CMV matrix with the Haar spectrum, then N - 1
    Haar unitaries, drawn in that order from rng and summed in that order.

    Tr X^p is a sum of traces of words in the U_i, which simultaneous conjugation
    leaves unchanged.  Conjugating by an independent Haar V keeps U_2..U_N Haar and
    makes V C V* Haar, so the traces have the law they have with U_1 Haar.  C's
    nonzeros are added straight into the sum, which is never a dense C.
    """
    m = cfg.matrix_size
    index, values = _cmv_entries(m, rng)
    s = haar_unitary(m, rng) if cfg.alphabet_size > 1 else np.zeros((m, m), dtype=complex)
    s[index] += values
    for _ in range(cfg.alphabet_size - 2):
        s += haar_unitary(m, rng)
    return s


def _sample_bytes(cfg: SimConfig) -> tuple[int, int]:
    """Estimated bytes of sample_traces: per thread, then once for the traces.

    Per thread, N + ceil(P/2) + 4 m x m matrices bound the sum, X's half powers and
    haar_unitary's peak of about 2.6: Q, which holds the draw, a block's product and V, V*.
    """
    m, power = cfg.matrix_size, cfg.max_power
    return (cfg.alphabet_size + (power + 1) // 2 + 4) * m * m * 16, cfg.trials * power * 8


def _workers(cfg: SimConfig) -> int:
    """Threads for sample_traces: the usable CPUs over the BLAS threads, at most
    trials and at most as many as fit in MAX_SAMPLE_BYTES.

    One thread when neither OPENBLAS_NUM_THREADS nor, after it, OMP_NUM_THREADS sets
    the BLAS threads, since BLAS then runs a thread per core itself, or when
    m < POOL_MIN_SIZE, where the trials hold the GIL more than they release it.
    The variables are read at call time: the rule assumes they also set the
    BLAS threads when BLAS loaded, which holds for OpenBLAS configured from the
    environment but not when they are set after numpy is imported, nor for MKL
    (MKL_NUM_THREADS) or Accelerate.
    """
    values = (os.environ.get(name, "") for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    blas = next((int(v) for v in values if v.isdigit() and int(v) > 0), None)
    if blas is None or cfg.matrix_size < POOL_MIN_SIZE:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        cpus = os.cpu_count() or 1
    per_thread, traces = _sample_bytes(cfg)
    return max(1, min(cfg.trials, cpus // blas, (MAX_SAMPLE_BYTES - traces) // per_thread))


def _sample_traces(cfg: SimConfig, workers: int) -> TraceSamples:
    """sample_traces on the calling thread and workers - 1 more, which take trials
    from one queue; a failed trial stops every thread after its current trial."""
    traces = np.zeros((cfg.trials, cfg.max_power))
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.trials)
    pending = iter(range(cfg.trials))  # shared: next() on it holds the GIL
    failures: list[BaseException] = []

    def work() -> None:
        try:
            for t in pending:
                # Passed unnamed, a trial's sum is freed before the next trial draws.
                traces[t] = _power_traces(
                    _trial_sum(cfg, np.random.default_rng(streams[t])), cfg.max_power
                )
        except BaseException as exc:
            failures.append(exc)
            for _ in pending:
                pass

    helpers = [threading.Thread(target=work) for _ in range(workers - 1)]
    for helper in helpers:
        helper.start()
    work()
    for helper in helpers:
        helper.join()
    if failures:
        raise failures[0]
    return TraceSamples(cfg, traces)


def sample_traces(cfg: SimConfig) -> TraceSamples:
    """Run all trials and record Tr(X^p) for p = 1..max_power.

    Trial t draws its unitaries from child t of the seed: U_1 as a CMV matrix
    with the Haar spectrum, U_2..U_N as Haar matrices (see ``_trial_sum``).
    The traces follow the law of the all-Haar construction, but for a given seed
    they differ from those of versions that drew U_1 as a Haar matrix too.  They
    come from ceil(max_power / 2) - 1 matrix products.  Trials run on
    ``_workers`` threads, each trial whole on one thread, so the traces do not
    depend on the number of threads.
    """
    return _sample_traces(cfg, _workers(cfg))


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
