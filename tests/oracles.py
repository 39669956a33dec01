"""Independent reference implementations used only to check the library.

Everything here deliberately uses a different algorithm from the code under
test: reduction by repeated literal rewriting instead of a stack, the prefix-reduction
profile by a letter stack over its whole horizon instead of the cycle-lemma heights, crossing
detection straight from the four-point definition (block against block for
long pairings), covers from explicit interval lists, the pairing built by
scanning the infinitely repeated word instead of rotating to a good offset,
Kesten moments from a walk on reduced lengths instead of a sum of ballot
numbers, the x^n and P_n checks over every spelled class instead of one class
per orbit, Haar unitaries from QR of a Ginibre matrix instead of drawn reflectors,
the reflectors' product one dense factor at a time instead of by blocks, and Monte
Carlo traces from an all-Haar construction and eigenvalues.
"""

from __future__ import annotations

from itertools import accumulate, combinations, product

from freecycle import (
    Census,
    HalfPairing,
    Word,
    cyclic_reduce,
    cyclically_reduced_words,
    fluctuation_poly,
    fluctuation_poly_recurrence,
    reduction_class_size,
    standard_cyclic_reduction,
    word_to_text,
)
from freecycle.words import default_profile_horizon


def naive_linear_reduce(letters: tuple[int, ...]) -> tuple[int, ...]:
    """Remove the leftmost adjacent inverse pair until none remains."""
    out = list(letters)
    while True:
        for i in range(len(out) - 1):
            if out[i] == -out[i + 1]:
                del out[i : i + 2]
                break
        else:
            return tuple(out)


def naive_standard_decomposition(letters: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """(prefix, core, suffix) in the documented strip order, testing by rewriting:
    a cancelling end pair first, then the longest prefix that reduces to 1, then
    the longest such suffix, until none is left to strip."""
    lo, hi = 0, len(letters)
    while lo < hi:
        core = letters[lo:hi]
        if len(core) >= 2 and core[0] == -core[-1]:
            lo, hi = lo + 1, hi - 1
            continue
        ends = range(len(core), 0, -1)
        prefix = next((i for i in ends if not naive_linear_reduce(core[:i])), 0)
        if prefix:
            lo += prefix
            continue
        suffix = next((i for i in ends if not naive_linear_reduce(core[-i:])), 0)
        if not suffix:
            break
        hi -= suffix
    return letters[:lo], letters[lo:hi], letters[hi:]


def naive_profile(w: Word, horizon: int) -> tuple[int, ...]:
    """Reduction lengths of the first 1..horizon letters of w w w ..., each
    prefix reduced from scratch by rewriting."""
    repeated = w.letters * (horizon // len(w.letters) + 1)
    return tuple(len(naive_linear_reduce(repeated[:i])) for i in range(1, horizon + 1))


def stack_profile(w: Word, horizon: int) -> tuple[int, tuple[int, ...], int]:
    """(k, values, period_start) of w repeated: a stack of letters over the whole
    horizon, the running sum of its +-1 steps, and a scan of every index, high to
    low, for the last that breaks t_{i+n} = t_i + k."""
    letters, n = w.letters, len(w.letters)
    core = list(naive_linear_reduce(letters))
    while len(core) >= 2 and core[0] == -core[-1]:
        core = core[1:-1]
    k = len(core)
    stack: list[int] = []
    steps = []
    for i in range(horizon):
        l = letters[i % n]
        if stack and stack[-1] == -l:
            stack.pop()
            steps.append(-1)
        else:
            stack.append(l)
            steps.append(1)
    values = tuple(accumulate(steps))
    period_start = 1
    for i in range(horizon - n, 0, -1):
        if values[i - 1 + n] != values[i - 1] + k:
            period_start = i + 1
            break
    return k, values, period_start


def is_dominating(signs: list[int]) -> bool:
    """Every partial sum of the +/-1 string is strictly positive."""
    total = 0
    for s in signs:
        total += s
        if total <= 0:
            return False
    return True


def naive_is_noncrossing(blocks: list[tuple[int, ...]]) -> bool:
    """Four-point definition: no i1<i2<i3<i4 with i1~i3, i2~i4, i1 !~ i2."""
    block_of = {}
    for idx, b in enumerate(blocks):
        for x in b:
            block_of[x] = idx
    points = sorted(block_of)
    for i1, i2, i3, i4 in combinations(points, 4):
        if (
            block_of[i1] == block_of[i3]
            and block_of[i2] == block_of[i4]
            and block_of[i1] != block_of[i2]
        ):
            return False
    return True


def interval_is_half_pairing(p: HalfPairing) -> bool:
    """The half-pairing rules checked block against block with array comparisons.

    The blocks must partition 1..n with at least one singleton; no two chords
    (a, b) and (c, d) may satisfy the four-point crossing a < c < b < d; and no
    chord may hold some singletons strictly inside it and others outside, which
    is the four-point crossing with the merged singleton block.  Quadratic in
    the chords, for pairings too long for ``naive_is_noncrossing``.
    """
    import numpy as np

    ends = sorted(x for pair in p.pairs for x in pair)
    if not p.singletons or sorted(ends + list(p.singletons)) != list(range(1, p.n + 1)):
        return False
    chords = np.array(sorted(p.pairs), dtype=int).reshape(-1, 2)
    a, b = chords.min(axis=1), chords.max(axis=1)
    crossing = (a[:, None] < a) & (a < b[:, None]) & (b[:, None] < b)
    singles = np.array(sorted(p.singletons))
    inside = np.searchsorted(singles, b) - np.searchsorted(singles, a)
    return not crossing.any() and bool(np.all((inside == 0) | (inside == len(singles))))


def pair_singleton_partitions(n: int) -> list[list[tuple[int, ...]]]:
    """All partitions of 1..n into blocks of size one or two."""
    def rec(points: tuple[int, ...]) -> list[list[tuple[int, ...]]]:
        if not points:
            return [[]]
        first, rest = points[0], points[1:]
        result = [[(first,)] + tail for tail in rec(rest)]
        for i, other in enumerate(rest):
            reduced = rest[:i] + rest[i + 1 :]
            result += [[(first, other)] + tail for tail in rec(reduced)]
        return result

    return rec(tuple(range(1, n + 1)))


def brute_force_half_pairings(n: int) -> list[HalfPairing]:
    """Half-pairings on 1..n found by filtering every pair/singleton partition."""
    found = []
    for blocks in pair_singleton_partitions(n):
        singles = [b for b in blocks if len(b) == 1]
        if not singles:
            continue
        merged = [b for b in blocks if len(b) == 2] + [tuple(s[0] for s in singles)]
        if naive_is_noncrossing(blocks) and naive_is_noncrossing(merged):
            found.append(
                HalfPairing(
                    n,
                    frozenset(b for b in blocks if len(b) == 2),
                    frozenset(s[0] for s in singles),
                )
            )
    return found


def naive_good_rotations(w: Word) -> list[int]:
    """Offsets r whose rotation has good reduction, testing every rotation:
    no nonempty prefix reduces to 1, and the reduction's end letters do not cancel."""
    letters = w.letters
    good = []
    for r in range(len(letters)):
        stack: list[int] = []
        for l in letters[r:] + letters[:r]:
            if stack and stack[-1] == -l:
                stack.pop()
                if not stack:
                    break
            else:
                stack.append(l)
        else:
            if stack[0] != -stack[-1]:
                good.append(r)
    return good


def naive_census(n: int, alphabet_size: int) -> dict[str, int]:
    """Tally every length-n word by its letters at the good rotations that
    ``naive_good_rotations`` finds, keyed by their text."""
    alphabet = [s * g for g in range(1, alphabet_size + 1) for s in (1, -1)]
    counts: dict[str, int] = {}
    for letters in product(alphabet, repeat=n):
        w = Word(alphabet_size, letters)
        key = word_to_text(Word(alphabet_size, tuple(letters[r] for r in naive_good_rotations(w))))
        counts[key] = counts.get(key, 0) + 1
    return counts


def plain_census(n: int, alphabet_size: int) -> dict[str, int]:
    """Tally the standard cyclic reduction of every length-n word, one word at a time,
    in product order over the letters 1..N, -1..-N, keyed by text."""
    alphabet = [*range(1, alphabet_size + 1), *range(-1, -alphabet_size - 1, -1)]
    counts: dict[str, int] = {}
    for letters in product(alphabet, repeat=n):
        key = word_to_text(standard_cyclic_reduction(Word(alphabet_size, letters)))
        counts[key] = counts.get(key, 0) + 1
    return counts


def naive_is_word_pairing(w: Word, p: HalfPairing) -> bool:
    """Pairs join inverse letters, and the through letters are cyclically reduced
    and a rotation of the rewriting oracle's cyclic reduction of w."""
    letters = w.letters
    if any(letters[a - 1] != -letters[b - 1] for a, b in p.pairs):
        return False
    through = tuple(letters[i - 1] for i in sorted(p.singletons))
    if naive_linear_reduce(through) != through or through[0] == -through[-1]:
        return False
    core = naive_linear_reduce(letters)
    while len(core) >= 2 and core[0] == -core[-1]:
        core = core[1:-1]
    return len(core) == len(through) and any(
        core[r:] + core[:r] == through for r in range(len(core))
    )


def naive_cover_relation(p: HalfPairing) -> set[tuple[int, int]]:
    """Covers from explicit interval lists: no singleton inside, no pair straddling."""
    from freecycle.pairings import _out_points

    outs = _out_points(p)
    covers = set()
    for i in outs:
        for j in outs:
            if i == j:
                continue
            interval = []
            t = i % p.n + 1
            while t != j:
                interval.append(t)
                t = t % p.n + 1
            inside = set(interval)
            if inside & p.singletons:
                continue
            if any(len(inside & {a, b}) == 1 for a, b in p.pairs):
                continue
            covers.add((i, j))
    return covers


def scan_half_pairing(w: Word) -> HalfPairing:
    """Pair the infinitely repeated word greedily left to right, then read off
    one period once the chord pattern repeats."""
    letters = w.letters
    n = len(letters)
    k = len(cyclic_reduce(w).letters)
    assert k >= 1
    horizon = default_profile_horizon(n, k) + 2 * n
    stack: list[int] = []
    pairs: list[tuple[int, int]] = []
    for pos in range(horizon):
        l = letters[pos % n]
        if stack and letters[stack[-1] % n] == -l:
            pairs.append((stack.pop(), pos))
        else:
            stack.append(pos)
    window = horizon - 2 * n
    in_window = [(a, b) for a, b in pairs if window <= a < window + n]
    previous = [(a, b) for a, b in pairs if window - n <= a < window]
    assert {(a + n, b + n) for a, b in previous} == set(in_window), "pattern not periodic yet"
    chords = frozenset((a % n + 1, b % n + 1) for a, b in in_window)
    covered = {x for chord in chords for x in chord}
    assert len(covered) == 2 * len(chords)
    singles = frozenset(set(range(1, n + 1)) - covered)
    return HalfPairing(n, chords, singles)


def trace_by_matrix_powers(x, p_max: int) -> list[complex]:
    """Tr(X^p) for p = 1..p_max by repeated multiplication."""
    import numpy as np

    traces = []
    acc = np.eye(x.shape[0], dtype=complex)
    for _ in range(p_max):
        acc = acc @ x
        traces.append(complex(np.trace(acc)))
    return traces


def dense_cmv(m: int, rng):
    """The CMV matrix that ``rmt._cmv_entries`` gives for the same draws (m - 1 radii,
    then m phases), built as dense L and M from their 2 x 2 blocks.  Row i of L M is
    the sum of L[i, k] M[k] over the nonzero L[i, k], k ascending."""
    import numpy as np

    radius2 = np.append(1 - rng.random(m - 1) ** (1 / np.arange(m - 1, 0, -1)), 1.0)
    a = np.sqrt(radius2) * np.exp(2j * np.pi * rng.random(m))
    r = np.sqrt(1 - radius2)

    def block_sum(first: int):
        out = np.zeros((m, m), dtype=complex)
        out[0, 0] = first  # M's leading 1
        for k in range(first, m, 2):
            block = [[a[k].conj(), r[k]], [r[k], -a[k]]] if k + 1 < m else [[a[k].conj()]]
            out[k:k + 2, k:k + 2] = block
        return out

    left, right = block_sum(0), block_sum(1)
    c = np.zeros((m, m), dtype=complex)
    for i in range(m):
        for k in np.flatnonzero(left[i]):
            c[i] += left[i, k] * right[k]
    return c


def qr_haar_unitary(m: int, rng):
    """A Haar m x m unitary as the QR unitary factor of a complex Ginibre matrix (real
    parts drawn first, then imaginary parts), with its column phases fixed so that
    the triangular factor has a positive real diagonal (Mezzadri, Notices AMS 54,
    2007).  It shares no code with ``rmt.haar_unitary``."""
    import numpy as np

    z = np.empty((m, m), dtype=complex)
    while True:
        z.real, z.imag = rng.standard_normal((2, m, m))
        q, r = np.linalg.qr(z)
        d = np.diagonal(r)
        if np.all(np.abs(d) > 0) and np.all(np.isfinite(q)):
            return q * (d / np.abs(d))


def householder_product(m: int, rng):
    """``rmt.haar_unitary`` for the same draws, one dense reflector at a time: source
    x_j takes the next m - j complex entries of m (m + 1) normals, and
    H_j = I - tau_j v_j v_j* with v_j = x_j - alpha_j e_j, alpha_j = -(x_j0 / |x_j0|) ||x_j||
    and 1/tau_j = ||x_j|| (||x_j|| + |x_j0|).  Returns H_0 ... H_{m-1} with column j
    times alpha_j / |alpha_j|."""
    import numpy as np

    sources = rng.standard_normal(m * (m + 1)).view(complex)
    u = np.eye(m, dtype=complex)
    for j in range(m):
        x, sources = sources[: m - j], sources[m - j:]
        norm = np.sqrt(np.sum(np.abs(x) ** 2))
        alpha = -(x[0] / abs(x[0])) * norm
        v = np.zeros(m, dtype=complex)
        v[j:] = x
        v[j] -= alpha
        tau = 1 / (norm * (norm + abs(x[0])))
        u = u @ (np.eye(m) - tau * np.outer(v, v.conj()))
        u[:, j] *= alpha / abs(alpha)  # H_(j+1).. leave column j alone
    return u


def trial_unitaries(cfg, rng):
    """One trial's U_1, ..., U_N as dense matrices, drawn in the order of
    ``rmt._trial_sum``: the CMV factor, then N - 1 Haar unitaries."""
    from freecycle import haar_unitary

    m = cfg.matrix_size
    return [dense_cmv(m, rng)] + [haar_unitary(m, rng) for _ in range(cfg.alphabet_size - 1)]


def haar_sample_traces(cfg):
    """Tr(X^p) per trial, p = 1..max_power, with every U_i a dense Haar matrix drawn
    by ``qr_haar_unitary`` from the trial's own child stream and the traces summed
    from eigenvalues."""
    import numpy as np

    m = cfg.matrix_size
    powers = np.arange(1, cfg.max_power + 1)
    traces = np.zeros((cfg.trials, cfg.max_power))
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.trials)
    for t in range(cfg.trials):
        rng = np.random.default_rng(streams[t])
        x = np.zeros((m, m), dtype=complex)
        for _ in range(cfg.alphabet_size):
            u = qr_haar_unitary(m, rng)
            x += u + u.conj().T
        eig = np.linalg.eigvalsh(x)
        traces[t] = np.sum(eig[:, None] ** powers, axis=0)
    return traces


def cyclically_reduced_count(k: int, alphabet_size: int) -> int:
    """Number of cyclically reduced words of length k >= 1, in closed form."""
    return (2 * alphabet_size - 1) ** k + 1 + (alphabet_size - 1) * (1 + (-1) ** k)


def walk_kesten_moments(n: int, alphabet_size: int) -> list[int]:
    """kesten_moment(i) for i = 0..n, from one walk on the reduced length of the prefix.

    From length 0 all 2N letters ascend, from positive length 2N-1 ascend and
    one descends.  After i letters only the lengths up to min(i, n - i) are
    kept, since a longer prefix cannot return to 0 within n letters, and only
    those of the parity of i can be reached.
    """
    counts = [1]
    moments = [1]
    for i in range(1, n + 1):
        top = min(i, n - i)
        nxt = [0] * (top + 1)
        for length in range(1 - i % 2, len(counts), 2):
            ways = counts[length]
            if length < top:
                nxt[length + 1] += ways * (2 * alphabet_size - (length > 0))
            if length > 0:
                nxt[length - 1] += ways
        counts = nxt
        moments.append(counts[0])
    return moments


def second_order_limits(k_max: int, alphabet_size: int) -> tuple[list[list[int]], list[int]]:
    """The m -> infinity limits of Cov(Tr X^i, Tr X^j), i, j = 1..k_max, and of the
    variances of Tr P_k(X), k = 1..k_max, for X = sum of U_i + U_i* over Haar U_i.

    Second-order freeness (Mingo, Sniady and Speicher 2007) gives
    Cov(Tr U_v, conj Tr U_w) -> the number of rotations r with v = rot_r(w), for
    cyclically reduced v and w.  Tr P_k(X) sums Tr U_v over the cyclically reduced
    words of length k, which rotation permutes, so its variance tends to k |CR_k| and
    its covariance with P_l, l != k, to 0.  Tr x^i sums s(i, k) times Tr P_k over k,
    with s the class sizes, plus a constant.
    """
    diagonal = [k * cyclically_reduced_count(k, alphabet_size) for k in range(1, k_max + 1)]
    s = [[reduction_class_size(i, k, alphabet_size) for k in range(1, k_max + 1)]
         for i in range(1, k_max + 1)]
    monomial = [[sum(a * b * d for a, b, d in zip(s[i], s[j], diagonal)) for j in range(k_max)]
                for i in range(k_max)]
    return monomial, diagonal


def _spelled_violations(label: str, got: dict[str, int], want: dict[str, int]) -> list[str]:
    return [
        f"{label}: class {key!r} counted {got.get(key, 0)}, predicted {want.get(key, 0)}"
        for key in sorted(got.keys() | want.keys())
        if got.get(key, 0) != want.get(key, 0)
    ]


def spelled_power_report(tally: Census) -> tuple[list[str], int]:
    """verify_power_expansion's violations and total for a census, from its spelled
    counts against every cyclically reduced word of each length, listed and spelled."""
    n, n_gens = tally.length, tally.alphabet_size
    kesten = walk_kesten_moments(n, n_gens)[n]
    expected = {
        word_to_text(v): reduction_class_size(n, k, n_gens) if k else kesten
        for k in range(n, -1, -2)
        for v in cyclically_reduced_words(k, n_gens)
    }
    violations = _spelled_violations("census", dict(tally.counts), expected)
    total = sum(tally.counts.values())
    if total != (2 * n_gens) ** n:
        violations.append(f"census total {total} != {(2 * n_gens) ** n}")
    return violations, total


def spelled_poly_report(
    n: int, n_gens: int, censuses: dict[int, Census]
) -> tuple[bool, int | None, list[str]]:
    """verify_poly_expansion's (triangle_exact, recurrence_residual, violations), with
    both polynomials expanded over the spelled counts of each census and compared to
    every cyclically reduced word of length n, listed and spelled."""
    target = {word_to_text(v): 1 for v in cyclically_reduced_words(n, n_gens)}

    def expand(p):
        acc: dict[str, int] = {}
        for j, c in enumerate(p.coeffs):
            for key, count in censuses[j].counts.items() if c else ():
                acc[key] = acc.get(key, 0) + c * count
        return {key: v for key, v in acc.items() if v}

    violations = _spelled_violations("triangle", expand(fluctuation_poly(n, n_gens)), target)
    triangle_exact = not violations
    rec = expand(fluctuation_poly_recurrence(n, n_gens, "x"))
    residual = rec.pop("", 0)
    if rec != target:
        residual = None
        violations.append("recurrence: expansion differs from Q_n by more than a constant")
    return triangle_exact, residual, violations
