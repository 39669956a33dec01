"""Independent reference implementations used only to check the library.

Everything here deliberately uses a different algorithm from the code under
test: reduction by repeated literal rewriting instead of a stack, crossing
detection straight from the four-point definition, covers from explicit
interval lists, and the pairing built by scanning the infinitely repeated
word instead of rotating to a good offset.
"""

from __future__ import annotations

from itertools import combinations, product

from freecycle import HalfPairing, Word, cyclic_reduce, word_to_text
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


def naive_profile(w: Word, horizon: int) -> tuple[int, ...]:
    """Reduction lengths of the first 1..horizon letters of w w w ..., each
    prefix reduced from scratch by rewriting."""
    repeated = w.letters * (horizon // len(w.letters) + 1)
    return tuple(len(naive_linear_reduce(repeated[:i])) for i in range(1, horizon + 1))


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
