"""Exact counts of words by their standard cyclic reduction.

For k >= 1, the number of length-n words whose standard cyclic reduction is a
given reduced word of length k depends only on n, k and the alphabet size:
(2N-1)^((n-k)/2) * C(n, (n-k)/2).  The k = 0 class (words reducible to the
identity) follows no such formula; its sizes are the moments of the Kesten
measure and come from a walk on reduced lengths.  The census enumerates every
word of a given length outright and tallies reductions, which is what the
formula and the moments are verified against.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import islice, product
from types import MappingProxyType
from typing import Mapping

from .pairings import _standard_reduction_letters
from .words import Word, parse_word, word_to_text

DEFAULT_BUDGET = 100_000_000


class BudgetExceededError(ValueError):
    """An exhaustive enumeration would exceed the configured word-step budget."""


def reduction_class_size(n: int, k: int, alphabet_size: int) -> int:
    """Number of length-n words whose standard cyclic reduction is any fixed
    cyclically reduced word of length k >= 1 (independent of which one)."""
    if n < 1 or k < 1 or alphabet_size < 1:
        if k == 0:
            raise ValueError("k = 0 classes follow no product formula; use kesten_moment")
        raise ValueError("need n >= 1, k >= 1, alphabet_size >= 1")
    if k > n or (n - k) % 2:
        return 0
    half = (n - k) // 2
    return (2 * alphabet_size - 1) ** half * math.comb(n, half)


def kesten_moment(n: int, alphabet_size: int) -> int:
    """Number of length-n words over 2N letters that reduce to the identity.

    Dynamic programming over the reduced length of the prefix: from length 0
    all 2N letters ascend, from positive length 2N-1 ascend and one descends.
    These are the moments of the spectral measure of the sum of all generators
    and their inverses.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    if alphabet_size < 1:
        raise ValueError("need alphabet_size >= 1")
    counts = [1] + [0] * n
    for _ in range(n):
        nxt = [0] * (n + 1)
        for length, ways in enumerate(counts):
            if not ways:
                continue
            if length + 1 <= n:
                nxt[length + 1] += ways * (2 * alphabet_size - (length > 0))
            if length > 0:
                nxt[length - 1] += ways
        counts = nxt
    return counts[0]


def cyclically_reduced_words(k: int, alphabet_size: int) -> list[Word]:
    """All cyclically reduced words of length k, in lexicographic letter order."""
    if k < 0 or alphabet_size < 1:
        raise ValueError("need k >= 0 and alphabet_size >= 1")
    if k == 0:
        return [Word(alphabet_size, ())]
    # Extending each prefix of a level by the sorted alphabet keeps the next in order.
    alphabet = sorted(g for a in range(1, alphabet_size + 1) for g in (a, -a))
    level = [(l,) for l in alphabet]
    for _ in range(k - 1):
        level = [p + (l,) for p in level for l in alphabet if l != -p[-1]]
    return [Word(alphabet_size, p) for p in level if p[-1] != -p[0]]


@dataclass(frozen=True)
class Census:
    """Exact tally of standard cyclic reductions over all words of one length."""

    alphabet_size: int
    length: int
    counts: Mapping[str, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def to_json(self) -> dict:
        return {
            "alphabet_size": self.alphabet_size,
            "length": self.length,
            "counts": dict(sorted(self.counts.items())),
        }

    def csv_rows(self) -> list[tuple[str, int, int]]:
        return [
            (key, len(parse_word(key, self.alphabet_size)), count)
            for key, count in sorted(self.counts.items())
        ]


def _census_range(n: int, alphabet_size: int, start: int, stop: int) -> dict[str, int]:
    """Tally standard reductions for word indices in [start, stop).

    Words are indexed in ``product`` order over the letters 1..N, -1..-N, last
    letter fastest, so a range maps to a contiguous slab of words.
    Tallies are kept on letter tuples; each class is rendered to text once.
    """
    symbols = [*range(1, alphabet_size + 1), *range(-1, -alphabet_size - 1, -1)]
    counts: dict[tuple[int, ...], int] = {}
    for letters in islice(product(symbols, repeat=n), start, stop):
        key = _standard_reduction_letters(letters)
        counts[key] = counts.get(key, 0) + 1
    return {word_to_text(Word(alphabet_size, key)): count for key, count in counts.items()}


def _census_words(n: int, alphabet_size: int, budget: int) -> int:
    """The (2N)^n words of census(n, N); refuses if (2N)^n * n word-steps exceed budget."""
    total = (2 * alphabet_size) ** n
    steps = total * max(n, 1)
    if steps > budget:
        raise BudgetExceededError(
            f"census({n}, {alphabet_size}) needs {steps} word-steps, budget is {budget}"
        )
    return total


def census(
    n: int,
    alphabet_size: int,
    *,
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
    cache: bool = True,
) -> Census:
    """Standard cyclic reduction tally over all (2N)^n words of length n.

    Exhaustive and exact; refuses to run (rather than approximating) when the
    enumeration would exceed ``budget`` word-steps.  ``jobs`` splits the
    counter range across processes, at most one per core; results do not
    depend on the split.  Results are not cached, so ``cache`` has no effect.
    """
    if n < 0 or alphabet_size < 1:
        raise ValueError("need n >= 0 and alphabet_size >= 1")
    total = _census_words(n, alphabet_size, budget)
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1:
        counts = _census_range(n, alphabet_size, 0, total)
    else:
        from concurrent.futures import ProcessPoolExecutor

        bounds = [total * i // jobs for i in range(jobs + 1)]
        counts = {}
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = pool.map(
                _census_range,
                [n] * jobs,
                [alphabet_size] * jobs,
                bounds[:-1],
                bounds[1:],
            )
            for chunk in chunks:
                for k_, v in chunk.items():
                    counts[k_] = counts.get(k_, 0) + v
    return Census(alphabet_size, n, MappingProxyType(counts))


def _violations(label: str, got: Mapping[str, int], want: Mapping[str, int]) -> list[str]:
    """One line per class whose count in ``got`` differs from ``want``; absent counts 0."""
    return [
        f"{label}: class {key!r} counted {got.get(key, 0)}, predicted {want.get(key, 0)}"
        for key in sorted(got.keys() | want.keys())
        if got.get(key, 0) != want.get(key, 0)
    ]


@dataclass(frozen=True)
class ExpansionReport:
    """Result of checking the census against the predicted class sizes."""

    length: int
    alphabet_size: int
    ok: bool
    total: int
    violations: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "length": self.length,
            "alphabet_size": self.alphabet_size,
            "ok": self.ok,
            "total": self.total,
            "violations": list(self.violations),
        }


def verify_power_expansion(
    n: int, alphabet_size: int, *, budget: int = DEFAULT_BUDGET
) -> ExpansionReport:
    """Check that the census of length-n words matches the predicted expansion.

    Every cyclically reduced word of length k (same parity as n, 1 <= k <= n)
    must appear exactly reduction_class_size(n, k) times, the empty reduction
    exactly kesten_moment(n) times for even n, and nothing else may appear;
    the counts must add up to (2N)^n.
    """
    tally = census(n, alphabet_size, budget=budget)
    kesten = kesten_moment(n, alphabet_size)
    expected = {
        word_to_text(v): reduction_class_size(n, k, alphabet_size) if k else kesten
        for k in range(n, -1, -2)
        for v in cyclically_reduced_words(k, alphabet_size)
    }
    violations = _violations("census", tally.counts, expected)
    total = tally.total
    if total != (2 * alphabet_size) ** n:
        violations.append(f"census total {total} != {(2 * alphabet_size) ** n}")
    return ExpansionReport(n, alphabet_size, not violations, total, tuple(violations))
