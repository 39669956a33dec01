"""Exact counts of words by their standard cyclic reduction.

For k >= 1, the number of length-n words whose standard cyclic reduction is a
given reduced word of length k depends only on n, k and the alphabet size:
(2N-1)^((n-k)/2) * C(n, (n-k)/2).  The k = 0 class (words reducible to the
identity) follows no such product; its sizes are the moments of the Kesten
measure, a sum of ballot numbers over closed walks on the tree.  The census,
which the formula and the moments are verified against, is an exact tally over
every word of a given length, one word per orbit of rotations and signed
generator relabelings.  A relabeling keeps every test of whether two letters
cancel, so it carries the standard reduction of a word to that of its image;
by the cycle lemma, rotating a word past c good rotations rotates its
standard reduction by c.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import permutations, product
from operator import add
from types import MappingProxyType
from typing import Mapping

from .words import _ALPHABET, Word, _good_rotations, parse_word, word_to_text

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

    These are the moments of the spectral measure of the sum of all generators
    and their inverses.  Such a word is a closed walk on the 2N-regular tree,
    and its distance from the root is a Dyck path.  Of those with n = 2h steps,
    r C(2h-r, h) / (2h-r) return to the root r times (a ballot number, so the
    division is exact).  Each of the r steps up from the root has 2N letters,
    each other step up 2N-1, and each step down 1.  Each term is the one
    above it, r + 1, times an exact ratio.

    >>> [kesten_moment(n, 2) for n in range(0, 9, 2)]
    [1, 4, 28, 232, 2092]
    """
    if n < 0:
        raise ValueError("need n >= 0")
    if alphabet_size < 1:
        raise ValueError("need alphabet_size >= 1")
    if n % 2:
        return 0
    h, q = n // 2, 2 * alphabet_size - 1
    term = total = (q + 1) ** h  # r = h
    for r in range(h, 1, -1):
        term = term * (r - 1) * (2 * h - r) * q // (r * (h - r + 1) * (q + 1))
        total += term
    return total


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
    """Exact tally of standard cyclic reductions over all words of one length.

    ``counts`` maps each class, spelled by ``word_to_text``, to its number of
    words.  A census from ``census`` keeps ``orbits``: each canonical class
    (generators in order of first use, each first use positive) mapped to the
    count its orbit of signed relabelings shares, and spells ``counts`` from
    them on first use.  ``Census(N, n, counts)`` holds text counts alone.
    """

    alphabet_size: int
    length: int
    text_counts: Mapping[str, int] | None = None
    orbits: Mapping[tuple[int, ...], int] | None = None

    def __post_init__(self) -> None:
        if (self.text_counts is None) == (self.orbits is None):
            raise ValueError("a census holds exactly one of text_counts and orbits")

    @cached_property
    def counts(self) -> Mapping[str, int]:
        if self.orbits is None:
            return self.text_counts
        return MappingProxyType(_spell(self.orbits, self.alphabet_size))

    def entries(self) -> list[tuple[tuple[int, ...], int, int]]:
        """(letters, classes, count per class): each canonical class with the
        2^m N!/(N-m)! classes of its orbit, m its generators, or each text key alone."""
        n_gens = self.alphabet_size
        if self.orbits is None:
            for key in self.counts:  # two spellings of one word would pass for two classes
                if word_to_text(parse_word(key, n_gens)) != key:
                    raise ValueError(f"census key {key!r} is not how its word is spelled")
            return [(parse_word(key, n_gens).letters, 1, c) for key, c in self.counts.items()]
        return [(key, _relabelings(max(key, default=0), n_gens), c)
                for key, c in self.orbits.items()]

    @property
    def total(self) -> int:
        return sum(size * count for _, size, count in self.entries())

    def to_json(self) -> dict:
        return {
            "alphabet_size": self.alphabet_size,
            "length": self.length,
            "counts": dict(sorted(self.counts.items())),
        }

    def csv_rows(self) -> list[tuple[str, int, int]]:
        # a JSON key has one comma fewer than letters, an alphabetic key one character each
        return [
            (key, key.count(",") + 1 if key.startswith("[") else len(key), count)
            for key, count in sorted(self.counts.items())
        ]


# Canonical tallies: (standard reduction, generators used) -> canonical words.
_Tally = dict[tuple[tuple[int, ...], int], int]


def _census_range(n: int, alphabet_size: int) -> _Tally:
    """Tally (standard reduction, generators used) over the canonical words of length n.

    Canonical words use their generators in the order 1, 2, ... of first use,
    each first use positive: after j generators come 1..j, -1..-j and, while
    j < N, j + 1.  Such a word is the least of its relabelings in the order
    1 < -1 < 2 < -2 < ..., and the walk keeps a word w only if it is also the
    least canonical form of its rotations: one word per orbit of rotations
    and signed relabelings.

    A tie is an offset r >= 1 whose rotation, relabeled to canonical form,
    still reads as w so far; it is kept with that relabeling.  A next letter
    that ranks below w's through some tie prunes the subtree, and one that
    ranks above drops the tie.  At a leaf each tie is read on round the end of
    the word, and the least that reads as w throughout is the period p (n if
    none): rotations r < p lie in distinct relabeling orbits, and later ones
    repeat them.  By the cycle lemma rot_r(w) reduces to rot_c(std w), where
    c counts the good rotations of w below r, so one kernel pass tallies all
    p of them.

    The reduction stack and partners are carried down the tree and undone on
    the way up.
    """
    moves = [
        [(l, j) for l in (*range(1, j + 1), *range(-1, -j - 1, -1))]
        + [(j + 1, j + 1)] * (j < alphabet_size)
        for j in range(min(n, alphabet_size) + 1)
    ]
    rank = [0] * (2 * alphabet_size + 1)  # rank[l] is l's place in 1 < -1 < 2 < -2 < ...
    for g in range(1, alphabet_size + 1):
        rank[g], rank[-g] = 2 * g - 1, 2 * g
    # the relabeling of the tie that starts at letter l, which it reads as 1
    first = {l: {l: 1, -l: -1} for g in range(1, alphabet_size + 1) for l in (g, -g)}
    letters = [0] * n
    partner = [-1] * n
    stack: list[int] = []
    tally: _Tally = {}

    def leaf(j: int, ties: list[tuple[int, dict[int, int]]]) -> None:
        period = n or 1  # the empty word is its one rotation
        for r, label in ties:  # read rotation r round the end of the word
            for t in range(r):
                l, want = letters[t], letters[n - r + t]
                image = label.get(l)
                if image is None:
                    image = len(label) // 2 + 1
                    label = {**label, l: image, -l: -image}
                if image != want:
                    if rank[image] < rank[want]:
                        return
                    break
            else:
                period = r
                break
        good = _good_rotations(letters, stack, partner)
        k = len(good)
        core = tuple(letters[g] for g in good) * 2  # core[c:c + k] is std(w) rotated by c <= k
        start = 0  # rotations start..end - 1 have c good rotations below them
        for c, end in enumerate([g + 1 for g in good if g + 1 < period] + [period]):
            key = (core[c : c + k], j)
            tally[key] = tally.get(key, 0) + end - start
            start = end

    def walk(i: int, j: int, ties: list[tuple[int, dict[int, int]]]) -> None:
        # letters[:i] uses j generators; each tie (r, label) has
        # label(letters[r:i]) == letters[:i - r], label on signed letters
        if i == n:
            leaf(j, ties)
            return
        for l, used in moves[j]:
            kept = []
            for tie in ties:
                r, label = tie
                want = letters[i - r]
                image = label.get(l)
                if image is None:  # new to the rotation: equal if want is new too, else above
                    if want == len(label) // 2 + 1:
                        kept.append((r, {**label, l: want, -l: -want}))
                elif image == want:
                    kept.append(tie)
                elif rank[image] < rank[want]:
                    break
            else:
                if i:
                    kept.append((i, first[l]))
                letters[i] = l
                if stack and letters[stack[-1]] == -l:
                    partner[i] = stack.pop()
                    walk(i + 1, used, kept)
                    stack.append(partner[i])
                    partner[i] = -1
                else:
                    stack.append(i)
                    walk(i + 1, used, kept)
                    stack.pop()

    walk(0, 0, [])
    return tally


def _orbits(tally: _Tally, alphabet_size: int) -> dict[tuple[int, ...], int]:
    """The count per class of each canonical class, from a canonical tally.

    A canonical word on j generators stands for its 2^j N!/(N-j)! signed
    relabelings.  Each reduction is relabeled to its own canonical form on m
    generators, whose 2^m N!/(N-m)! relabelings are distinct classes with one
    count: each takes the relabelings of the other j - m generators.
    """
    orbits: dict[tuple[int, ...], int] = {}
    for (key, j), count in tally.items():
        key, m = _relabel_by_first_use(key)
        weight = _relabelings(j - m, alphabet_size - m)
        orbits[key] = orbits.get(key, 0) + count * weight
    return orbits


def _relabelings(m: int, alphabet_size: int) -> int:
    """2^m N!/(N-m)!: the signed relabelings of a word on m generators."""
    return 2**m * math.perm(alphabet_size, m)


def _spell(orbits: Mapping[tuple[int, ...], int], alphabet_size: int) -> dict[str, int]:
    """Class counts by text: each word's count, given to each of its signed relabelings,
    the identity first.  A word on m generators must use 1..m."""
    groups: dict[int, dict[tuple[int, ...], int]] = {}
    for key, count in orbits.items():
        groups.setdefault(max(map(abs, key), default=0), {})[key] = count
    alphabetic = alphabet_size <= 26
    counts: dict[str, int] = {}
    for m, group in groups.items():
        spelled = " ".join(word_to_text(Word(alphabet_size, key)) for key in group)
        for gens in permutations(range(1, alphabet_size + 1), m):
            for signs in product((1, -1), repeat=m):
                image = [0, *(s * g for s, g in zip(signs, gens))]
                image += [-x for x in reversed(image[1:])]  # image[-l] is the image of -l
                if alphabetic:  # relabel the spelling letter by letter, every key at once
                    table = {ord(_ALPHABET[l]): _ALPHABET[image[l]] for l in range(-m, m + 1)}
                    texts = spelled.translate(table).split(" ")
                else:
                    texts = [
                        word_to_text(Word(alphabet_size, tuple(map(image.__getitem__, key))))
                        for key in group
                    ]
                counts.update(zip(texts, group.values()))
    return counts


def _relabel_by_first_use(letters: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """The canonical relabeling of a word and the number of generators it uses."""
    label: dict[int, int] = {}
    for l in letters:
        label.setdefault(abs(l), (len(label) + 1) * (1 if l > 0 else -1))
    return tuple(label[l] if l > 0 else -label[-l] for l in letters), len(label)


def _census_words(n: int, alphabet_size: int, budget: int) -> None:
    """Refuses census(n, N) if its (2N)^n words take more than budget word-steps, n each."""
    steps = (2 * alphabet_size) ** n * max(n, 1)
    if steps > budget:
        raise BudgetExceededError(
            f"census({n}, {alphabet_size}) needs {steps} word-steps, budget is {budget}"
        )


def census(
    n: int,
    alphabet_size: int,
    *,
    budget: int = DEFAULT_BUDGET,
    cache: bool = True,
) -> Census:
    """Standard cyclic reduction tally over all (2N)^n words of length n.

    Exhaustive over the orbits of rotations and signed generator relabelings,
    and exact: one word per orbit is reduced, its distinct rotations take the
    rotations of its reduction that the cycle lemma names, and since a
    relabeling preserves every cancellation test, each rotation's
    2^j N!/(N-j)! relabelings take the relabelings of its reduction.  Classes
    are spelled only when ``counts`` is first read.  Refuses to run (rather
    than approximating) when the (2N)^n words would exceed ``budget``
    word-steps.  Results are not cached, so ``cache`` has no effect.
    """
    if n < 0 or alphabet_size < 1:
        raise ValueError("need n >= 0 and alphabet_size >= 1")
    _census_words(n, alphabet_size, budget)
    orbits = _orbits(_census_range(n, alphabet_size), alphabet_size)
    return Census(alphabet_size, n, orbits=MappingProxyType(orbits))


@dataclass(frozen=True)
class ExpansionReport:
    """Result of checking the census against the predicted class sizes."""

    length: int
    alphabet_size: int
    ok: bool
    total: int
    violations: tuple[str, ...]

    def to_json(self) -> dict:
        return {**asdict(self), "violations": list(self.violations)}


def verify_power_expansion(
    n: int, alphabet_size: int, *, budget: int = DEFAULT_BUDGET
) -> ExpansionReport:
    """Check that the census of length-n words matches the predicted expansion.

    Every cyclically reduced word of length k (same parity as n, 1 <= k <= n)
    must appear exactly reduction_class_size(n, k) times, the empty reduction
    exactly kesten_moment(n) times for even n, and nothing else may appear;
    the counts must add up to (2N)^n.

    The check runs over ``Census.entries``, one per orbit of signed
    relabelings or per key of text counts (see ``_check``).
    """
    tally = census(n, alphabet_size, budget=budget)
    predicted = [kesten_moment(n, alphabet_size)]
    predicted += [reduction_class_size(n, k, alphabet_size) for k in range(1, n + 1)]
    violations = _check("census", tally, predicted)
    total = tally.total
    if total != (2 * alphabet_size) ** n:
        violations.append(f"census total {total} != {(2 * alphabet_size) ** n}")
    return ExpansionReport(n, alphabet_size, not violations, total, tuple(violations))


def _check(label: str, tally: Census, predicted: list[int]) -> list[str]:
    """Violations of tally = sum of predicted[k] Q_k over k <= n = len(predicted) - 1,
    Q_k the sum of the cyclically reduced classes of length k: one line per class.

    Each class must be cyclically reduced with count predicted[k], and the
    classes of each length k with predicted[k] != 0 must number
    (2N-1)^k + 1 + (N-1)(1+(-1)^k), as distinct canonical classes have
    disjoint orbits.  A violation spells only the offending orbit, or lists
    the words of a length whose classes fall short, in the order of the texts.
    """
    n, n_gens = len(predicted) - 1, tally.alphabet_size
    found = [0] * (n + 1)  # cyclically reduced classes of each length
    rows = []
    for letters, size, count in tally.entries():
        k = len(letters)
        reduced = k <= n and all(map(add, letters, letters[1:] + letters[:1]))  # a != -b
        if reduced:
            found[k] += size
        want = predicted[k] if reduced else 0
        if count != want:  # the first `size` texts: the orbit, or a text key itself
            rows += [(t, count, want) for t in [*_spell({letters: count}, n_gens)][:size]]
    q = 2 * n_gens - 1
    for k, want in enumerate(predicted):
        if want and found[k] < (q**k + 1 + (n_gens - 1) * (1 + (-1) ** k) if k else 1):
            texts = map(word_to_text, cyclically_reduced_words(k, n_gens))
            rows += [(t, 0, want) for t in texts if t not in tally.counts]
    return [
        f"{label}: class {t!r} counted {got}, predicted {want}" for t, got, want in sorted(rows)
    ]
