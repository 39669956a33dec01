"""Words in a free group on N generators, with linear and cyclic reduction.

A word is a raw string of letters that may or may not simplify; no reduction
happens on construction.  Letters are stored as signed generator indices:
``+g`` is the g-th generator and ``-g`` its inverse, so the word u1*u2^-1 is
``(1, -2)``.  Two text encodings are supported: a compact alphabetic one for
alphabets of up to 26 generators (``a``..``z`` are generators, uppercase their
inverses) and a JSON array of signed integers (``[1, -2]``) for any alphabet.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable


@dataclass(frozen=True)
class Word:
    """A finite sequence of letters over a fixed alphabet of ``alphabet_size`` generators."""

    alphabet_size: int
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.alphabet_size < 1:
            raise ValueError("alphabet_size must be at least 1")
        for l in self.letters:
            if l == 0 or abs(l) > self.alphabet_size:
                raise ValueError(
                    f"generator {abs(l)} exceeds alphabet size {self.alphabet_size}"
                )

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return word_to_text(self)

    def __add__(self, other: "Word") -> "Word":
        if self.alphabet_size != other.alphabet_size:
            raise ValueError("cannot concatenate words over different alphabets")
        return Word(self.alphabet_size, self.letters + other.letters)


def word(letters: Iterable[int], alphabet_size: int) -> Word:
    """Build a Word from signed generator indices."""
    return Word(alphabet_size, tuple(letters))


def parse_word(text: str, alphabet_size: int) -> Word:
    """Parse either encoding into a Word; no reduction is applied.

    Alphabetic: ``"aB"`` is u1*u2^-1 (requires alphabet_size <= 26).
    JSON: ``"[1, -2]"`` works for any alphabet size.
    """
    text = text.strip()
    if text.startswith("["):
        try:
            values = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed word {text!r}: {exc}") from exc
        # type() rather than isinstance(): JSON true/false load as bool, a subclass of int.
        if not isinstance(values, list) or not all(type(v) is int for v in values):
            raise ValueError(f"malformed word {text!r}: expected a JSON array of integers")
        return Word(alphabet_size, tuple(values))
    letters = []
    for ch in text:
        if "a" <= ch <= "z":
            letters.append(ord(ch) - ord("a") + 1)
        elif "A" <= ch <= "Z":
            letters.append(-(ord(ch) - ord("A") + 1))
        else:
            raise ValueError(f"malformed word {text!r}: unexpected character {ch!r}")
    return Word(alphabet_size, tuple(letters))


def word_to_text(w: Word) -> str:
    """Alphabetic when the alphabet fits in a-z, else a JSON array; the empty word is ``""``."""
    if w.alphabet_size <= 26 or not w.letters:
        return "".join(
            chr(ord("a") + l - 1) if l > 0 else chr(ord("A") - l - 1) for l in w.letters
        )
    return json.dumps(list(w.letters))


def invert(w: Word) -> Word:
    """Reverse the string and invert each letter, with no reduction."""
    return Word(w.alphabet_size, tuple(-l for l in reversed(w.letters)))


def rotate(w: Word, r: int) -> Word:
    """Cyclic rotation by offset r: the word l_{r+1} ... l_n l_1 ... l_r."""
    if len(w.letters) == 0:
        return w
    r %= len(w.letters)
    return Word(w.alphabet_size, w.letters[r:] + w.letters[:r])


def _reduce_with_partners(
    letters: tuple[int, ...],
) -> tuple[list[int], list[tuple[int, int]]]:
    """The one cancellation pass, a left-to-right stack of positions.

    Returns the 0-based positions of the surviving letters, in order, and the
    cancelled (earlier, later) position pairs, as repeatedly cancelling the
    leftmost adjacent inverse pair gives them.  The stack is empty just before
    the first survivor is pushed and never after, so its position is the
    length of the longest prefix reducing to 1 (all letters if none survive),
    and the word has good reduction iff position 0 survives and does not
    cancel the last survivor.  Every reduction in this module reads this pass.
    """
    stack: list[int] = []
    pairs: list[tuple[int, int]] = []
    push = stack.append
    pop = stack.pop
    cancel = pairs.append
    for i, l in enumerate(letters):
        if stack and letters[stack[-1]] == -l:
            cancel((pop(), i))
        else:
            push(i)
    return stack, pairs


def _reduce(letters: tuple[int, ...]) -> list[int]:
    """The letters that survive linear reduction."""
    survivors, _ = _reduce_with_partners(letters)
    return [letters[i] for i in survivors]


def _is_good(letters: tuple[int, ...], survivors: list[int]) -> bool:
    """Whether ``letters``, whose kernel pass left ``survivors``, has good reduction."""
    return bool(survivors) and survivors[0] == 0 and letters[0] != -letters[survivors[-1]]


def linear_reduce(w: Word) -> Word:
    """The unique linearly reduced word obtained by cancelling adjacent inverse pairs."""
    return Word(w.alphabet_size, tuple(_reduce(w.letters)))


def cyclic_reduce(w: Word) -> Word:
    """Canonical cyclic reduction: linear reduction, then strip cancelling end pairs.

    The result is cyclically reduced; its length is the same for every
    rotation of ``w``, even though the resulting word may differ by a rotation.
    """
    reduced = _reduce(w.letters)
    lo, hi = 0, len(reduced)
    while hi - lo >= 2 and reduced[lo] == -reduced[hi - 1]:
        lo += 1
        hi -= 1
    return Word(w.alphabet_size, tuple(reduced[lo:hi]))


def is_reducible_to_one(w: Word) -> bool:
    """True iff the word reduces linearly (equivalently cyclically) to the identity."""
    return not _reduce_with_partners(w.letters)[0]


def is_linearly_reduced(w: Word) -> bool:
    """No two adjacent letters cancel."""
    return all(a != -b for a, b in zip(w.letters, w.letters[1:]))


def is_cyclically_reduced(w: Word) -> bool:
    """Linearly reduced and the first and last letters do not cancel either."""
    return is_linearly_reduced(w) and (
        len(w.letters) == 0 or w.letters[0] != -w.letters[-1]
    )


def has_good_reduction(w: Word) -> bool:
    """True iff no prefix reduces to the identity and the linear reduction is cyclically reduced."""
    if not w.letters:
        raise ValueError("good reduction is undefined for the empty word")
    return _is_good(w.letters, _reduce_with_partners(w.letters)[0])


def _good_rotations(
    letters: tuple[int, ...], survivors: list[int], pairs: list[tuple[int, int]]
) -> list[int]:
    """The good rotations in ascending order, read off rotation 0's kernel pass.

    If rotation 0 is good they are its survivors (through strings).  Otherwise
    the survivors spell x c x^-1 with c cyclically reduced, and h[t] is the
    height before letter t toward the word's repelling end x c^-1 c^-1 ... on
    the Cayley tree: each letter moves it by +-1 and each period lowers it by
    k = |c|.  The good rotations are its right-to-left records above max(h) - k.
    """
    if not survivors or _is_good(letters, survivors):
        return survivors
    u = [letters[i] for i in survivors]
    j = 0
    while u[j] == -u[-1 - j]:
        j += 1
    c_inv = [-l for l in reversed(u[j : len(u) - j])]
    end = u[:j] + c_inv * (len(letters) // len(c_inv) + 1)
    pops = {later for _, later in pairs}
    # on_end counts the bottom stack letters that spell a prefix of the end, so
    # the height is on_end steps toward it less depth - on_end steps away.
    depth = on_end = 0
    h = []
    for t, l in enumerate(letters):
        h.append(2 * on_end - depth)
        if t in pops:
            depth -= 1
            on_end = min(on_end, depth)
        else:
            on_end += depth == on_end and l == end[depth]
            depth += 1
    top = max(h) - len(c_inv)
    good = []
    for t in range(len(letters) - 1, -1, -1):
        if h[t] > top:
            good.append(t)
            top = h[t]
    return good[::-1]


def good_rotations(w: Word) -> list[int]:
    """Sorted offsets r whose rotation has good reduction.

    There are always exactly as many such offsets as there are letters in a
    cyclic reduction of ``w``; in particular the list is empty iff the word
    reduces to the identity.  They are read off one kernel pass of ``w``.
    """
    if not w.letters:
        raise ValueError("good rotations are undefined for the empty word")
    return _good_rotations(w.letters, *_reduce_with_partners(w.letters))


@dataclass(frozen=True)
class ReductionProfile:
    """Prefix reduction lengths t_1..t_horizon of the word repeated forever.

    ``values[i-1]`` is the length of the linear reduction of the first i
    letters of w w w ...; consecutive values differ by exactly 1.  From
    ``period_start`` on, the profile is shift-periodic: t_{i+n} = t_i + k,
    where n = len(word) and k is the cyclic reduction length.
    """

    word: Word
    k: int
    values: tuple[int, ...]
    period_start: int

    @property
    def horizon(self) -> int:
        return len(self.values)


MAX_PROFILE_HORIZON = 10**6  # values; building this many took about 110 MB


def periodicity_bound(n: int, k: int) -> int:
    """Shift-periodicity is guaranteed from this index on: floor(n(1+n/k)) + 1."""
    return n + (n * n) // k + 1


def default_profile_horizon(n: int, k: int) -> int:
    return 2 * (n + (n * n) // k + n)


def reduction_profile(w: Word, horizon: int | None = None) -> ReductionProfile:
    """Compute the prefix-reduction profile of w repeated, and where it turns periodic.

    ``period_start`` is the least index from which t_{i+n} = t_i + k holds for
    every later i inside the horizon.  Requires a cyclic reduction of length
    k >= 1; for k = 0 the profile keeps returning to 0 and never becomes
    shift-periodic.  Horizons above ``MAX_PROFILE_HORIZON`` are refused.
    """
    if not w.letters:
        raise ValueError("profile is undefined for the empty word")
    k = len(cyclic_reduce(w).letters)
    n = len(w.letters)
    if k == 0:
        raise ValueError("profile requires a word that does not reduce to the identity")
    if horizon is None:
        horizon = default_profile_horizon(n, k)
    minimum = periodicity_bound(n, k) + n
    if horizon < minimum:
        raise ValueError(f"horizon {horizon} is too short; need at least {minimum}")
    if horizon > MAX_PROFILE_HORIZON:
        raise ValueError(f"horizon {horizon} exceeds the limit of {MAX_PROFILE_HORIZON} values")
    # A letter adds 1 to the reduction length; the later letter of a cancelled
    # pair removes itself and its partner, a net step of -1.
    _, pairs = _reduce_with_partners((w.letters * -(-horizon // n))[:horizon])
    steps = [1] * horizon
    for _, later in pairs:
        steps[later] = -1
    values = tuple(accumulate(steps))
    period_start = 1
    for i in range(horizon - n, 0, -1):  # 1-based index i, checked high to low
        if values[i - 1 + n] != values[i - 1] + k:
            period_start = i + 1
            break
    return ReductionProfile(w, k, values, period_start)


@dataclass(frozen=True)
class Decomposition:
    """A split w = prefix * core * suffix with prefix*suffix reducible to 1.

    The core has no prefix or suffix reducible to the identity and its first
    and last letters do not cancel, so its linear reduction is already
    cyclically reduced.
    """

    prefix: Word
    core: Word
    suffix: Word

    @property
    def word(self) -> Word:
        return self.prefix + self.core + self.suffix


def _max_reducible_prefix(letters: tuple[int, ...]) -> int:
    """Length of the longest prefix that reduces to the identity (0 if none)."""
    survivors, _ = _reduce_with_partners(letters)
    return survivors[0] if survivors else len(letters)


def standard_decomposition(w: Word) -> Decomposition:
    """Strip cancelling end pairs and identity-reducible prefixes/suffixes until stable.

    End cancellation is tried first, then a maximal prefix reducible to the
    identity, then a maximal such suffix.  Different strip orders can give
    different valid splits; this order is fixed so results are reproducible.
    """
    letters = w.letters
    lo, hi = 0, len(letters)
    while lo < hi:
        if hi - lo >= 2 and letters[lo] == -letters[hi - 1]:
            lo += 1
            hi -= 1
            continue
        p = _max_reducible_prefix(letters[lo:hi])
        if p:
            lo += p
            continue
        s = _max_reducible_prefix(tuple(-l for l in reversed(letters[lo:hi])))
        if s:
            hi -= s
            continue
        break
    return Decomposition(
        Word(w.alphabet_size, letters[:lo]),
        Word(w.alphabet_size, letters[lo:hi]),
        Word(w.alphabet_size, letters[hi:]),
    )
