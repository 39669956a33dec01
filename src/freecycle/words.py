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
        n = self.alphabet_size
        if n < 1:
            raise ValueError("alphabet_size must be at least 1")
        for l in self.letters:
            # one test a letter, type first: bool, float and numpy integers are refused
            if not (type(l) is int and -n <= l <= n and l):
                if type(l) is not int:
                    raise TypeError(f"letter {l!r} is not an int")
                raise ValueError(f"generator {abs(l)} exceeds alphabet size {n}")

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return word_to_text(self)

    def __add__(self, other: "Word") -> "Word":
        if self.alphabet_size != other.alphabet_size:
            raise ValueError("cannot concatenate words over different alphabets")
        return Word(self.alphabet_size, self.letters + other.letters)

    def __reduce__(self):
        # pickle and copy carry the fields, not the kernel pass kept as _kept (_kernel)
        return Word, (self.alphabet_size, self.letters)


# Sets an attribute of a frozen Word without asking for its __dict__, which on
# CPython 3.11 would make a dict object of the instance's inline values.
_set = object.__setattr__


def _subword(w: Word, letters: tuple[int, ...]) -> Word:
    """A Word over w's alphabet of letters taken from w, or their inverses: valid
    by construction, so made without ``__post_init__``'s letter check."""
    sub = object.__new__(Word)
    _set(sub, "alphabet_size", w.alphabet_size)
    _set(sub, "letters", letters)
    return sub


def word(letters: Iterable[int], alphabet_size: int) -> Word:
    """Build a Word from signed generator indices."""
    return Word(alphabet_size, tuple(letters))


_ALPHABET = " abcdefghijklmnopqrstuvwxyzZYXWVUTSRQPONMLKJIHGFEDCBA"  # [l] spells letter l
_LETTER = {_ALPHABET[l]: l for l in range(-26, 27) if l}


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
    try:
        return Word(alphabet_size, tuple(map(_LETTER.__getitem__, text)))
    except KeyError as exc:
        raise ValueError(f"malformed word {text!r}: unexpected character {exc.args[0]!r}") from None


def word_to_text(w: Word) -> str:
    """Alphabetic when the alphabet fits in a-z, else a JSON array; the empty word is ``""``."""
    if w.alphabet_size <= 26 or not w.letters:
        return "".join(map(_ALPHABET.__getitem__, w.letters))
    return json.dumps(list(w.letters))


def invert(w: Word) -> Word:
    """Reverse the string and invert each letter, with no reduction."""
    return _subword(w, tuple([-l for l in reversed(w.letters)]))


def rotate(w: Word, r: int) -> Word:
    """Cyclic rotation by offset r: the word l_{r+1} ... l_n l_1 ... l_r."""
    if len(w.letters) == 0:
        return w
    r %= len(w.letters)
    return _subword(w, w.letters[r:] + w.letters[:r])


def _reduce_with_partners(letters: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """The one cancellation pass, a left-to-right stack of positions.

    Returns the 0-based positions of the surviving letters, in order, and a
    list ``partner`` that holds, at the later end of each cancelled pair, the
    earlier position it cancels (-1 elsewhere), as repeatedly cancelling the
    leftmost adjacent inverse pair pairs them.  The stack is empty just before
    the first survivor is pushed and never after, so its position is the
    length of the longest prefix reducing to 1 (all letters if none survive),
    and the word has good reduction iff position 0 survives and does not
    cancel the last survivor.  Every reduction in this module reads this pass;
    a Word runs it over its own letters once (``_pass``), and only rotations,
    powers and windows of a word run it again.
    """
    stack: list[int] = []
    partner = [-1] * len(letters)
    push = stack.append
    pop = stack.pop
    undo = 0  # the letter that cancels the top of the stack; no letter is 0
    for i, l in enumerate(letters):
        if l == undo:
            partner[i] = pop()
            undo = -letters[stack[-1]] if stack else 0
        else:
            push(i)
            undo = -l
    return stack, partner


# A Word is immutable, so the pass over its letters, the height walk and the good
# rotations are made on first use and kept in its __dict__, in one list under one
# name: [survivors, partner, walk or None, good or None].  The fields alone make
# ==, hash, repr and pickle.  One name, because once a class has many instances
# CPython 3.11 shares only one more attribute name among them, and a Word with a
# second gets a dict object of its own; one list, because each kept container is
# more work for the garbage collector.  The kept lists are read, never handed
# out: a public function returns a copy or a tuple.
def _kernel(w: Word) -> list:
    """The list that w keeps, made with ``_reduce_with_partners(w.letters)`` once per Word."""
    kept = getattr(w, "_kept", None)
    if kept is None:
        kept = [*_reduce_with_partners(w.letters), None, None]
        _set(w, "_kept", kept)
    return kept


def _pass(w: Word) -> tuple[list[int], list[int]]:
    """``_reduce_with_partners(w.letters)``, run once per Word."""
    kept = _kernel(w)
    return kept[0], kept[1]


def _walk(w: Word) -> tuple[list[int], int, int]:
    """``_heights`` of w's own pass, walked once per Word; w must not reduce to 1."""
    kept = _kernel(w)
    if kept[2] is None:
        kept[2] = _heights(w.letters, kept[0], kept[1])
    return kept[2]


def _rotations(w: Word) -> list[int]:
    """``_good_rotations`` of w's own pass, found once per Word."""
    kept = _kernel(w)
    if kept[3] is None:
        survivors = kept[0]
        good = not survivors or _is_good(w.letters, survivors)
        kept[3] = survivors if good else _records(*_walk(w))
    return kept[3]


def _reduced(w: Word) -> list[int]:
    """The letters that survive linear reduction."""
    letters = w.letters
    return [letters[i] for i in _pass(w)[0]]


def _is_good(letters: tuple[int, ...], survivors: list[int]) -> bool:
    """Whether ``letters``, whose kernel pass left ``survivors``, has good reduction."""
    return bool(survivors) and survivors[0] == 0 and letters[0] != -letters[survivors[-1]]


def linear_reduce(w: Word) -> Word:
    """The unique linearly reduced word obtained by cancelling adjacent inverse pairs."""
    return _subword(w, tuple(_reduced(w)))


def cyclic_reduce(w: Word) -> Word:
    """Canonical cyclic reduction: linear reduction, then strip cancelling end pairs.

    The result is cyclically reduced; its length is the same for every
    rotation of ``w``, even though the resulting word may differ by a rotation.
    """
    reduced = _reduced(w)
    lo, hi = 0, len(reduced)
    while hi - lo >= 2 and reduced[lo] == -reduced[hi - 1]:
        lo += 1
        hi -= 1
    return _subword(w, tuple(reduced[lo:hi]))


def is_reducible_to_one(w: Word) -> bool:
    """True iff the word reduces linearly (equivalently cyclically) to the identity."""
    return not _pass(w)[0]


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
    return _is_good(w.letters, _pass(w)[0])


def _heights(
    letters: tuple[int, ...], survivors: list[int], partner: list[int]
) -> tuple[list[int], int, int]:
    """Heights toward a word's repelling end, read off its kernel pass: (h, j, k).

    The survivors, which must not be empty, spell y c y^-1 with c cyclically
    reduced; j = |y| and k = |c| >= 1.  h[t] is the height before letter t
    toward the end y c^-1 c^-1 ... on the Cayley tree: each letter moves it by
    +-1 and each period lowers it by k.  max(h) is the longest prefix of the
    end that some w[:r], r < n, reduces to, as h equals that lcp when it grows.
    """
    u = [letters[i] for i in survivors]
    j = 0
    while u[j] == -u[-1 - j]:
        j += 1
    k = len(u) - 2 * j
    end = u[:j] + [-l for l in reversed(u[j : j + k])] * (len(letters) // k + 1)
    # on_end counts the bottom stack letters that spell a prefix of the end, so
    # the height is on_end steps toward it less depth - on_end steps away.
    depth = on_end = 0
    h: list[int] = []
    append = h.append
    for l, p in zip(letters, partner):
        append(on_end + on_end - depth)
        if p >= 0:
            depth -= 1
            if on_end > depth:
                on_end = depth
        else:
            if depth == on_end and l == end[depth]:
                on_end += 1
            depth += 1
    return h, j, k


def _records(h: list[int], j: int, k: int) -> list[int]:
    """Ascending right-to-left records of the heights ``h`` above max(h) - k."""
    top = max(h) - k
    good = []
    for t in range(len(h) - 1, -1, -1):
        if h[t] > top:
            good.append(t)
            top = h[t]
    return good[::-1]


def _good_rotations(
    letters: tuple[int, ...], survivors: list[int], partner: list[int]
) -> list[int]:
    """Ascending good rotations: rotation 0's survivors if it is good (through
    strings), else the records of ``_heights``."""
    if not survivors or _is_good(letters, survivors):
        return survivors
    return _records(*_heights(letters, survivors, partner))


def good_rotations(w: Word) -> list[int]:
    """Sorted offsets r whose rotation has good reduction.

    There are always exactly as many such offsets as there are letters in a
    cyclic reduction of ``w``; in particular the list is empty iff the word
    reduces to the identity.  They are read off one kernel pass of ``w``.
    """
    if not w.letters:
        raise ValueError("good rotations are undefined for the empty word")
    return list(_rotations(w))


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


MAX_PROFILE_HORIZON = 10**6  # values; building this many took about 70 MB


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

    w reduces to y c y^-1 (``_heights``), so w^q reduces to y c^q y^-1, and the
    reduced prefix v of w[:r] cancels lcp(v, y c^-q y^-1) letters of it: v's lcp with
    the end once j + qk > max(h), when t_{qn+r} = 2j + qk - h[r].  So only the
    transient before that q is reduced letter by letter.

    >>> p = reduction_profile(parse_word("aaAbbBAA", 2))
    >>> p.k, p.period_start, p.values[:10]
    (2, 3, (1, 2, 1, 2, 3, 2, 3, 4, 3, 2))
    """
    if not w.letters:
        raise ValueError("profile is undefined for the empty word")
    letters, n = w.letters, len(w.letters)
    survivors, partner = _pass(w)
    if not survivors:
        raise ValueError("profile requires a word that does not reduce to the identity")
    h, j, k = _walk(w)
    if horizon is None:
        horizon = default_profile_horizon(n, k)
    minimum = periodicity_bound(n, k) + n
    if horizon < minimum:
        raise ValueError(f"horizon {horizon} is too short; need at least {minimum}")
    if horizon > MAX_PROFILE_HORIZON:
        raise ValueError(f"horizon {horizon} exceeds the limit of {MAX_PROFILE_HORIZON} values")
    q0 = max(1, (max(h) - j) // k + 1)  # q0 * n < minimum, as max(h) < n
    if q0 > 1:
        partner = _reduce_with_partners(letters * q0)[1]
    # A letter adds 1 to the reduction length; the later letter of a cancelled
    # pair removes itself and its partner, a net step of -1.
    values = list(accumulate(1 if p < 0 else -1 for p in partner))
    period = [2 * j - x for x in h[1:]] + [2 * j + k]  # t_{qn+1..qn+n} less qk
    for q in range(q0, -(-horizon // n)):
        values += map((q * k).__add__, period)
    values = tuple(values[:horizon])
    period_start = 1
    for i in range(min(q0 * n, horizon - n), 0, -1):  # 1-based index i, checked high to low
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


def _max_reducible_prefix(survivors: list[int], n: int) -> int:
    """Length of the longest prefix that reduces to the identity (0 if none) of
    n letters whose kernel pass left ``survivors``."""
    return survivors[0] if survivors else n


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
        window = letters[lo:hi]
        # only the first window can be the whole word, whose pass w keeps
        first = _pass(w) if hi - lo == len(letters) else _reduce_with_partners(window)
        p = _max_reducible_prefix(first[0], hi - lo)
        if p:
            lo += p
            continue
        # the inverse, relabelled a -> a^-1
        s = _max_reducible_prefix(_reduce_with_partners(window[::-1])[0], hi - lo)
        if s:
            hi -= s
            continue
        break
    return Decomposition(
        _subword(w, letters[:lo]), _subword(w, letters[lo:hi]), _subword(w, letters[hi:])
    )
