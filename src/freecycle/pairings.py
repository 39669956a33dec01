"""Non-crossing half-pairings on circled points and the pairing attached to a word.

A half-pairing partitions the points 1..n (clockwise on a circle) into pairs
and at least one singleton, such that the partition is non-crossing and stays
non-crossing after merging all singletons into one block.  Singletons are the
"through strings": when the pairing belongs to a word, they mark the letters
that survive cyclic reduction, while each pair joins two letters that cancel.

Every point carries an orientation.  Singletons point out; in a pair, the
endpoint whose singleton-free side follows it clockwise points out.  A point i
covers a point j when both point out and the clockwise gap between them is
fully paired within itself.  A pairing of a word is admissible when no covered
point carries the inverse letter of its coverer; each word has exactly one
admissible half-pairing, and this module computes it.

Indices are 1-based throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations
from typing import Iterable, Mapping

from .words import (
    Word, _is_good, _pass, _reduce_with_partners, _rotations, _subword, is_cyclically_reduced,
)

OUT = "out"
IN = "in"
MAX_HALF_PAIRINGS = 10**5  # C(18, 8) = 43,758 pairings took 1.2 s and about 70 MB


@dataclass(frozen=True)
class HalfPairing:
    """A non-crossing partition of 1..n into pairs and >= 1 singletons."""

    n: int
    pairs: frozenset[tuple[int, int]]
    singletons: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "pairs",
            frozenset((min(a, b), max(a, b)) for a, b in self.pairs),
        )
        object.__setattr__(self, "singletons", frozenset(self.singletons))
        reason = _invalid_reason(self.n, self.pairs, self.singletons)
        if reason:
            raise ValueError(reason)

    @property
    def through_count(self) -> int:
        return len(self.singletons)


def _built(n: int, pairs: Iterable[tuple[int, int]], singletons: Iterable[int]) -> HalfPairing:
    """A pairing that is valid by construction, made without ``__post_init__``'s check.

    Only for pairings this module builds itself, each with its reason for being
    valid beside the call; every public way in validates.
    """
    p = object.__new__(HalfPairing)
    object.__setattr__(p, "n", n)
    object.__setattr__(p, "pairs", frozenset((a, b) if a < b else (b, a) for a, b in pairs))
    object.__setattr__(p, "singletons", frozenset(singletons))
    return p


def _invalid_reason(
    n: int, pairs: frozenset[tuple[int, int]], singletons: frozenset[int]
) -> str | None:
    if n < 1:
        return "a half-pairing needs at least one point"
    mate = dict(pairs) | {b: a for a, b in pairs}
    if 2 * len(pairs) + len(singletons) != n or mate.keys() | singletons != set(range(1, n + 1)):
        return f"blocks do not partition 1..{n}"
    if not singletons:
        return "a half-pairing needs at least one singleton (through string)"
    # One bracket pass, once round from just after a singleton s: a chord that does not
    # close the innermost open chord crosses it, and as s lies outside every chord, one
    # separates the merged singletons exactly when a singleton is met inside it.
    chord = lambda i: (min(i, mate[i]), max(i, mate[i]))
    s = min(singletons)
    opened: list[int] = []
    separating = None
    for j in range(n):
        i = (s + j) % n + 1
        if i not in mate:
            if opened and separating is None:
                separating = f"pair {chord(opened[-1])} separates the through strings"
        elif (mate[i] - s - 1) % n > j:
            opened.append(i)
        elif (c := opened.pop()) != mate[i]:
            return f"pairs {chord(i)} and {chord(c)} cross"
    return separating


def is_half_pairing(n: int, blocks: Iterable[Iterable[int]]) -> bool:
    """Whether a partition of 1..n is a valid non-crossing half-pairing.

    Raises if ``blocks`` is not a partition of 1..n at all; returns False for
    partitions that break a half-pairing rule (a block of size > 2, no
    singleton, or a crossing in the partition or its singleton merge).
    """
    block_list = [tuple(b) for b in blocks]
    elements = [x for b in block_list for x in b]
    if len(elements) != len(set(elements)) or set(elements) != set(range(1, n + 1)):
        raise ValueError(f"blocks do not partition 1..{n}")
    if any(len(b) == 0 for b in block_list):
        raise ValueError("empty block")
    if any(len(b) > 2 for b in block_list):
        return False
    pairs = frozenset((min(b), max(b)) for b in block_list if len(b) == 2)
    singletons = frozenset(b[0] for b in block_list if len(b) == 1)
    return _invalid_reason(n, pairs, singletons) is None


def _out_points(p: HalfPairing) -> frozenset[int]:
    # The out endpoint of a chord is the one whose clockwise stretch to the
    # other holds no singleton.  No chord separates the singletons: one will do.
    s = next(iter(p.singletons))
    return p.singletons | {b if a < s < b else a for a, b in p.pairs}


def orientations(p: HalfPairing) -> dict[int, str]:
    """Per-point orientation: singletons out, one out endpoint per pair."""
    outs = _out_points(p)
    return {i: (OUT if i in outs else IN) for i in range(1, p.n + 1)}


def cover_relation(p: HalfPairing) -> frozenset[tuple[int, int]]:
    """All ordered pairs (i, j) of out-points where i covers j.

    i covers j when j immediately follows i clockwise, or everything strictly
    between them (clockwise) is paired within that stretch.
    """
    # Walk clockwise from each out point i: each out point t met is covered, and the
    # walk jumps past t's chord; it stops at an in endpoint, after a singleton, or
    # back at i.  A point is covered by at most one i, so this is O(n).
    outs = _out_points(p)
    partner = dict(p.pairs) | {b: a for a, b in p.pairs}
    covers = []
    for i in outs:
        t = i % p.n + 1
        while t != i and t in outs:
            covers.append((i, t))
            if t not in partner:
                break
            t = partner[t] % p.n + 1
    return frozenset(covers)


def is_word_pairing(w: Word, p: HalfPairing) -> bool:
    """Whether p pairs inverse letters of w and its singletons read a cyclic reduction."""
    letters = w.letters
    if len(letters) != p.n:
        raise ValueError(f"word length {len(letters)} does not match pairing on {p.n} points")
    for a, b in p.pairs:
        if letters[a - 1] != -letters[b - 1]:
            return False
    # Non-crossing chords of inverse letters cancel innermost first, conjugating w to
    # the through letters: if cyclically reduced, they are a rotation of cyclic_reduce(w).
    through = Word(w.alphabet_size, tuple(letters[i - 1] for i in sorted(p.singletons)))
    return is_cyclically_reduced(through)


def is_word_admissible(w: Word, p: HalfPairing) -> bool:
    """A word pairing with no covered point holding the inverse of its coverer."""
    if not is_word_pairing(w, p):
        return False
    letters = w.letters
    return all(letters[i - 1] != -letters[j - 1] for i, j in cover_relation(p))


def admissible_half_pairing(w: Word, rotation: int | None = None) -> HalfPairing:
    """The unique admissible half-pairing of a word that does not reduce to 1.

    Rotate the word to any offset with good reduction, repeatedly cancel the
    leftmost adjacent inverse pair (recording partners), make the survivors
    singletons, and map the indices back.  The result does not depend on which
    good rotation is used; ``rotation`` can force a specific one.
    """
    n = len(w.letters)
    if n == 0:
        raise ValueError("the empty word has no half-pairing")
    letters = w.letters
    start = rotation % n if rotation else 0
    if start:  # another rotation is another sequence, with a pass of its own
        letters = letters[start:] + letters[:start]
        survivors, partner = _reduce_with_partners(letters)
    else:
        survivors, partner = _pass(w)
    if not survivors:
        raise ValueError("word reduces to the identity; no half-pairing exists")
    if not _is_good(letters, survivors):
        if rotation is not None:
            raise ValueError(f"rotation {start} does not have good reduction")
        start = _rotations(w)[0]  # letters are still w's own: start was 0
        survivors, partner = _reduce_with_partners(letters[start:] + letters[:start])
    # Valid by construction: t pops the top of the stack, so every position pushed between
    # its partner i and t was popped before t.  Chords therefore nest without crossing, and
    # no survivor lies between i and t, so no chord separates the (nonempty) survivors.
    point = [*range(start + 1, n + 1), *range(1, start + 1)]
    return _built(
        n,
        [(point[i], point[j]) for j, i in enumerate(partner) if i >= 0],
        [point[j] for j in survivors],
    )


def standard_cyclic_reduction(w: Word) -> Word:
    """The through-string letters of the admissible half-pairing, in index order.

    This is a cyclic reduction of the word, possibly a different rotation than
    the one ``cyclic_reduce`` returns.  Words reducible to the identity reduce
    to the empty word by convention.
    """
    letters = w.letters
    return _subword(w, tuple([letters[r] for r in _rotations(w)]))


@dataclass(frozen=True)
class DotDiagram:
    """Black/white colouring of n circled points encoding a half-pairing."""

    colors: str

    def __post_init__(self) -> None:
        if not self.colors or any(c not in "BW" for c in self.colors):
            raise ValueError("colors must be a nonempty string over 'B' and 'W'")

    @property
    def n(self) -> int:
        return len(self.colors)


def to_dots(p: HalfPairing) -> DotDiagram:
    """Black on the out endpoint of every pair, white everywhere else."""
    blacks = _out_points(p) - p.singletons
    return DotDiagram("".join("B" if i in blacks else "W" for i in range(1, p.n + 1)))


def from_dots(d: DotDiagram) -> HalfPairing:
    """Match each black dot clockwise to its white partner; leftover whites are singletons.

    One bracket pass, once round from just after the first lowest point of the
    running count of blacks less whites: the count there is below every other
    count of the lap, so no black is left open.  Needs strictly fewer blacks
    than whites so at least one singleton remains.
    """
    colors = d.colors
    n = d.n
    if 2 * colors.count("B") >= n:
        raise ValueError("need fewer black dots than white dots")
    balance = list(accumulate(1 if c == "B" else -1 for c in colors))
    start = balance.index(min(balance)) + 1
    opened: list[int] = []
    pairs: list[tuple[int, int]] = []
    singles: list[int] = []
    for i in range(start, start + n):
        t = i % n + 1
        if colors[t - 1] == "B":
            opened.append(t)
        elif opened:
            pairs.append((opened.pop(), t))
        else:
            singles.append(t)
    # Valid by construction: no black is left open, each white closes the last black
    # opened, and a white is a singleton only when no chord is open.
    return _built(n, pairs, singles)


def enumerate_half_pairings(n: int, k: int) -> list[HalfPairing]:
    """All half-pairings on n points with exactly k through strings.

    Generated from dot diagrams, one per choice of (n-k)/2 black positions,
    so the count is C(n, (n-k)/2).  Counts above ``MAX_HALF_PAIRINGS`` are refused.
    """
    if k < 1 or k > n:
        raise ValueError("need 1 <= k <= n")
    if (n - k) % 2:
        raise ValueError(f"no half-pairing on {n} points with {k} through strings: parity")
    half, size = (n - k) // 2, 1
    for i in range(half):  # C(n, i) grows with i <= half < n/2: stop once it passes the limit
        size = size * (n - i) // (i + 1)
        if size > MAX_HALF_PAIRINGS:
            raise ValueError(f"the C({n}, {half}) half-pairings on {n} points with {k} through"
                             f" strings exceed the limit of {MAX_HALF_PAIRINGS}")
    result = []
    for blacks in combinations(range(1, n + 1), half):
        black_set = set(blacks)
        colors = "".join("B" if i in black_set else "W" for i in range(1, n + 1))
        result.append(from_dots(DotDiagram(colors)))
    return result


def render_half_pairing(p: HalfPairing) -> str:
    """One line per block: ``a-b`` for pairs, ``|s`` for through strings."""
    lines = [f"{a}-{b}" for a, b in sorted(p.pairs)]
    lines += [f"|{s}" for s in sorted(p.singletons)]
    return "\n".join(lines)


def half_pairing_to_json(p: HalfPairing) -> dict:
    return {
        "n": p.n,
        "pairs": [list(pair) for pair in sorted(p.pairs)],
        "singletons": sorted(p.singletons),
        "orientations": {str(i): o for i, o in orientations(p).items()},
    }


def half_pairing_from_json(data: Mapping) -> HalfPairing:
    """The pairing ``half_pairing_to_json`` wrote; ``n``, endpoints and singletons must be ints."""

    def point(v) -> int:
        if type(v) is not int:  # not isinstance(): JSON true/false load as bool
            raise ValueError(f"pairing points must be integers, got {v!r}")
        return v

    return HalfPairing(
        point(data["n"]),
        frozenset((point(a), point(b)) for a, b in data["pairs"]),
        frozenset(map(point, data["singletons"])),
    )
