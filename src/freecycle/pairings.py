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
from functools import cached_property
from itertools import combinations
from typing import Iterable, Mapping

from .words import Word, _good_rotations, _is_good, _reduce_with_partners, is_cyclically_reduced

OUT = "out"
IN = "in"


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

    @cached_property
    def _covers(self) -> frozenset[tuple[int, int]]:
        # Walk clockwise from each out point i: each out point t met is covered, and the
        # walk jumps past t's chord; it stops at an in endpoint, after a singleton, or
        # back at i.  A point is covered by at most one i, so this is O(n).
        outs = _out_points(self)
        partner = dict(self.pairs) | {b: a for a, b in self.pairs}
        n = self.n
        covers = []
        for i in outs:
            t = i % n + 1
            while t != i and t in outs:
                covers.append((i, t))
                if t not in partner:
                    break
                t = partner[t] % n + 1
        return frozenset(covers)


def _invalid_reason(
    n: int, pairs: frozenset[tuple[int, int]], singletons: frozenset[int]
) -> str | None:
    if n < 1:
        return "a half-pairing needs at least one point"
    seen: list[int] = list(singletons)
    for a, b in pairs:
        seen.extend((a, b))
    if len(seen) != n or set(seen) != set(range(1, n + 1)):
        return f"blocks do not partition 1..{n}"
    if not singletons:
        return "a half-pairing needs at least one singleton (through string)"
    # One bracket pass: a chord that does not close the innermost open chord
    # crosses it.  The merged singletons must not cross a chord either, so a
    # chord holds none or all of them.
    mate = dict(pairs) | {b: a for a, b in pairs}
    opened: list[tuple[int, int]] = []  # (open point, singletons before it)
    passed, separating = 0, None
    for i in range(1, n + 1):
        a = mate.get(i, 0)
        if not a:
            passed += 1
        elif a > i:
            opened.append((i, passed))
        else:
            c, before = opened.pop()
            if c != a:
                return f"pairs {(a, i)} and {(c, mate[c])} cross"
            if separating is None and 0 < passed - before < len(singletons):
                separating = f"pair {(a, i)} separates the through strings"
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
    between them (clockwise) is paired within that stretch.  Computed once
    per pairing.
    """
    return p._covers


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
    start = rotation % n if rotation else 0
    letters = w.letters[start:] + w.letters[:start]
    survivors, pairs = _reduce_with_partners(letters)
    if not survivors:
        raise ValueError("word reduces to the identity; no half-pairing exists")
    if not _is_good(letters, survivors):
        if rotation is not None:
            raise ValueError(f"rotation {start} does not have good reduction")
        start = _good_rotations(letters, survivors, pairs)[0]
        survivors, pairs = _reduce_with_partners(letters[start:] + letters[:start])
    back = lambda j: (start + j) % n + 1
    return HalfPairing(
        n,
        frozenset((back(i), back(j)) for i, j in pairs),
        frozenset(back(j) for j in survivors),
    )


def standard_cyclic_reduction(w: Word) -> Word:
    """The through-string letters of the admissible half-pairing, in index order.

    This is a cyclic reduction of the word, possibly a different rotation than
    the one ``cyclic_reduce`` returns.  Words reducible to the identity reduce
    to the empty word by convention.
    """
    return Word(w.alphabet_size, _standard_reduction_letters(w.letters))


def _standard_reduction_letters(letters: tuple[int, ...]) -> tuple[int, ...]:
    """standard_cyclic_reduction on a raw letter tuple; the census calls it per word."""
    return tuple(letters[r] for r in _good_rotations(letters, *_reduce_with_partners(letters)))


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

    One bracket pass over two laps of the circle: a black opens in the first
    lap only, and a white not yet matched closes the innermost open black.
    Needs strictly fewer blacks than whites so at least one singleton remains.
    """
    colors = d.colors
    n = d.n
    if 2 * colors.count("B") >= n:
        raise ValueError("need fewer black dots than white dots")
    opened: list[int] = []
    mate: dict[int, int] = {}  # white -> its black
    for i in range(2 * n):
        t = i % n + 1
        if colors[t - 1] == "B":
            if i < n:
                opened.append(t)
        elif opened and t not in mate:
            mate[t] = opened.pop()
    singles = frozenset(t for t in range(1, n + 1) if colors[t - 1] == "W" and t not in mate)
    return HalfPairing(n, frozenset((b, w) for w, b in mate.items()), singles)


def enumerate_half_pairings(n: int, k: int) -> list[HalfPairing]:
    """All half-pairings on n points with exactly k through strings.

    Generated from dot diagrams, one per choice of (n-k)/2 black positions,
    so the count is C(n, (n-k)/2).
    """
    if k < 1 or k > n:
        raise ValueError("need 1 <= k <= n")
    if (n - k) % 2:
        raise ValueError(f"no half-pairing on {n} points with {k} through strings: parity")
    result = []
    for blacks in combinations(range(1, n + 1), (n - k) // 2):
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
    return HalfPairing(
        int(data["n"]),
        frozenset((int(a), int(b)) for a, b in data["pairs"]),
        frozenset(int(s) for s in data["singletons"]),
    )
