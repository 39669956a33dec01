"""Checks of the program's outputs, computed apart from the program.

Nothing here imports freecycle.  Words are tuples of signed generator indices
(+g a generator, -g its inverse); pairings use 1-based positions.  Every check
raises CheckFailed with a reason, so a caller records one failure per
operation and keeps going.
"""

from __future__ import annotations

import math
import random


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's own computation."""


def expect(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


# --- words -----------------------------------------------------------------


def reduce_letters(letters) -> list[int]:
    out: list[int] = []
    for l in letters:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return out


def cyclic_reduce_letters(letters) -> tuple[int, ...]:
    red = reduce_letters(letters)
    lo, hi = 0, len(red)
    while hi - lo >= 2 and red[lo] == -red[hi - 1]:
        lo += 1
        hi -= 1
    return tuple(red[lo:hi])


def is_good_rotation(letters, r: int) -> bool:
    """No nonempty prefix of the rotation reduces to 1 and its reduction is cyclically reduced."""
    n = len(letters)
    stack: list[int] = []
    for i in range(r, r + n):
        l = letters[i % n]
        if stack and stack[-1] == -l:
            stack.pop()
            if not stack:
                return False
        else:
            stack.append(l)
    return stack[0] != -stack[-1]


def _codepoints(letters) -> str:
    return "".join(chr(0x4E00 + l) for l in letters)


def is_rotation(a, b) -> bool:
    return len(a) == len(b) and _codepoints(a) in _codepoints(b) * 2


def check_linear_reduce(letters, reduced) -> None:
    expect(tuple(reduced) == tuple(reduce_letters(letters)), "linear_reduce differs from stack reduction")


def check_cyclic_reduce(letters, reduced) -> None:
    expect(tuple(reduced) == cyclic_reduce_letters(letters), "cyclic_reduce differs from own cyclic reduction")


def check_good_rotations(letters, listed, k: int, rng: random.Random, sample: int = 16) -> None:
    """All listed rotations are good, a seeded sample of the others is not, and there are k."""
    n = len(letters)
    expect(len(listed) == k, f"{len(listed)} good rotations listed, cyclic reduction has {k} letters")
    expect(list(listed) == sorted(set(listed)), "good rotations are not sorted and distinct")
    expect(all(0 <= r < n for r in listed), "good rotation offset out of range")
    for r in listed:
        expect(is_good_rotation(letters, r), f"listed rotation {r} fails the good-reduction test")
    listed_set = set(listed)
    unlisted = [r for r in range(n) if r not in listed_set]
    for r in rng.sample(unlisted, min(sample, len(unlisted))):
        expect(not is_good_rotation(letters, r), f"unlisted rotation {r} passes the good-reduction test")


def check_pairing(letters, pairs, singletons) -> None:
    """Chords join inverse letters, do not cross, leave the through strings unseparated,
    and the through strings read a rotation of the cyclic reduction."""
    n = len(letters)
    partner = [0] * (n + 1)
    for a, b in pairs:
        expect(1 <= a <= n and 1 <= b <= n and a != b, f"chord {(a, b)} outside 1..{n}")
        expect(partner[a] == 0 and partner[b] == 0, f"point of chord {(a, b)} used twice")
        partner[a], partner[b] = b, a
        expect(letters[a - 1] == -letters[b - 1], f"chord {(a, b)} joins letters that are not inverse")
    single = [False] * (n + 1)
    for s in singletons:
        expect(1 <= s <= n and partner[s] == 0 and not single[s], f"singleton {s} is not a free point")
        single[s] = True
    expect(len(singletons) >= 1, "no through string")
    expect(2 * len(pairs) + len(singletons) == n, "blocks do not cover every point")
    # Bracket matching: scanning left to right, a chord must close the latest open one.
    open_points: list[int] = []
    seen_single = [0] * (n + 1)
    for i in range(1, n + 1):
        seen_single[i] = seen_single[i - 1] + single[i]
        j = partner[i]
        if j > i:
            open_points.append(i)
        elif j:
            expect(open_points and open_points[-1] == j, f"chord {(j, i)} crosses another chord")
            open_points.pop()
    total = seen_single[n]
    for a, b in pairs:
        a, b = min(a, b), max(a, b)
        inside = seen_single[b] - seen_single[a]
        expect(inside == 0 or inside == total, f"chord {(a, b)} separates the through strings")
    through = tuple(letters[i - 1] for i in sorted(singletons))
    expect(is_rotation(through, cyclic_reduce_letters(letters)),
           "through strings do not read a rotation of the cyclic reduction")


def check_decomposition(letters, prefix, core, suffix) -> None:
    expect(tuple(prefix) + tuple(core) + tuple(suffix) == tuple(letters), "prefix*core*suffix is not the word")
    expect(not reduce_letters(tuple(prefix) + tuple(suffix)), "prefix*suffix does not reduce to 1")


def check_profile(letters, values, k: int, period_start: int) -> None:
    """Consecutive values differ by 1, match prefix reductions, and are shift-periodic from period_start."""
    n = len(letters)
    stack: list[int] = []
    for i, v in enumerate(values):
        l = letters[i % n]
        if stack and stack[-1] == -l:
            stack.pop()
        else:
            stack.append(l)
        expect(v == len(stack), f"profile value {i + 1} is {v}, own prefix reduction has {len(stack)}")
    expect(all(abs(b - a) == 1 for a, b in zip(values, values[1:])), "consecutive profile values differ by other than 1")
    expect(all(values[i - 1 + n] == values[i - 1] + k for i in range(period_start, len(values) - n + 1)),
           "profile is not shift-periodic from period_start")


def admissible_pairing(letters) -> tuple[set[tuple[int, int]], set[int]]:
    """The admissible half-pairing by the paper's construction: rotate to the first good
    offset, cancel with a stack recording partners, map back.  Quadratic; for short words."""
    n = len(letters)
    r = next(r for r in range(n) if is_good_rotation(letters, r))
    stack: list[int] = []
    pairs = set()
    for j in range(n):
        pos = (r + j) % n
        if stack and letters[stack[-1]] == -letters[pos]:
            pairs.add(tuple(sorted((stack.pop() + 1, pos + 1))))
        else:
            stack.append(pos)
    return pairs, {p + 1 for p in stack}


# --- counting and polynomials ------------------------------------------------


def class_size(n: int, k: int, gens: int) -> int:
    if k > n or (n - k) % 2:
        return 0
    half = (n - k) // 2
    return (2 * gens - 1) ** half * math.comb(n, half)


def kesten_count(n: int, gens: int) -> int:
    """Closed walks of length n on the 2N-regular tree, by counting Dyck paths with r returns
    to the root: r/(2h-r) * C(2h-r, h) paths, each weighing (2N)^r (2N-1)^(h-r)."""
    if n % 2:
        return 0
    h = n // 2
    if h == 0:
        return 1
    total = 0
    for r in range(1, h + 1):
        paths, rest = divmod(r * math.comb(2 * h - r, h), 2 * h - r)
        expect(rest == 0, "ballot count is not an integer")
        total += paths * (2 * gens) ** r * (2 * gens - 1) ** (h - r)
    return total


def cyclically_reduced_count(k: int, gens: int) -> int:
    return (2 * gens - 1) ** k + 1 + (gens - 1) * (1 + (-1) ** k)


def parse_key(key: str) -> tuple[int, ...]:
    """Letters of a word in the alphabetic encoding: a = u1, A = u1^-1."""
    return tuple(ord(c) - 96 if c.islower() else -(ord(c) - 64) for c in key)


def key_text(letters) -> str:
    return "".join(chr(96 + l) if l > 0 else chr(64 - l) for l in letters)


def check_census(n: int, gens: int, counts) -> None:
    """Class sizes, the Kesten class, the number of classes per length and the total."""
    per_length: dict[int, int] = {}
    for key, count in counts.items():
        letters = parse_key(key)
        k = len(letters)
        expect(k <= n and (n - k) % 2 == 0, f"class {key!r} has impossible length")
        expect(all(0 < abs(l) <= gens for l in letters), f"class {key!r} uses letters outside the alphabet")
        expect(cyclic_reduce_letters(letters) == letters, f"class {key!r} is not cyclically reduced")
        want = kesten_count(n, gens) if k == 0 else class_size(n, k, gens)
        expect(count == want, f"class {key!r} has {count} words, want {want}")
        per_length[k] = per_length.get(k, 0) + 1
    for k in range(n % 2, n + 1, 2):
        want = 1 if k == 0 else cyclically_reduced_count(k, gens)
        expect(per_length.get(k, 0) == want, f"{per_length.get(k, 0)} classes of length {k}, want {want}")
    expect(sum(counts.values()) == (2 * gens) ** n, f"census total is not {(2 * gens) ** n}")


def fluctuation_coeffs(n: int, gens: int) -> list[int]:
    """R_n of R_{j+1} = x R_j - (2N-1) R_{j-1}, R_0 = 2, R_1 = x, plus (N-1)(1+(-1)^n).

    The constant is 2 for N = 2 and even n: the polynomial whose reduced expansion is
    the sum of the cyclically reduced words of length n."""
    prev, cur = [2], [0, 1]
    for _ in range(n - 1):
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= (2 * gens - 1) * c
        prev, cur = cur, nxt
    out = list(cur if n >= 1 else prev)
    out[0] += (gens - 1) * (1 + (-1) ** n)
    while out and out[-1] == 0:
        out.pop()
    return out


def check_poly(n: int, gens: int, coeffs) -> None:
    expect(list(coeffs) == fluctuation_coeffs(n, gens), f"coefficients of P_{n} differ from the recurrence")


# --- random matrices ---------------------------------------------------------


def unitarity_error(u) -> float:
    import numpy as np

    return float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())


def check_unitary(u, tol: float = 1e-10) -> float:
    err = unitarity_error(u)
    expect(err <= tol, f"max |U*U - I| = {err:.3g} exceeds {tol}")
    return err


def z_check(name: str, estimate: float, target: float, se: float, bound: float) -> float:
    expect(se > 0 and math.isfinite(estimate), f"{name}: no spread to test against")
    z = (estimate - target) / se
    expect(abs(z) <= bound, f"{name}: estimate {estimate:.6g} vs {target} has z = {z:+.2f}, bound {bound}")
    return z
