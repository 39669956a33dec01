"""Self-tests of the benchmark's checkers.

Each checker must accept a correct output and reject the same output with one
deliberate corruption, so a check that passes whatever it is given is caught.
Every benchmark run calls run() before it measures; by hand:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import itertools
import json
import random
import sys

import checks
import wl_cli


def _rejects(check, *args) -> bool:
    try:
        check(*args)
    except checks.CheckFailed:
        return True
    return False


def chord_on_equal_letters():
    """A chord moved so that it joins two equal letters."""
    rng = random.Random(7)
    while True:
        w = tuple(rng.choice((1, -1, 2, -2)) for _ in range(16))
        if not checks.cyclic_reduce_letters(w):
            continue
        pairs, singles = checks.admissible_pairing(w)
        for (a, b), s in itertools.product(sorted(pairs), sorted(singles)):
            if w[s - 1] == w[a - 1]:
                moved = (pairs - {(a, b)}) | {(min(a, s), max(a, s))}
                return checks.check_pairing, (w, pairs, singles), (w, moved, (singles - {s}) | {b})


def census_off_by_one():
    """One census class count off by one."""
    n, gens = 4, 2
    counts: dict[str, int] = {}
    for w in itertools.product((1, -1, 2, -2), repeat=n):
        if checks.cyclic_reduce_letters(w):
            _, singles = checks.admissible_pairing(w)
            key = checks.key_text(w[i - 1] for i in sorted(singles))
        else:
            key = ""
        counts[key] = counts.get(key, 0) + 1
    bad = dict(counts)
    bad["ab"] += 1
    return checks.check_census, (n, gens, counts), (n, gens, bad)


def changed_coefficient():
    """One polynomial coefficient changed."""
    good = checks.fluctuation_coeffs(7, 2)
    bad = list(good)
    bad[1] += 1
    return checks.check_poly, (7, 2, good), (7, 2, bad)


def non_unitary():
    """A unitary matrix with one column stretched by 0.1%."""
    import numpy as np

    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20)))
    bad = q.copy()
    bad[:, 0] *= 1.001
    return checks.check_unitary, (q,), (bad,)


def altered_cli_field():
    """One field of a CLI JSON output altered."""
    name, args, check = wl_cli.commands(random.Random(5))[0]
    w = checks.parse_key(args[1])
    red = checks.reduce_letters(w)
    good = {"word": args[1], "reduced": checks.key_text(red), "letters": red, "length": len(red)}
    bad = dict(good, length=len(red) + 1)
    return check, (0, json.dumps(good), ""), (0, json.dumps(bad), "")


def dropped_rotation():
    """One good rotation missing from the list."""
    w = (1, 2, 1, -2, 2, 2, 1)
    listed = [r for r in range(len(w)) if checks.is_good_rotation(w, r)]
    k = len(checks.cyclic_reduce_letters(w))
    return (lambda *a: checks.check_good_rotations(*a, random.Random(0))), (w, listed, k), (w, listed[1:], k)


CASES = (chord_on_equal_letters, census_off_by_one, changed_coefficient, non_unitary,
         altered_cli_field, dropped_rotation)


def run() -> list[str]:
    """Names of the checkers that reject a correct output or accept a corrupted one."""
    broken = []
    for case in CASES:
        check, good, bad = case()
        if _rejects(check, *good) or not _rejects(check, *bad):
            broken.append(case.__name__)
    return broken


if __name__ == "__main__":
    broken = run()
    for name in broken:
        print(f"checker self-test failed: {name}")
    print("ok" if not broken else f"{len(broken)} of {len(CASES)} self-tests failed")
    sys.exit(1 if broken else 0)
