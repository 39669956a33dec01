"""Acceptance suite: one test per criterion, exact unless marked statistical.

Criteria 1-7 are exact (exhaustive enumeration or big-integer identities);
criteria 8-10 check limiting statements statistically at fixed seeds chosen up
front.  Each test prints a one-line verdict (visible with ``pytest -s``).
"""

import math
import random
from itertools import product

from freecycle import (
    SimConfig,
    Word,
    admissible_half_pairing,
    census,
    cyclic_reduce,
    cyclically_reduced_words,
    diagonalization_from_samples,
    enumerate_half_pairings,
    estimate_moment,
    fluctuation_poly,
    fluctuation_poly_recurrence,
    good_rotations,
    is_word_admissible,
    kesten_moment,
    linear_reduce,
    reduction_class_size,
    sample_traces,
    verify_poly_expansion,
    verify_power_expansion,
    word_to_text,
)

from oracles import brute_force_half_pairings, naive_good_rotations, second_order_limits

MOMENT_SEED = 12345
DIAGONALIZATION_SEED = 67890
SECOND_ORDER_SEED = 424242


def _all_words(n_gens: int, n: int):
    alphabet = [s * g for g in range(1, n_gens + 1) for s in (1, -1)]
    for letters in product(alphabet, repeat=n):
        yield Word(n_gens, letters)


def test_criterion_1_cycle_lemma_exhaustive():
    checked = 0
    for n_gens, n_max in ((1, 10), (2, 8)):
        for n in range(1, n_max + 1):
            for w in _all_words(n_gens, n):
                rotations = good_rotations(w)
                assert rotations == naive_good_rotations(w)
                assert len(rotations) == len(cyclic_reduce(w))
                checked += 1
    print(f"ACCEPTANCE 1 PASS: cycle lemma exact on {checked} words "
          "(N=1 n<=10, N=2 n<=8, exhaustive)")


def test_criterion_2_admissible_pairing_unique():
    pairings_cache = {}
    checked = 0
    for n in range(1, 9):
        for w in _all_words(2, n):
            k = len(cyclic_reduce(w))
            if k == 0:
                continue
            if (n, k) not in pairings_cache:
                pairings_cache[n, k] = enumerate_half_pairings(n, k)
            admissible = [
                p for p in pairings_cache[n, k] if is_word_admissible(w, p)
            ]
            assert len(admissible) == 1, f"{word_to_text(w)}: {len(admissible)} admissible"
            assert admissible[0] == admissible_half_pairing(w)
            checked += 1
    print(f"ACCEPTANCE 2 PASS: unique admissible half-pairing on {checked} words "
          "(N=2, n<=8, exhaustive filter vs construction)")


def test_criterion_3_half_pairing_counts():
    for n in range(1, 13):
        for k in range(2 - (n % 2), n + 1, 2):
            if k < 1:
                continue
            assert len(enumerate_half_pairings(n, k)) == math.comb(n, (n - k) // 2)
    for n in range(1, 11):
        brute = {}
        for p in brute_force_half_pairings(n):
            brute.setdefault(p.through_count, set()).add((p.pairs, p.singletons))
        for k in range(2 - (n % 2), n + 1, 2):
            if k < 1:
                continue
            generated = {(p.pairs, p.singletons) for p in enumerate_half_pairings(n, k)}
            assert generated == brute.get(k, set())
    print("ACCEPTANCE 3 PASS: half-pairing counts are C(n,(n-k)/2) for n<=12, "
          "sets match the brute-force partition filter for n<=10")


def test_criterion_4_census_class_sizes():
    for n_gens, n_max in ((1, 12), (2, 8)):
        for n in range(1, n_max + 1):
            tally = census(n, n_gens)
            for key, count in tally.counts.items():
                if key:
                    assert count == reduction_class_size(n, len(key), n_gens)
            for k in range(n, 0, -2):
                for v in cyclically_reduced_words(k, n_gens):
                    assert word_to_text(v) in tally.counts
    for v in cyclically_reduced_words(2, 2):
        assert census(4, 2).counts[word_to_text(v)] == 12
        assert census(6, 2).counts[word_to_text(v)] == 135
    print("ACCEPTANCE 4 PASS: census class sizes equal the exact formula "
          "(N=1 n<=12, N=2 n<=8; 12 per class at (4,2), 135 at (6,2))")


def test_criterion_5_power_expansion():
    for n_gens in (1, 2):
        for n in range(1, 9):
            report = verify_power_expansion(n, n_gens)
            assert report.ok, report.violations
            assert report.total == (2 * n_gens) ** n
            if n % 2 == 0:
                assert census(n, n_gens).counts[""] == kesten_moment(n, n_gens)
    print("ACCEPTANCE 5 PASS: power expansion verified for n<=8, N<=2 "
          "(totals (2N)^n, identity class = Kesten moment, closed form vs census exact)")


def test_criterion_6_shift_translation():
    rng = random.Random(0xACCE55)
    words_checked = 0
    while words_checked < 1000:
        n_gens = rng.randint(1, 3)
        n = rng.randint(1, 20)
        w = Word(
            n_gens, tuple(rng.randint(1, n_gens) * rng.choice((1, -1)) for _ in range(n))
        )
        k = len(cyclic_reduce(w))
        if k == 0:
            continue
        bound = n + (n * n) // k
        for _ in range(10):
            s_len = rng.randint(bound + 1, bound + 2 * n)
            s = Word(n_gens, tuple(w.letters[i % n] for i in range(s_len)))
            assert len(linear_reduce(w + s)) == k + len(linear_reduce(s))
        words_checked += 1
    print("ACCEPTANCE 6 PASS: |ws| = k + |s| on 1000 random words x 10 long "
          "prefixes each (N<=3, n<=20, k>=1)")


def test_criterion_7_polynomials():
    residuals = {}
    for n_gens in (1, 2):
        for n in range(1, 9):
            report = verify_poly_expansion(n, n_gens)
            assert report.triangle_exact, report.violations
            rec = fluctuation_poly_recurrence(n, n_gens, "x")
            tri = fluctuation_poly(n, n_gens)
            if n % 2:
                assert rec == tri
            else:
                diff = rec - tri
                assert diff.degree <= 0
                residuals[n, n_gens] = 0 if diff.is_zero else diff.coeffs[0]
    assert residuals[2, 2] == 0
    print("ACCEPTANCE 7 PASS: triangle polynomials expand exactly to Q_n "
          f"(n<=8, N<=2); recurrence matches for odd n, even-n constants {residuals}")


def test_criterion_8_rmt_moments():
    cfg = SimConfig(
        matrix_size=200, alphabet_size=2, trials=500, max_power=6, seed=MOMENT_SEED
    )
    samples = sample_traces(cfg)
    rows = []
    for p in range(1, 7):
        est, se = estimate_moment(samples, p)
        ref = kesten_moment(p, 2)
        rows.append(f"p={p}: {est:.5f} vs {ref} (se {se:.5f})")
        assert abs(est - ref) <= 3 * se, rows[-1]
    print("ACCEPTANCE 8 PASS: trace moments match Kesten moments within 3 SE "
          f"at m=200, T=500, seed={MOMENT_SEED}; " + "; ".join(rows))


def test_criterion_9_rmt_diagonalization():
    cfg = SimConfig(
        matrix_size=200,
        alphabet_size=2,
        trials=2000,
        max_power=4,
        seed=DIAGONALIZATION_SEED,
        z_threshold=4.0,
    )
    samples = sample_traces(cfg)
    report = diagonalization_from_samples(samples, 4)
    offdiag = [
        abs(report.basis_z[i][j]) for i in range(4) for j in range(4) if i != j
    ]
    mono_offdiag = [
        abs(report.monomial_z[i][j]) for i in range(4) for j in range(4) if i != j
    ]
    assert report.basis_offdiag_ok, f"max basis off-diagonal |z| = {max(offdiag):.2f}"
    assert report.monomial_has_large_offdiag, (
        f"max monomial off-diagonal |z| = {max(mono_offdiag):.2f}"
    )
    print("ACCEPTANCE 9 PASS: diagonalizing basis off-diagonal max |z| = "
          f"{max(offdiag):.2f} <= 4; monomial contrast max |z| = "
          f"{max(mono_offdiag):.2f} > 4 (m=200, T=2000, seed={DIAGONALIZATION_SEED})")


def test_criterion_10_rmt_second_order_limits():
    cfg = SimConfig(
        matrix_size=60, alphabet_size=2, trials=2000, max_power=4, seed=SECOND_ORDER_SEED
    )
    report = diagonalization_from_samples(sample_traces(cfg), 4)
    monomial, diagonal = second_order_limits(4, 2)
    basis = [[diagonal[i] if i == j else 0 for j in range(4)] for i in range(4)]
    worst = {}
    for name, cov, se, limit in (
        ("basis", report.basis_cov, report.basis_se, basis),
        ("monomial", report.monomial_cov, report.monomial_se, monomial),
    ):
        for i in range(4):
            for j in range(4):
                z = (cov[i][j] - limit[i][j]) / se[i][j]
                assert abs(z) <= 4, f"{name}[{i + 1}][{j + 1}] = {cov[i][j]:.2f} vs {limit[i][j]}"
                worst[name] = max(worst.get(name, 0.0), abs(z))
    print("ACCEPTANCE 10 PASS: every covariance entry within 4 SE of its second-order limit, "
          f"max |z| basis {worst['basis']:.2f}, monomial {worst['monomial']:.2f} "
          f"(m=60, N=2, T=2000, seed={SECOND_ORDER_SEED})")
