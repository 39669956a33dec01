import math
import os
import subprocess
import sys
from itertools import permutations, product

import pytest

import freecycle
from freecycle import (
    BudgetExceededError,
    Census,
    Word,
    census,
    counting,
    cyclically_reduced_words,
    is_cyclically_reduced,
    kesten_moment,
    parse_word,
    reduction_class_size,
    standard_cyclic_reduction,
    verify_power_expansion,
    word_to_text,
)

from oracles import (
    naive_census,
    naive_good_rotations,
    plain_census,
    spelled_power_report,
    walk_kesten_moments,
)


class TestClassSize:
    def test_derived_values(self):
        assert reduction_class_size(5, 1, 1) == 10
        assert reduction_class_size(6, 2, 2) == 135

    def test_parity_and_overflow_give_zero(self):
        assert reduction_class_size(5, 2, 3) == 0
        assert reduction_class_size(3, 5, 2) == 0

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError, match="kesten"):
            reduction_class_size(4, 0, 2)

    def test_closed_forms(self):
        for n_gens in (1, 2, 5):
            for n in range(1, 12):
                assert reduction_class_size(n, n, n_gens) == 1
                if n >= 3:
                    assert reduction_class_size(n, n - 2, n_gens) == (2 * n_gens - 1) * n

    def test_exact_big_integers(self):
        value = reduction_class_size(64, 2, 26)
        assert value == 51 ** 31 * math.comb(64, 31)


class TestKestenMoments:
    def test_small_values(self):
        assert kesten_moment(0, 2) == 1
        assert kesten_moment(2, 2) == 4
        assert [kesten_moment(p, 2) for p in range(1, 7)] == [0, 4, 0, 28, 0, 232]

    def test_odd_moments_vanish(self):
        assert all(kesten_moment(n, 3) == 0 for n in range(1, 12, 2))

    def test_single_generator_is_central_binomial(self):
        for n in range(0, 41, 2):
            assert kesten_moment(n, 1) == math.comb(n, n // 2)

    def test_ballot_sum_matches_the_walk(self):
        for n_gens in (1, 2, 3, 27):
            moments = walk_kesten_moments(200, n_gens)
            assert [kesten_moment(i, n_gens) for i in range(201)] == moments

    def test_matches_census_empty_class(self):
        assert kesten_moment(4, 2) == census(4, 2).counts[""]
        assert kesten_moment(6, 1) == census(6, 1).counts[""]


class TestCyclicallyReducedWords:
    def test_counts(self):
        assert len(cyclically_reduced_words(0, 2)) == 1
        assert len(cyclically_reduced_words(1, 2)) == 4
        assert len(cyclically_reduced_words(2, 2)) == 12
        assert len(cyclically_reduced_words(4, 2)) == 84

    def test_all_actually_reduced(self):
        for w in cyclically_reduced_words(5, 2):
            assert is_cyclically_reduced(w)

    def test_exhaustive_against_filter(self):
        # the filter keeps product order over the sorted alphabet: lexicographic order
        for n_gens in (2, 3):
            alphabet = sorted(g for a in range(1, n_gens + 1) for g in (a, -a))
            for k in range(1, 6):
                expected = [
                    letters
                    for letters in product(alphabet, repeat=k)
                    if is_cyclically_reduced(Word(n_gens, letters))
                ]
                assert [w.letters for w in cyclically_reduced_words(k, n_gens)] == expected

    def test_canonical_ones_are_the_canonical_forms(self):
        # the shortfall listing of a failed check looks up only these
        for n_gens in (1, 2, 3, 4):
            for k in range(6):
                forms = {
                    counting._relabel_by_first_use(w.letters)[0]
                    for w in cyclically_reduced_words(k, n_gens)
                }
                canonical = counting._canonical_reduced(k, n_gens)
                assert len(canonical) == len(forms) and set(canonical) == forms


class TestCensus:
    def test_single_letters(self):
        tally = census(1, 3)
        assert all(count == 1 for count in tally.counts.values())
        assert len(tally.counts) == 6

    def test_length_five_single_generator(self):
        assert dict(census(5, 1).counts) == {
            "a": 10, "A": 10, "aaa": 5, "AAA": 5, "aaaaa": 1, "AAAAA": 1,
        }

    def test_length_four_two_generators(self):
        tally = census(4, 2)
        for v in cyclically_reduced_words(2, 2):
            assert tally.counts[word_to_text(v)] == 12
        assert tally.total == 256

    def test_counts_sum_to_all_words(self):
        for n_gens in (1, 2):
            for n in range(0, 6):
                assert census(n, n_gens).total == (2 * n_gens) ** n

    def test_matches_per_word_reduction(self):
        for n, n_gens in ((5, 2), (8, 2), (6, 3), (12, 1), (2, 27)):
            assert dict(census(n, n_gens).counts) == plain_census(n, n_gens)

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            census(30, 2, budget=10**6)
        with pytest.raises(BudgetExceededError, match="more than 10"):  # too long to print
            census(20000, 2)
        # and so is a budget too long to print, rather than raising Python's int-to-text error
        with pytest.raises(BudgetExceededError, match=r"more than 10\^12045 word-steps"):
            census(20000, 2, budget=10**4300)

    def test_no_result_is_kept(self, monkeypatch):
        calls = []
        real = counting._census_range

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(counting, "_census_range", counted)
        first, second = census(3, 2), census(3, 2)
        assert calls == [(3, 2)] * 2
        assert dict(first.counts) == dict(second.counts)

    def test_empty_length(self):
        for n_gens in (2, 27):
            assert dict(census(0, n_gens).counts) == {"": 1}

    def test_large_alphabet_uses_json_keys(self):
        tally = census(1, 27)
        assert tally.counts["[27]"] == 1
        assert tally.counts["[-1]"] == 1
        assert tally.total == 54

    def test_large_alphabet_identity_class_is_empty_key(self):
        assert census(2, 27).counts[""] == kesten_moment(2, 27)

    def test_matches_rotation_oracle(self):
        for n_gens, n_max in ((1, 6), (2, 6), (3, 4)):
            for n in range(n_max + 1):
                assert dict(census(n, n_gens).counts) == naive_census(n, n_gens)

    def test_matches_per_word_reduction_on_symmetric_and_periodic_sizes(self):
        # many orbits here are short: a^n, (aA)^m, and words over all N generators
        for n, n_gens in ((4, 4), (5, 3), (9, 1), (10, 1)):
            assert dict(census(n, n_gens).counts) == plain_census(n, n_gens)

    def test_periodic_words_count_each_rotation_once(self):
        # Each word's orbit under rotations and signed relabelings is smaller than n
        # times its relabelings, so the walk must count only its rotations below the
        # period: the classes of those rotations get plain_census's counts.
        periodic = ("ababab", "aBaBaB", "aAaAaA", "aaaaaa", "abAabA", "aabaab")
        for n_gens, texts in ((2, periodic), (3, (*periodic, "abcabc", "abCabC"))):
            want = plain_census(6, n_gens)
            counts = census(6, n_gens).counts
            gens = range(1, n_gens + 1)
            relabelings = [
                {e * g: e * s * p for g, p, s in zip(gens, perm, signs) for e in (1, -1)}
                for perm in permutations(gens)
                for signs in product((1, -1), repeat=n_gens)
            ]
            for text in texts:
                letters = parse_word(text, n_gens).letters
                rotations = {letters[r:] + letters[:r] for r in range(6)}
                images = {tuple(sigma[l] for l in letters) for sigma in relabelings}
                orbit = {tuple(sigma[l] for l in rot) for rot in rotations for sigma in relabelings}
                assert len(orbit) < 6 * len(images)
                for rot in rotations:
                    key = word_to_text(standard_cyclic_reduction(Word(n_gens, rot)))
                    assert counts[key] == want[key]

    def test_rotation_moves_the_reduction_by_good_rotations_below(self):
        # The census tallies every rotation of a word from one kernel pass:
        # std(rot_r w) = rot_c(std w), c the number of good rotations of w below r.
        for n_gens, n_max in ((1, 12), (2, 7)):
            alphabet = [s * g for g in range(1, n_gens + 1) for s in (1, -1)]
            for n in range(1, n_max + 1):
                good = {
                    letters: naive_good_rotations(Word(n_gens, letters))
                    for letters in product(alphabet, repeat=n)
                }
                for letters, rotations in good.items():
                    std = [letters[g] for g in rotations]
                    for r in range(n):
                        c = sum(g < r for g in rotations)
                        rotated = letters[r:] + letters[:r]
                        assert [rotated[g] for g in good[rotated]] == std[c:] + std[:c]

    def test_reduction_commutes_with_signed_relabelings(self):
        # The census reduces one word per orbit of signed relabelings; this checks what
        # that rests on, word by word: std(sigma w) = sigma(std w), with std(w) read at
        # the good rotations that the rotation-by-rotation oracle finds.
        for n_gens in (1, 2):
            alphabet = [s * g for g in range(1, n_gens + 1) for s in (1, -1)]
            relabelings = [
                {e * g: e * s * p for g, p, s in zip(alphabet[::2], perm, signs) for e in (1, -1)}
                for perm in permutations(range(1, n_gens + 1))
                for signs in product((1, -1), repeat=n_gens)
            ]
            assert len(relabelings) == 2**n_gens * math.factorial(n_gens)
            for n in range(1, 8):
                for letters in product(alphabet, repeat=n):
                    w = Word(n_gens, letters)
                    reduction = tuple(letters[r] for r in naive_good_rotations(w))
                    for sigma in relabelings:
                        image = Word(n_gens, tuple(sigma[l] for l in letters))
                        assert standard_cyclic_reduction(image).letters == tuple(
                            sigma[l] for l in reduction
                        )

    def test_class_sizes_match_formula(self):
        for n_gens, n_max in ((1, 9), (2, 7)):
            for n in range(1, n_max + 1):
                tally = census(n, n_gens)
                for key, count in tally.counts.items():
                    if key:
                        assert count == reduction_class_size(n, len(key), n_gens)


class TestVerifyPowerExpansion:
    def test_length_four(self):
        report = verify_power_expansion(4, 2)
        assert report.ok
        assert report.total == 84 * 1 + 12 * 12 + 28 == 256

    def test_length_three_single_generator(self):
        report = verify_power_expansion(3, 1)
        assert report.ok and report.total == 8

    @pytest.mark.parametrize("n_gens", [1, 2, 3])
    def test_length_two(self, n_gens):
        report = verify_power_expansion(2, n_gens)
        assert report.ok
        assert report.total == (2 * n_gens) ** 2

    def test_large_alphabet_identity_class(self):
        # the census and the prediction both key the identity class ""
        assert verify_power_expansion(2, 27).ok

    @pytest.mark.parametrize("n, n_gens", [(18, 1), (10, 2), (7, 3), (6, 4)])
    def test_larger_sizes(self, n, n_gens):
        # N = 3 and 4 above n = 2, and N <= 2 at lengths that no other census test reaches
        assert verify_power_expansion(n, n_gens).ok

    @pytest.mark.parametrize("n, n_gens", [(9, 3), (7, 4)])
    def test_sizes_with_millions_of_classes(self, n, n_gens):
        # 2,034,510 and 840,704 classes, checked one orbit of signed relabelings at a time
        report = verify_power_expansion(n, n_gens)
        assert report.ok and report.total == (2 * n_gens) ** n

    def test_nine_three_peak_memory(self):
        # ru_maxrss is in KiB on Linux; spelling every class took about 0.9 GB here
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(freecycle.__file__)))
        code = (
            "import resource; from freecycle import verify_power_expansion as v; "
            "assert v(9, 3).ok; print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, check=True)
        assert int(proc.stdout) < 150 * 1024

    def test_classes_are_not_spelled(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a class was spelled")

        monkeypatch.setattr(counting, "_spell", refuse)
        assert verify_power_expansion(6, 3).ok

    def test_report_shape(self):
        report = verify_power_expansion(5, 1)
        data = report.to_json()
        assert data["ok"] is True
        assert data["violations"] == []


SPELLED_SIZES = sorted(
    {(n, 1) for n in range(1, 13)}  # criterion 4
    | {(n, 2) for n in range(1, 9)}  # criteria 4, 5 and 7
    | {(5, 3), (4, 4), (18, 1), (10, 2), (7, 3), (6, 4)}
)


def _edited_orbits(n: int, n_gens: int):
    """The census's orbits with one edit each: a class of length n dropped or
    miscounted, the empty class dropped at even n, and classes added that are not cyclically
    reduced, of the wrong parity, or longer than n."""
    orbits = dict(census(n, n_gens).orbits)
    longest = max(orbits, key=len)
    yield {key: c for key, c in orbits.items() if key != longest}
    yield {**orbits, longest: orbits[longest] + 1}
    if n % 2 == 0:
        yield {key: c for key, c in orbits.items() if key}
    yield {**orbits, (1, -1): 3}
    yield {**orbits, (1,) * (1 + n % 2): 1}
    yield {**orbits, (1,) * (n + 2): 1}


class TestOrbitFormAgainstSpelledOracle:
    """verify_power_expansion checks one canonical class per orbit; the oracle checks
    every spelled class against every cyclically reduced word listed."""

    @pytest.mark.parametrize("n, n_gens", SPELLED_SIZES)
    def test_report_equals_spelled_report(self, n, n_gens):
        report = verify_power_expansion(n, n_gens)
        assert (list(report.violations), report.total) == spelled_power_report(census(n, n_gens))

    @pytest.mark.parametrize("n, n_gens", [(3, 1), (4, 2), (5, 2), (5, 3), (4, 4), (2, 27)])
    def test_edited_census_reports_equal(self, monkeypatch, n, n_gens):
        for orbits in _edited_orbits(n, n_gens):
            tally = Census(n_gens, n, orbits=orbits)
            monkeypatch.setattr(counting, "census", lambda *a, **kw: tally)
            report = verify_power_expansion(n, n_gens)
            assert not report.ok
            assert "counts" not in vars(tally)  # the check never spells the census
            assert (list(report.violations), report.total) == spelled_power_report(tally)


class TestMomentTable:
    """The class-size triangle: reduction_class_size for k >= 1, kesten_moment for k = 0."""

    def test_column_sum_identity(self):
        for n_gens in (1, 2, 3):
            reduced_counts = {
                k: len(cyclically_reduced_words(k, n_gens)) for k in range(1, 9)
            }
            for n in range(1, 9):
                total = sum(
                    reduced_counts[k] * reduction_class_size(n, k, n_gens)
                    for k in range(1, n + 1)
                )
                total += kesten_moment(n, n_gens)
                assert total == (2 * n_gens) ** n
