import concurrent.futures
import math
import os
from itertools import product

import pytest

from freecycle import (
    BudgetExceededError,
    Word,
    census,
    counting,
    cyclically_reduced_words,
    is_cyclically_reduced,
    kesten_moment,
    reduction_class_size,
    standard_cyclic_reduction,
    verify_power_expansion,
    word_to_text,
)

from oracles import naive_census


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
        for n in range(0, 12, 2):
            assert kesten_moment(n, 1) == math.comb(n, n // 2)

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
        alphabet = [1, -1, 2, -2]
        for k in range(1, 6):
            expected = {
                letters
                for letters in product(alphabet, repeat=k)
                if is_cyclically_reduced(Word(2, letters))
            }
            assert {w.letters for w in cyclically_reduced_words(k, 2)} == expected


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
        expected: dict[str, int] = {}
        for letters in product([1, -1, 2, -2], repeat=5):
            key = word_to_text(standard_cyclic_reduction(Word(2, letters)))
            expected[key] = expected.get(key, 0) + 1
        assert dict(census(5, 2).counts) == expected

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            census(30, 2, budget=10**6)

    def test_no_result_is_kept(self, monkeypatch):
        calls = []
        real = counting._census_range

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(counting, "_census_range", counted)
        first, second = census(3, 2), census(3, 2)
        assert calls == [(3, 2, 0, 64)] * 2
        assert dict(first.counts) == dict(second.counts)

    def test_parallel_matches_serial(self):
        serial = census(6, 2, cache=False)
        parallel = census(6, 2, cache=False, jobs=2)
        assert dict(serial.counts) == dict(parallel.counts)

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

    def test_workers_capped_at_core_count(self, monkeypatch):
        workers = []

        class InProcessPool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        capped = census(5, 2, cache=False, jobs=10_000)
        assert workers == [2]
        assert dict(capped.counts) == dict(census(5, 2, cache=False).counts)

    def test_matches_rotation_oracle(self):
        for n_gens, n_max in ((1, 6), (2, 6), (3, 4)):
            for n in range(n_max + 1):
                assert dict(census(n, n_gens).counts) == naive_census(n, n_gens)
        assert dict(census(5, 2, jobs=2).counts) == naive_census(5, 2)

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

    def test_report_shape(self):
        report = verify_power_expansion(5, 1)
        data = report.to_json()
        assert data["ok"] is True
        assert data["violations"] == []


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
