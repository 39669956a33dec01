import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freecycle import (
    Word,
    admissible_half_pairing,
    cyclic_reduce,
    good_rotations,
    has_good_reduction,
    invert,
    is_cyclically_reduced,
    is_reducible_to_one,
    linear_reduce,
    parse_word,
    reduction_profile,
    rotate,
    standard_cyclic_reduction,
    standard_decomposition,
    word_to_text,
)
from freecycle import pairings, words
from freecycle.words import MAX_PROFILE_HORIZON, _reduce_with_partners, periodicity_bound

from oracles import is_dominating, naive_good_rotations, naive_linear_reduce, naive_profile
from strategies import free_words, nonvanishing_words


def all_words(max_len: int = 6, max_gens: int = 2):
    """Every word of length 0..max_len over 1..max_gens generators."""
    for n_gens in range(1, max_gens + 1):
        alphabet = [s * g for g in range(1, n_gens + 1) for s in (1, -1)]
        for n in range(max_len + 1):
            for letters in product(alphabet, repeat=n):
                yield Word(n_gens, letters)


class TestParse:
    def test_alphabetic(self):
        w = parse_word("AbBABa", 2)
        assert w.letters == (-1, 2, -2, -1, -2, 1)

    def test_empty(self):
        assert parse_word("", 3).letters == ()

    def test_out_of_alphabet(self):
        with pytest.raises(ValueError, match="generator 3 exceeds"):
            parse_word("c", 2)

    def test_json_form(self):
        assert parse_word("[1, -2]", 2).letters == (1, -2)
        assert parse_word("[30, -5]", 40).letters == (30, -5)

    def test_json_malformed(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_word("[1, oops]", 2)
        with pytest.raises(ValueError, match="malformed"):
            parse_word("a b", 2)

    def test_json_booleans_rejected(self):
        # JSON true loads as a Python bool, which is an int subclass
        for text in ("[true, 2]", "[false]", "[1, true]"):
            with pytest.raises(ValueError, match="malformed"):
                parse_word(text, 2)

    def test_word_invariants(self):
        with pytest.raises(ValueError):
            Word(2, (0,))
        with pytest.raises(ValueError):
            Word(0, ())
        with pytest.raises(ValueError):
            parse_word("[3]", 2)

    def test_large_alphabet_round_trip(self):
        w = Word(30, (29, -30, 1))
        assert parse_word(word_to_text(w), 30) == w

    def test_empty_word_is_empty_text_in_both_encodings(self):
        for n_gens in (2, 27):
            assert word_to_text(Word(n_gens, ())) == ""
            assert parse_word("", n_gens) == Word(n_gens, ())

    @given(free_words())
    def test_text_round_trip(self, w):
        assert parse_word(word_to_text(w), w.alphabet_size) == w


class TestInvert:
    def test_reverses_and_inverts(self):
        assert word_to_text(invert(parse_word("ab", 2))) == "BA"

    def test_empty(self):
        assert invert(parse_word("", 2)).letters == ()

    @given(free_words())
    def test_involution(self, w):
        assert invert(invert(w)) == w


class TestLinearReduce:
    def test_spec_example(self):
        assert word_to_text(linear_reduce(parse_word("AbBABa", 2))) == "AABa"

    def test_single_cancellation(self):
        assert linear_reduce(parse_word("aA", 1)).letters == ()

    @given(free_words())
    def test_idempotent(self, w):
        once = linear_reduce(w)
        assert linear_reduce(once) == once

    @given(free_words())
    def test_matches_rewriting_oracle(self, w):
        assert linear_reduce(w).letters == naive_linear_reduce(w.letters)

    @given(free_words())
    def test_commutes_with_invert(self, w):
        assert linear_reduce(invert(w)) == invert(linear_reduce(w))


class TestCyclicReduce:
    def test_goldens(self):
        assert word_to_text(cyclic_reduce(parse_word("AbBABa", 2))) == "AB"
        assert word_to_text(cyclic_reduce(parse_word("aaAbbBAA", 2))) == "bA"
        assert word_to_text(cyclic_reduce(parse_word("abAB", 2))) == "abAB"

    @given(free_words())
    def test_result_cyclically_reduced(self, w):
        assert is_cyclically_reduced(cyclic_reduce(w))

    @given(free_words(min_len=1), st.integers(0, 23))
    def test_length_rotation_invariant(self, w, r):
        assert len(cyclic_reduce(rotate(w, r))) == len(cyclic_reduce(w))

    @given(free_words(min_len=1), st.integers(0, 23))
    def test_reductions_are_rotations_of_each_other(self, w, r):
        a = cyclic_reduce(w).letters
        b = cyclic_reduce(rotate(w, r)).letters
        assert len(a) == len(b)
        assert not a or b in [a[i:] + a[:i] for i in range(len(a))]


class TestReducibleToOne:
    @pytest.mark.parametrize(
        "text,expected", [("abBA", True), ("ab", False), ("aabB", False), ("", True)]
    )
    def test_examples(self, text, expected):
        assert is_reducible_to_one(parse_word(text, 2)) is expected

    def test_matches_rewriting_oracle_exhaustive(self):
        for w in all_words():
            reduced = naive_linear_reduce(w.letters)
            assert linear_reduce(w).letters == reduced
            assert is_reducible_to_one(w) == (reduced == ())


class TestGoodReduction:
    def test_examples(self):
        assert has_good_reduction(parse_word("aaaAA", 1)) is True
        assert has_good_reduction(parse_word("aAaaa", 1)) is False
        # no prefix reduces to 1, but the linear reduction abAA is not
        # cyclically reduced
        assert has_good_reduction(parse_word("aaAbbBAA", 2)) is False

    def test_matches_rotation_oracle_exhaustive(self):
        for w in all_words():
            if w.letters:
                good = naive_good_rotations(w)
                for r in range(len(w)):
                    assert has_good_reduction(rotate(w, r)) == (r in good)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            has_good_reduction(parse_word("", 2))
        with pytest.raises(ValueError):
            good_rotations(parse_word("", 2))


class TestGoodRotations:
    def test_goldens(self):
        assert good_rotations(parse_word("aaaAA", 1)) == [0]
        assert good_rotations(parse_word("aA", 1)) == []
        assert good_rotations(parse_word("aaAbbBAA", 2)) == [2, 3]
        # the worst case of a rotation-by-rotation search; linear here
        m = 50_000
        w = Word(1, (1,) * m + (-1,) * (m + 1))
        assert good_rotations(w) == [m]
        assert admissible_half_pairing(w).singletons == frozenset({m + 1})

    def test_rotation_convention(self):
        w = parse_word("abab", 2)
        assert word_to_text(rotate(w, 1)) == "baba"
        assert rotate(w, 0) == w
        assert rotate(w, 4) == w

    def test_cycle_lemma_exhaustive_small(self):
        from itertools import product

        for n_gens, max_len in ((1, 7), (2, 7), (3, 5)):
            alphabet = [s * g for g in range(1, n_gens + 1) for s in (1, -1)]
            for n in range(1, max_len + 1):
                for letters in product(alphabet, repeat=n):
                    w = Word(n_gens, letters)
                    rotations = good_rotations(w)
                    assert rotations == naive_good_rotations(w)
                    assert len(rotations) == len(cyclic_reduce(w))

    def test_cycle_lemma_random_battery(self):
        rng = random.Random(0xFC0)
        for _ in range(10_000):
            n_gens = rng.randint(1, 3)
            n = rng.randint(1, 64)
            letters = tuple(
                rng.randint(1, n_gens) * rng.choice((1, -1)) for _ in range(n)
            )
            w = Word(n_gens, letters)
            rotations = good_rotations(w)
            assert rotations == naive_good_rotations(w)
            assert len(rotations) == len(cyclic_reduce(w))
        # Structured words of 100-300 letters: u c u^-1 at a random rotation, and
        # a^m A^(m+d), whose bad rotations reduce far before failing.
        for i in range(50):
            n_gens = rng.randint(1, 3)
            draw = lambda size: [rng.randint(1, n_gens) * rng.choice((1, -1)) for _ in range(size)]
            if i % 2:
                k = rng.randint(1, 60)
                u, c = draw(rng.randint((101 - k) // 2, (300 - k) // 2)), draw(k)
                letters = u + c + [-l for l in reversed(u)]
            else:
                g = rng.randint(1, n_gens) * rng.choice((1, -1))
                m, d = rng.randint(50, 148), rng.randint(1, 3)
                letters = [g] * m + [-g] * (m + d)
            w = rotate(Word(n_gens, tuple(letters)), rng.randrange(len(letters)))
            rotations = good_rotations(w)
            assert rotations == naive_good_rotations(w)
            assert len(rotations) == len(cyclic_reduce(w))

    def test_every_good_rotation_from_one_walk(self):
        # Where rotation 0 is bad, every good rotation is a height record of
        # one walk over rotation 0's pass, not a survivor of a second pass.
        cases = [w for w in all_words() if w.letters and not is_reducible_to_one(w)]
        cases += [rotate(Word(1, (1,) * m + (-1,) * (m + d)), r)
                  for m in (1, 2, 5, 40) for d in (1, 2, 3) for r in range(0, 2 * m + d, 3)]
        for w in cases:
            assert good_rotations(w) == naive_good_rotations(w)

    def test_kernel_passes_per_call(self, monkeypatch):
        passes = []

        def counted(letters):
            passes.append(letters)
            return _reduce_with_partners(letters)

        monkeypatch.setattr(words, "_reduce_with_partners", counted)
        monkeypatch.setattr(pairings, "_reduce_with_partners", counted)
        good, bad = parse_word("aaaAA", 1), parse_word("aAaaa", 1)
        for call, expected in (
            (lambda: good_rotations(bad), 1),
            (lambda: standard_cyclic_reduction(bad), 1),
            (lambda: admissible_half_pairing(good), 1),
            (lambda: admissible_half_pairing(bad, rotation=2), 1),
            (lambda: admissible_half_pairing(bad), 2),
        ):
            passes.clear()
            call()
            assert len(passes) == expected

    def test_single_generator_matches_dominating_strings(self):
        from itertools import product

        for n in range(1, 11):
            for signs in product((1, -1), repeat=n):
                w = Word(1, signs)
                k = sum(signs)
                dominating = [
                    r
                    for r in range(n)
                    if is_dominating(list(signs[r:] + signs[:r]))
                ]
                assert len(cyclic_reduce(w)) == abs(k)
                if k > 0:
                    assert good_rotations(w) == dominating
                    assert len(dominating) == k


class TestReductionProfile:
    def test_single_generator(self):
        profile = reduction_profile(parse_word("a", 1))
        assert profile.values == tuple(range(1, profile.horizon + 1))
        assert profile.period_start == 1

    def test_shift_periodic_word(self):
        profile = reduction_profile(parse_word("aaAbbBAA", 2))
        assert profile.k == 2
        assert profile.values[:18] == (1, 2, 1, 2, 3, 2, 3, 4, 3, 2, 3, 4, 5, 4, 5, 6, 5, 4)
        # the minimal start of shift-periodicity; it also holds from i = 10 on
        assert profile.period_start == 3
        n = 8
        for i in range(10, profile.horizon - n + 1):
            assert profile.values[i - 1 + n] == profile.values[i - 1] + 2

    def test_rejects_vanishing_words(self):
        with pytest.raises(ValueError):
            reduction_profile(parse_word("aA", 1))
        with pytest.raises(ValueError):
            reduction_profile(parse_word("", 1))

    def test_rejects_short_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            reduction_profile(parse_word("aab", 2), horizon=5)

    def test_refuses_oversized_horizon(self):
        # k = 1 and n = 10001: the default horizon asks for about 2 * 10**8 values
        w = parse_word("a" * 5001 + "A" * 5000, 1)
        with pytest.raises(ValueError, match="exceeds the limit"):
            reduction_profile(w)
        with pytest.raises(ValueError, match="exceeds the limit"):
            reduction_profile(parse_word("a", 1), horizon=MAX_PROFILE_HORIZON + 1)

    def test_matches_prefix_oracle_exhaustive(self):
        for w in all_words():
            if w.letters and cyclic_reduce(w).letters:
                profile = reduction_profile(w)
                assert profile.values == naive_profile(w, profile.horizon)

    @settings(max_examples=60)
    @given(nonvanishing_words(max_len=16))
    def test_profile_properties(self, w):
        profile = reduction_profile(w)
        values = profile.values
        n, k = len(w), profile.k
        assert values[0] == 1
        assert all(abs(a - b) == 1 for a, b in zip(values, values[1:]))
        assert all(v >= 0 for v in values)
        for i in range(profile.period_start, profile.horizon - n + 1):
            assert values[i - 1 + n] == values[i - 1] + k
        assert profile.period_start <= periodicity_bound(n, k)

    @settings(max_examples=40)
    @given(nonvanishing_words(max_len=12))
    def test_zero_touch_means_reducible_prefix(self, w):
        profile = reduction_profile(w)
        touches = any(v == 0 for v in profile.values[: len(w)])
        has_trivial_prefix = any(
            is_reducible_to_one(Word(w.alphabet_size, w.letters[:i]))
            for i in range(1, len(w) + 1)
        )
        assert touches == has_trivial_prefix


class TestStandardDecomposition:
    def test_two_stage_strip(self):
        d = standard_decomposition(parse_word("aaAbbBAA", 2))
        assert (str(d.prefix), str(d.core), str(d.suffix)) == ("aa", "Ab", "bBAA")

    def test_already_reduced(self):
        w = parse_word("abAB", 2)
        d = standard_decomposition(w)
        assert (d.prefix.letters, d.core, d.suffix.letters) == ((), w, ())

    def test_vanishing_word(self):
        d = standard_decomposition(parse_word("aA", 1))
        assert (str(d.prefix), str(d.core), str(d.suffix)) == ("a", "", "A")

    def test_matches_rewriting_oracle_exhaustive(self):
        for w in all_words():
            d = standard_decomposition(w)
            assert d.word == w
            assert naive_linear_reduce(d.prefix.letters + d.suffix.letters) == ()
            core = d.core.letters
            for i in range(1, len(core) + 1):
                assert naive_linear_reduce(core[:i]) != ()
                assert naive_linear_reduce(core[-i:]) != ()

    @given(free_words())
    def test_invariants(self, w):
        d = standard_decomposition(w)
        assert d.word == w
        assert is_reducible_to_one(d.prefix + d.suffix)
        core = d.core.letters
        assert len(linear_reduce(d.core)) == len(cyclic_reduce(w))
        assert is_cyclically_reduced(linear_reduce(d.core))
        if core:
            assert core[0] != -core[-1]
            for i in range(1, len(core) + 1):
                assert not is_reducible_to_one(Word(w.alphabet_size, core[:i]))
                assert not is_reducible_to_one(Word(w.alphabet_size, core[-i:]))
