import gc
import random
import weakref
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freecycle import (
    DotDiagram,
    HalfPairing,
    Word,
    admissible_half_pairing,
    cover_relation,
    cyclic_reduce,
    enumerate_half_pairings,
    from_dots,
    good_rotations,
    half_pairing_from_json,
    half_pairing_to_json,
    is_half_pairing,
    is_word_admissible,
    is_word_pairing,
    orientations,
    parse_word,
    render_half_pairing,
    rotate,
    standard_cyclic_reduction,
    to_dots,
    word_to_text,
)

from oracles import (
    brute_force_half_pairings,
    naive_cover_relation,
    naive_is_word_pairing,
    scan_half_pairing,
)
from strategies import nonvanishing_words

NESTED_PAIRING = HalfPairing(6, frozenset({(1, 6), (2, 5)}), frozenset({3, 4}))

# the three pairings of u u u u^-1 u^-1: through string at position 1, 2 or 3
UUU_PAIRINGS = [
    HalfPairing(5, frozenset({(2, 5), (3, 4)}), frozenset({1})),
    HalfPairing(5, frozenset({(1, 5), (3, 4)}), frozenset({2})),
    HalfPairing(5, frozenset({(1, 5), (2, 4)}), frozenset({3})),
]


class TestHalfPairingValidity:
    def test_known_valid(self):
        assert is_half_pairing(6, [(1, 6), (2, 5), (3,), (4,)])

    def test_merged_singletons_must_not_cross(self):
        assert not is_half_pairing(4, [(1, 3), (2,), (4,)])

    def test_needs_a_singleton(self):
        assert not is_half_pairing(2, [(1, 2)])
        with pytest.raises(ValueError):
            HalfPairing(2, frozenset({(1, 2)}), frozenset())

    def test_big_blocks_rejected(self):
        assert not is_half_pairing(3, [(1, 2, 3)])

    def test_non_partition_raises(self):
        with pytest.raises(ValueError):
            is_half_pairing(3, [(1, 2)])
        with pytest.raises(ValueError):
            is_half_pairing(3, [(1, 2), (2, 3)])
        with pytest.raises(ValueError):
            HalfPairing(3, frozenset({(1, 2)}), frozenset({2, 3}))

    def test_crossing_pairs_rejected(self):
        with pytest.raises(ValueError, match="cross"):
            HalfPairing(5, frozenset({(1, 3), (2, 4)}), frozenset({5}))

    def test_matches_brute_force_filter(self):
        from oracles import pair_singleton_partitions

        for n in range(1, 9):
            expected = {
                (p.pairs, p.singletons) for p in brute_force_half_pairings(n)
            }
            for blocks in pair_singleton_partitions(n):
                pairs = frozenset(b for b in blocks if len(b) == 2)
                singles = frozenset(b[0] for b in blocks if len(b) == 1)
                assert is_half_pairing(n, blocks) == ((pairs, singles) in expected)


class TestOrientations:
    def test_golden(self):
        p = HalfPairing(5, frozenset({(2, 5), (3, 4)}), frozenset({1}))
        assert orientations(p) == {1: "out", 2: "out", 3: "out", 4: "in", 5: "in"}

    def test_all_singletons(self):
        p = HalfPairing(3, frozenset(), frozenset({1, 2, 3}))
        assert set(orientations(p).values()) == {"out"}

    def test_one_out_per_pair(self):
        for n, k in [(4, 2), (6, 2), (7, 3), (8, 2)]:
            for p in enumerate_half_pairings(n, k):
                orient = orientations(p)
                for a, b in p.pairs:
                    assert {orient[a], orient[b]} == {"out", "in"}
                assert all(orient[s] == "out" for s in p.singletons)


class TestCoverRelation:
    def test_adjacent_singletons(self):
        p = HalfPairing(2, frozenset(), frozenset({1, 2}))
        assert cover_relation(p) == {(1, 2), (2, 1)}

    def test_golden(self):
        p = HalfPairing(5, frozenset({(2, 5), (3, 4)}), frozenset({1}))
        assert cover_relation(p) == {(1, 2), (2, 3)}

    def test_matches_interval_oracle(self):
        for n in range(2, 11):
            for k in range(2 - (n % 2), n + 1, 2):
                if k < 1:
                    continue
                for p in enumerate_half_pairings(n, k):
                    assert set(cover_relation(p)) == naive_cover_relation(p)

    def test_long_cancelling_word(self):
        # a^m A^(m+1): the out points m+1..2m+1 each cover the next one, and no other
        m = 2000
        p = admissible_half_pairing(parse_word("a" * m + "A" * (m + 1), 1))
        assert cover_relation(p) == {(i, i + 1) for i in range(m + 1, 2 * m + 1)}

    def test_no_singleton_strictly_inside(self):
        for p in enumerate_half_pairings(7, 3):
            for i, j in cover_relation(p):
                gap = (j - i - 1) % p.n
                inside = {(i + d - 1) % p.n + 1 for d in range(1, gap + 1)}
                assert not inside & p.singletons

    def test_pairing_collected_after_use(self):
        # a pairing that no other test builds, so no cache holds an equal one
        p = admissible_half_pairing(parse_word("abcCBAcab" * 3, 3))
        for use in (to_dots, orientations, cover_relation):
            use(p)
        ref = weakref.ref(p)
        del p
        gc.collect()
        assert ref() is None


class TestWordPairing:
    def test_three_pairings_of_uuu(self):
        w = parse_word("aaaAA", 1)
        found = [p for p in enumerate_half_pairings(5, 1) if is_word_pairing(w, p)]
        assert len(found) == 3
        assert {(p.pairs, p.singletons) for p in found} == {
            (p.pairs, p.singletons) for p in UUU_PAIRINGS
        }

    def test_nested_pairing_is_word_pairing(self):
        w = parse_word("AbBABa", 2)
        assert is_word_pairing(w, NESTED_PAIRING)
        # singletons read u2^-1 u1^-1, a rotation of the canonical reduction
        assert word_to_text(cyclic_reduce(w)) == "AB"

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            is_word_pairing(parse_word("ab", 2), NESTED_PAIRING)

    def test_inverse_pairs_required(self):
        w = parse_word("aa", 1)
        p = HalfPairing(2, frozenset(), frozenset({1, 2}))
        assert is_word_pairing(w, p)
        w2 = parse_word("aA", 1)
        assert not is_word_pairing(w2, p)  # singleton word aA not cyclically reduced

    def test_matches_rotation_oracle_exhaustive(self):
        # Every word with n <= 6, N <= 2 against every half-pairing on n points.
        for n in range(1, 7):
            pairings = brute_force_half_pairings(n)
            for n_gens in (1, 2):
                alphabet = [s * g for g in range(1, n_gens + 1) for s in (1, -1)]
                for letters in product(alphabet, repeat=n):
                    w = Word(n_gens, letters)
                    for p in pairings:
                        assert is_word_pairing(w, p) == naive_is_word_pairing(w, p)


class TestAdmissibility:
    def test_nested_pairing_admissible(self):
        assert is_word_admissible(parse_word("AbBABa", 2), NESTED_PAIRING)

    def test_uuu_only_first_admissible(self):
        w = parse_word("aaaAA", 1)
        verdicts = [is_word_admissible(w, p) for p in UUU_PAIRINGS]
        assert verdicts == [True, False, False]

    def test_non_pairing_not_admissible(self):
        p = HalfPairing(2, frozenset(), frozenset({1, 2}))
        assert not is_word_admissible(parse_word("aA", 1), p)


class TestAdmissibleConstruction:
    def test_goldens(self):
        p = admissible_half_pairing(parse_word("aaaAA", 1))
        assert (p.pairs, p.singletons) == (frozenset({(2, 5), (3, 4)}), frozenset({1}))
        q = admissible_half_pairing(parse_word("AbBABa", 2))
        assert (q.pairs, q.singletons) == (frozenset({(1, 6), (2, 5)}), frozenset({3, 4}))

    def test_vanishing_word_rejected(self):
        with pytest.raises(ValueError):
            admissible_half_pairing(parse_word("aA", 1))

    def test_any_good_rotation_gives_same_result(self):
        w = parse_word("aaAbbBAA", 2)
        results = {admissible_half_pairing(w, r) for r in good_rotations(w)}
        assert len(results) == 1

    def test_bad_rotation_rejected(self):
        w = parse_word("aaAbbBAA", 2)
        with pytest.raises(ValueError, match="good reduction"):
            admissible_half_pairing(w, 0)

    def test_uniqueness_exhaustive_small(self):
        alphabet = [1, -1, 2, -2]
        cache = {}
        for n in range(1, 7):
            for letters in product(alphabet, repeat=n):
                w = Word(2, letters)
                k = len(cyclic_reduce(w))
                if k == 0:
                    continue
                if (n, k) not in cache:
                    cache[n, k] = enumerate_half_pairings(n, k)
                admissible = [p for p in cache[n, k] if is_word_admissible(w, p)]
                assert len(admissible) == 1
                assert admissible[0] == admissible_half_pairing(w)

    @settings(max_examples=60)
    @given(nonvanishing_words(max_len=16), st.integers(0, 15))
    def test_rotation_equivariance(self, w, r):
        n = len(w)
        r %= n
        p = admissible_half_pairing(w)
        q = admissible_half_pairing(rotate(w, r))
        shift = lambda i: (i - r - 1) % n + 1
        assert q.singletons == frozenset(shift(s) for s in p.singletons)
        assert q.pairs == frozenset(
            (min(shift(a), shift(b)), max(shift(a), shift(b))) for a, b in p.pairs
        )

    @settings(max_examples=60)
    @given(nonvanishing_words(max_len=16))
    def test_good_rotations_start_at_through_strings(self, w):
        p = admissible_half_pairing(w)
        assert frozenset(r + 1 for r in good_rotations(w)) == p.singletons

    def test_scan_oracle_agreement_battery(self):
        rng = random.Random(0x5CA)
        checked = 0
        while checked < 1000:
            n_gens = rng.randint(1, 3)
            n = rng.randint(1, 20)
            w = Word(
                n_gens,
                tuple(rng.randint(1, n_gens) * rng.choice((1, -1)) for _ in range(n)),
            )
            if len(cyclic_reduce(w)) == 0:
                continue
            assert admissible_half_pairing(w) == scan_half_pairing(w)
            checked += 1


class TestStandardCyclicReduction:
    def test_goldens(self):
        assert word_to_text(standard_cyclic_reduction(parse_word("AbBABa", 2))) == "BA"
        assert word_to_text(standard_cyclic_reduction(parse_word("aaaAA", 1))) == "a"
        assert standard_cyclic_reduction(parse_word("aA", 1)).letters == ()

    @settings(max_examples=60)
    @given(nonvanishing_words(max_len=16))
    def test_is_rotation_of_canonical_reduction(self, w):
        shat = standard_cyclic_reduction(w).letters
        c = cyclic_reduce(w).letters
        assert len(shat) == len(c)
        assert shat in [c[i:] + c[:i] for i in range(len(c))]

    @settings(max_examples=60)
    @given(nonvanishing_words(max_len=16))
    def test_reads_oracle_through_strings(self, w):
        singles = sorted(scan_half_pairing(w).singletons)
        assert standard_cyclic_reduction(w).letters == tuple(w.letters[i - 1] for i in singles)


class TestDotDiagrams:
    def test_golden(self):
        p = HalfPairing(5, frozenset({(2, 5), (3, 4)}), frozenset({1}))
        assert to_dots(p).colors == "WBBWW"
        assert from_dots(DotDiagram("WBBWW")) == p

    def test_all_white(self):
        p = from_dots(DotDiagram("WWWW"))
        assert p.pairs == frozenset() and p.singletons == frozenset({1, 2, 3, 4})

    def test_too_many_blacks(self):
        with pytest.raises(ValueError):
            from_dots(DotDiagram("BWBW"))
        with pytest.raises(ValueError):
            from_dots(DotDiagram("BBW"))

    def test_bad_colors(self):
        with pytest.raises(ValueError):
            DotDiagram("WXB")
        with pytest.raises(ValueError):
            DotDiagram("")

    def test_round_trip_exhaustive(self):
        for n in range(1, 11):
            for k in range(2 - (n % 2), n + 1, 2):
                if k < 1:
                    continue
                for p in enumerate_half_pairings(n, k):
                    assert from_dots(to_dots(p)) == p
        m = 2000
        p = admissible_half_pairing(parse_word("a" * m + "A" * (m + 1), 1))
        assert from_dots(to_dots(p)) == p

    def test_wrap_around_matching(self):
        p = from_dots(DotDiagram("WWWB"))
        assert p.pairs == frozenset({(1, 4)})
        assert p.singletons == frozenset({2, 3})


class TestEnumeration:
    @pytest.mark.parametrize("n,k,count", [(2, 2, 1), (4, 2, 4), (6, 2, 15)])
    def test_counts(self, n, k, count):
        assert len(enumerate_half_pairings(n, k)) == count

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            enumerate_half_pairings(4, 0)
        with pytest.raises(ValueError):
            enumerate_half_pairings(4, 3)
        with pytest.raises(ValueError):
            enumerate_half_pairings(4, 5)

    def test_matches_brute_force(self):
        for n in range(1, 9):
            brute = brute_force_half_pairings(n)
            by_k: dict[int, set] = {}
            for p in brute:
                by_k.setdefault(p.through_count, set()).add((p.pairs, p.singletons))
            for k, expected in by_k.items():
                generated = {
                    (p.pairs, p.singletons) for p in enumerate_half_pairings(n, k)
                }
                assert generated == expected


class TestSerialization:
    def test_render(self):
        assert render_half_pairing(NESTED_PAIRING) == "1-6\n2-5\n|3\n|4"

    def test_json_round_trip(self):
        data = half_pairing_to_json(NESTED_PAIRING)
        assert data["n"] == 6
        assert data["pairs"] == [[1, 6], [2, 5]]
        assert data["singletons"] == [3, 4]
        assert data["orientations"]["3"] == "out"
        assert half_pairing_from_json(data) == NESTED_PAIRING
