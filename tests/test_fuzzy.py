import random

import pytest
from hypothesis import example, given, strategies as st

from reference import (
    ref_best_fuzzy_match,
    ref_correct_name,
    ref_indel_distance,
    ref_levenshtein,
    ref_similarity,
)
from tableqa import fuzzy
from tableqa.fuzzy import (
    best_fuzzy_match,
    correct_name,
    levenshtein,
    similarity,
)

words = st.text(alphabet="abcdeíó ", max_size=10)
# Up to 200 characters, so past one 64-bit word, with non-ASCII text; the
# small alphabet makes long common subsequences likely.
long_words = st.one_of(st.text(alphabet="abñé😀 A", max_size=200),
                       st.text(max_size=200))
# Lengths on both sides of best_fuzzy_match's length bound, and "İ", which
# lowercases to two characters ("i" and a combining dot above).
DOTTED_I, DOTTED_I_LOWER = "\u0130", "i\u0307"
bound_words = st.text(alphabet="ab" + DOTTED_I + DOTTED_I_LOWER, max_size=20)


class TestSimilarity:
    def test_identity(self):
        assert similarity("enero", "enero") == 100.0

    def test_disjoint(self):
        assert similarity("abc", "xyz") == 0.0

    def test_item_items(self):
        assert abs(similarity("item", "items") - 88.9) < 0.1

    def test_empty_strings(self):
        assert similarity("", "") == 100.0

    @given(words, words)
    def test_matches_reference(self, a, b):
        assert similarity(a, b) == pytest.approx(ref_similarity(a, b))

    @given(long_words, long_words)
    def test_exactly_the_indel_formula(self, a, b):
        total = len(a) + len(b)
        expected = 100.0 if total == 0 else \
            100.0 * (1.0 - ref_indel_distance(a, b) / total)
        assert similarity(a, b) == expected

    @given(words, words)
    def test_symmetric_and_100_iff_equal(self, a, b):
        assert similarity(a, b) == similarity(b, a)
        assert (similarity(a, b) == 100.0) == (a == b)


class TestLevenshtein:
    @given(words, words)
    def test_matches_reference(self, a, b):
        assert levenshtein(a, b) == ref_levenshtein(a, b)

    @given(long_words, long_words)
    def test_matches_reference_past_one_word(self, a, b):
        assert levenshtein(a, b) == ref_levenshtein(a, b)

    @pytest.mark.parametrize("x", ["a", "ñé😀", "b" * 70])
    def test_against_empty(self, x):
        assert levenshtein("", x) == len(x)
        assert levenshtein(x, "") == len(x)
        assert levenshtein("", "") == 0

    def test_65_characters(self):
        # One substitution in the 65th character, past the first 64-bit
        # word, plus a trailing insertion.
        a = "a" * 64 + "b"
        assert levenshtein(a, "a" * 65) == 1
        assert levenshtein(a, "a" * 64 + "bc") == 1
        assert levenshtein(a, "c" + "a" * 63 + "b") == 1
        assert levenshtein(a, "b" * 65) == 64
        # Global, not substring, distance: a prefix costs its length.
        assert levenshtein(a, "xyz" + a) == 3
        assert levenshtein("xyz" + a, a) == 3


class TestBestFuzzyMatch:
    def test_table1_scenario(self):
        assert best_fuzzy_match(["Enero", "Febrero"], "enero", 90) == "Enero"

    def test_below_threshold(self):
        assert ref_similarity("otro", "enero") < 90
        assert best_fuzzy_match(["Otro"], "enero", 90) is None

    def test_exact_present(self):
        assert best_fuzzy_match(["x", "x", "y"], "x", 90) == "x"

    def test_empty_values(self):
        assert best_fuzzy_match([], "x", 0) is None

    def test_score_equal_threshold_matches(self):
        # 2*9/20 = 90 exactly
        assert similarity("aaaaaaaaaa", "aaaaaaaaab") == 90.0
        assert best_fuzzy_match(["aaaaaaaaab"], "aaaaaaaaaa", 90) == "aaaaaaaaab"
        # 2*6/16 = 75 exactly
        assert similarity("aaaaaaaa", "aaaaaabb") == 75.0
        assert best_fuzzy_match(["aaaaaabb"], "aaaaaaaa", 75) == "aaaaaabb"
        assert best_fuzzy_match(["aaaaaabb"], "aaaaaaaa", 76) is None

    def test_threshold_is_inclusive_past_one_word(self):
        # 80 + 80 characters, LCS 60: indel 40 of 160 is 75 exactly.
        target, value = "a" * 80, "a" * 60 + "b" * 20
        assert similarity(value, target) == 75.0
        assert best_fuzzy_match([value], target, 75) == value

    def test_score_just_below_threshold_misses(self):
        # LCS 1 of 5 + 5 characters: 100 * (1 - 8/10) rounds to
        # 19.999999999999996, while 200 * 1/10 would give 20.0 exactly.
        assert similarity("azzzz", "abcde") < 20.0
        assert best_fuzzy_match(["azzzz"], "abcde", 20) is None
        assert ref_best_fuzzy_match(["azzzz"], "abcde", 20) is None

    # The length bound and the score both exactly at the threshold.
    @example(["a" * 11], "a" * 9, 90)
    # An early short value ties a later same-length one at 100 * (1 - 1/3).
    @example(["abc", "abcdxx"], "abcdef", 60)
    # Lowercasing doubles the target's length, and not the value's; then
    # the value's, and not the target's.
    @example([DOTTED_I_LOWER * 4], DOTTED_I * 4, 100)
    @example([DOTTED_I * 2], DOTTED_I_LOWER * 2, 100)
    @given(st.lists(st.one_of(st.none(), words, bound_words,
                              st.floats(allow_nan=False, allow_infinity=False)),
                    max_size=8),
           st.one_of(words, bound_words), st.integers(0, 100))
    def test_matches_exhaustive_reference(self, values, target, threshold):
        assert best_fuzzy_match(values, target, threshold) == \
            ref_best_fuzzy_match(values, target, threshold)

    # The bound, the score and the threshold all on 75, then on 90.
    @example(["aaaaaabb", "bbaaaaaa"], "aaaaaaaa", 75)
    @example(["aaaaaaaaab"], "aaaaaaaaaa", 90)
    @given(st.lists(st.one_of(st.none(), st.text(alphabet="aabcd", max_size=10)), max_size=8),
           st.text(alphabet="abxyz", max_size=10), st.sampled_from([75, 90]))
    def test_matches_reference_when_target_letters_are_absent_from_values(
            self, values, target, threshold):
        assert best_fuzzy_match(values, target, threshold) == \
            ref_best_fuzzy_match(values, target, threshold)

    def test_scores_only_values_whose_length_bound_can_win(self, monkeypatch):
        scored = []

        def counting(masks, length, other):
            scored.append(other)
            return indel_similarity(masks, length, other)

        indel_similarity = fuzzy._indel_similarity
        monkeypatch.setattr(fuzzy, "_indel_similarity", counting)
        # "abcd" and "ab" cannot reach 90 against "abc"; "acb" can still tie
        # the best (its bound is 100), "a" * 50 cannot, and neither can "abd",
        # whose "d" is not in the target (its bound is 100 * (1 - 2/6)).
        values = ["abcd", "ab", "abc", "a" * 50, "acb", "abd"]
        assert best_fuzzy_match(values, "abc", 90) == "abc"
        assert scored == ["abc", "acb"]

    @given(st.lists(st.one_of(words, bound_words), max_size=8),
           st.one_of(words, bound_words), st.integers(0, 100))
    def test_never_scores_a_value_whose_length_bound_cannot_win(
            self, values, target, threshold):
        scored = []
        indel_similarity = fuzzy._indel_similarity

        def counting(masks, length, other):
            score = indel_similarity(masks, length, other)
            scored.append((other, score))
            return score

        fuzzy._indel_similarity = counting
        try:
            best_fuzzy_match(values, target, threshold)
        finally:
            fuzzy._indel_similarity = indel_similarity
        best, t = -1.0, target.lower()
        for other, score in scored:
            bound = 100.0 * (1.0 - abs(len(t) - len(other)) / (len(t) + len(other) or 1))
            assert bound >= max(threshold, best)
            lcs = min(len(t), sum(ch in t for ch in other))
            assert 100.0 * (1.0 - (len(t) + len(other) - 2 * lcs) / (len(t) + len(other) or 1)) \
                >= max(threshold, best)
            best = max(best, score)


class TestCorrectName:
    def test_exact_unchanged(self):
        assert correct_name("Edad", ["Edad", "Mes"]) == "Edad"

    def test_accent_correction(self):
        assert correct_name("Mes de realizacion",
                            ["Mes de realización", "Edad"]) == "Mes de realización"

    def test_empty_candidates(self):
        with pytest.raises(ValueError):
            correct_name("x", [])

    def test_tie_broken_by_candidate_order(self):
        assert correct_name("ab", ["ax", "bx"]) == "ax"

    def test_tie_after_a_longer_candidate(self):
        # "abcd" is as far from "abc" as "abx" is, and comes first.
        assert correct_name("abc", ["abcd", "abx", "ab"]) == "abcd"

    def test_closer_candidate_of_different_length(self):
        assert correct_name("abc", ["xyz", "abcde", "abcd"]) == "abcd"
        assert correct_name("colunm", ["col", "column_b", "column"]) == "column"

    def test_tie_at_distance_two_keeps_the_first(self):
        assert correct_name("abcd", ["xycd", "abxy", "axcy"]) == "xycd"

    def test_scores_only_candidates_that_can_win(self, monkeypatch):
        scored = []

        def counting(masks, length, other):
            scored.append(other)
            return edit_distance(masks, length, other)

        edit_distance = fuzzy._edit_distance
        monkeypatch.setattr(fuzzy, "_edit_distance", counting)
        # Length differences of 2 and 3 cannot beat distance 2.
        assert correct_name("abcd", ["abxy", "ab", "abcdef", "a", "xbcd"]) == "xbcd"
        assert scored == ["abxy", "xbcd"]
        # Nothing after a candidate at distance 1 can win.
        scored.clear()
        assert correct_name("abcd", ["xbcd", "abce", "abc"]) == "xbcd"
        assert scored == ["xbcd"]

    @given(words, st.lists(st.one_of(st.just(""), words), min_size=1, max_size=8)
           .flatmap(lambda cs: st.permutations(cs + cs[:2])))
    def test_matches_exhaustive_reference(self, name, candidates):
        assert correct_name(name, candidates) == ref_correct_name(name, candidates)

    @given(st.text(alphabet="ab", max_size=5),
           st.lists(st.text(alphabet="ab", max_size=5), min_size=1, max_size=10))
    def test_matches_reference_with_many_ties(self, name, candidates):
        assert correct_name(name, candidates) == ref_correct_name(name, candidates)

    @given(long_words, st.lists(long_words, min_size=1, max_size=4))
    def test_matches_reference_past_one_word(self, name, candidates):
        assert correct_name(name, candidates) == ref_correct_name(name, candidates)

    @given(words, st.lists(words, min_size=1, max_size=6))
    def test_result_in_candidates(self, name, candidates):
        result = correct_name(name, candidates)
        assert result in candidates
        if name in candidates:
            assert result == name


def test_acceptance_scale_random_pairs():
    rng = random.Random(7)
    alphabet = "abcdeíó"
    for _ in range(1000):
        values = [
            "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
            for _ in range(rng.randint(0, 6))
        ]
        target = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
        threshold = rng.randint(0, 100)
        assert best_fuzzy_match(values, target, threshold) == \
            ref_best_fuzzy_match(values, target, threshold)
