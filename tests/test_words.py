import time
from itertools import islice

import numpy as np
import pytest
from conftest import word_matrix

from altproj import linalg
from altproj.schedules import Schedule
from altproj.words import Word


def line_projection(*coords):
    return linalg.projection_matrix(linalg.orthonormalize([np.array(coords, dtype=float)]))


def random_projections(rng, n, count):
    out = []
    for _ in range(count):
        d = int(rng.integers(1, n))
        out.append(linalg.projection_matrix(linalg.random_subspace(rng, n, d)))
    return out


def shared_tower(depth):
    """w_0 = a1 a2 and w_{k+1} = w_k^3 a1 w_k^2, every level referencing one w_k."""
    w = Word.from_letters(2, [1, 2])
    for _ in range(depth):
        w = Word(2, ((w, 3), (1, 1), (w, 2)))
    return w


def tower_lengths(depth):
    lengths = [2]
    for _ in range(depth):
        lengths.append(5 * lengths[-1] + 1)
    return lengths


def tower_counts(depth):
    """(letter-1 count, letter-2 count) of ``shared_tower(depth)``, by arithmetic."""
    ones, twos = 1, 1
    for _ in range(depth):
        ones, twos = 5 * ones + 1, 5 * twos
    return ones, twos


def tower_letter(lengths, p):
    """Letter at application position p of the top of ``shared_tower``, by arithmetic."""
    for below in reversed(lengths[:-1]):
        # applied first: w_k twice, then a1, then w_k three times
        if p == 2 * below + 1:
            return 1
        p = (p - 1 - (p > 2 * below)) % below + 1
    return (2, 1)[p - 1]


def flat_letters(w):
    """Written-order expansion by plain recursion over the factors."""
    out = []
    for item, exp in w.factors:
        out.extend((flat_letters(item) if isinstance(item, Word) else [item]) * exp)
    return out


class TestStructure:
    def test_from_letters_compresses_runs(self):
        w = Word.from_letters(3, [1, 1, 2, 3, 3, 3])
        assert w.factors == ((1, 2), (2, 1), (3, 3))
        assert w.length == 6
        assert w.letter_count(3) == 3

    def test_group_length_arithmetic(self):
        inner = Word.from_letters(3, [2, 3, 2])
        w = Word.group(inner, 10**12)
        assert w.length == 3 * 10**12
        assert w.letter_count(2) == 2 * 10**12
        assert w.letter_count(1) == 0

    def test_letter_out_of_alphabet_rejected(self):
        with pytest.raises(ValueError, match="outside alphabet"):
            Word(2, ((3, 1),))

    def test_concatenation_order(self):
        a = Word.from_letters(2, [1])
        b = Word.from_letters(2, [2])
        assert flat_letters(a * b) == [1, 2]

    def test_letter_at_counts_from_the_applied_end(self):
        # written a1 a2 a2 a3: a3 acts first
        w = Word.from_letters(3, [1, 2, 2, 3])
        assert [w.letter_at(p) for p in range(1, 5)] == [3, 2, 2, 1]

    def test_letter_at_inside_groups(self):
        w = Word.group(Word.from_letters(3, [2, 3, 2]), 5) * Word.from_letters(3, [1])
        # applied order: 1 first, then (2,3,2) applied 5 times (each: 2 then 3 then 2)
        assert w.letter_at(1) == 1
        assert [w.letter_at(p) for p in (2, 3, 4)] == [2, 3, 2]
        assert w.letter_at(w.length) == 2

    def test_letter_at_skips_empty_sub_words(self):
        w = Word(2, ((2, 1), (Word.empty(2), 4), (1, 2)))
        assert w.length == 3
        assert [w.letter_at(p) for p in (1, 2, 3)] == [1, 1, 2]

    def test_shared_sub_words_match_flat_expansion(self):
        w = shared_tower(6)
        flat = flat_letters(w)
        assert w.length == len(flat) == tower_lengths(6)[-1]
        assert [w.letter_at(p) for p in range(1, w.length + 1)] == flat[::-1]

    def test_deep_shared_sub_words_answer(self):
        # 30 levels each referencing the level below five times: length about
        # 2 * 5^30, so only the cached sub-word lengths make these queries cheap
        w = shared_tower(30)
        lengths = tower_lengths(30)
        assert w.length == lengths[-1]
        for p in (1, 2, lengths[-2], 2 * lengths[-2] + 1, w.length // 3, w.length - 1, w.length):
            assert w.letter_at(p) == tower_letter(lengths, p)

    def test_deep_shared_sub_words_count_and_hash_at_once(self):
        # each level references the one below five times: a walk over every
        # reference would take 5^30 steps
        w = shared_tower(30)
        started = time.perf_counter()
        counts = w.letter_count(1), w.letter_count(2), w.letter_count(3)
        digest = hash(w)
        assert time.perf_counter() - started < 0.01
        assert counts == (*tower_counts(30), 0)
        assert sum(counts) == w.length
        assert digest == hash(shared_tower(30))
        assert hash(Schedule.from_word(w)) == hash(Schedule.from_word(shared_tower(30)))

    def test_letter_counts_match_flat_expansion(self):
        w = shared_tower(4) * Word.group(Word.from_letters(3, [3, 1, 3]), 7)
        flat = flat_letters(w)
        for letter in (1, 2, 3, 4):
            assert w.letter_count(letter) == flat.count(letter)
        assert w.letter_count(np.int64(3)) == 14

    def test_application_order_is_letter_at_in_turn(self):
        for w in (shared_tower(5), Word(2, ((2, 1), (Word.empty(2), 4), (1, 2))),
                  Word.group(Word.from_letters(3, [2, 3, 2]), 5) * Word.from_letters(3, [1]),
                  Word.empty(3)):
            assert list(w.application_order()) == [w.letter_at(p) for p in range(1, w.length + 1)]

    def test_application_order_walks_deep_towers_lazily(self):
        w, lengths = shared_tower(30), tower_lengths(30)
        started = time.perf_counter()
        head = list(islice(w.application_order(), 10_000))
        assert time.perf_counter() - started < 1.0
        assert head == [tower_letter(lengths, p) for p in range(1, 10_001)]

    def test_application_order_steps_through_huge_exponents(self):
        w = Word(2, ((Word.from_letters(2, [1, 2]), 10**100), (1, 10**100)))
        assert list(islice(w.application_order(), 5)) == [1, 1, 1, 1, 1]

    def test_substitute_replaces_letters_with_words(self):
        w = Word.from_letters(3, [3, 1, 3])
        block = Word.group(Word.from_letters(3, [2, 3, 2]), 4)
        out = w.substitute({3: block}, alphabet=3)
        assert out.length == 2 * block.length + 1
        assert out.letter_count(1) == w.letter_count(1)

    def test_substitute_keeps_shared_sub_words_shared(self):
        w = shared_tower(3)
        out = w.substitute({1: 2, 2: 1}, 2)
        assert flat_letters(out) == [3 - letter for letter in flat_letters(w)]
        level = out
        for _ in range(3):
            (first, _), _, (second, _) = level.factors
            assert first is second
            level = first
        assert level.factors == ((2, 1), (1, 1))

    def test_substitute_visits_each_shared_node_once(self):
        # a walk over every reference would rebuild 5^30 nodes
        w = shared_tower(30)
        started = time.perf_counter()
        out = w.substitute({1: 2, 2: 1}, 2)
        assert time.perf_counter() - started < 0.1
        assert (out.letter_count(1), out.letter_count(2)) == tower_counts(30)[::-1]
        assert out.length == w.length

    def test_repr_gives_huge_exponents_by_digit_count(self):
        w = Word(2, ((1, 10**5000), (2, 10**599)))
        assert repr(w) == f"Word(alphabet=2, factors=((1, <5001-digit int>), (2, {10**599})))"
        assert repr(Word.group(w, 3)) == f"Word(alphabet=2, factors=(({w!r}, 3),))"

    def test_repr_of_small_words_matches_the_fields(self):
        w = Word.from_letters(3, [1, 1, 2])
        assert repr(w) == "Word(alphabet=3, factors=((1, 2), (2, 1)))"
        assert repr(Word.empty(2)) == "Word(alphabet=2, factors=())"


class TestEvaluation:
    def test_matrix_matches_naive_product(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            ops = random_projections(rng, n, 3)
            letters = [int(rng.integers(1, 4)) for _ in range(int(rng.integers(0, 9)))]
            w = Word.from_letters(3, letters)
            naive = np.eye(n)
            for letter in letters:
                naive = naive @ ops[letter - 1]
            assert np.allclose(word_matrix(w, ops), naive, atol=1e-12)

    def test_nested_groups_match_flat_expansion(self):
        rng = np.random.default_rng(8)
        ops = random_projections(rng, 5, 3)
        inner = Word.from_letters(3, [2, 3, 2])
        w = Word.group(inner, 6) * Word.from_letters(3, [1, 2])
        flat = Word.from_letters(3, flat_letters(w))
        assert np.allclose(word_matrix(w, ops), word_matrix(flat, ops), atol=1e-10)

    def test_exponents_use_true_matrix_powers(self):
        half = 0.5 * np.eye(2)  # not idempotent
        w = Word(1, ((1, 5),))
        assert np.allclose(word_matrix(w, [half]), (0.5**5) * np.eye(2))


class TestWordMatrix:
    def test_two_letter_word_on_two_lines(self):
        p1, p2 = line_projection(1.0, 1.0), line_projection(1.0, 0.0)
        w = Word.from_letters(2, [2, 1])  # written a2 a1: a1 acts first
        assert np.allclose(word_matrix(w, [p1, p2]) @ np.array([1.0, 0.0]), [0.5, 0.0])

    def test_empty_word_is_identity(self):
        assert np.allclose(word_matrix(Word.empty(1), [line_projection(1.0, 1.0)]), np.eye(2))

    def test_repeated_projection_letter_is_idempotent(self):
        p1 = line_projection(1.0, 1.0)
        assert np.allclose(word_matrix(Word.from_letters(1, [1, 1]), [p1]), p1, atol=1e-12)
