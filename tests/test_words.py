import numpy as np
import pytest

from altproj import linalg
from altproj.words import Word


def random_projections(rng, n, count):
    out = []
    for _ in range(count):
        d = int(rng.integers(1, n))
        out.append(linalg.projection_matrix(linalg.random_subspace(rng, n, d)))
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

    def test_letters_refuses_huge_expansion(self):
        w = Word.group(Word.from_letters(2, [1, 2]), 10**9)
        with pytest.raises(ValueError, match="too long"):
            w.letters()

    def test_letter_out_of_alphabet_rejected(self):
        with pytest.raises(ValueError, match="outside alphabet"):
            Word(2, ((3, 1),))

    def test_concatenation_order(self):
        a = Word.from_letters(2, [1])
        b = Word.from_letters(2, [2])
        assert (a * b).letters() == [1, 2]

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

    def test_substitute_replaces_letters_with_words(self):
        w = Word.from_letters(3, [3, 1, 3])
        block = Word.group(Word.from_letters(3, [2, 3, 2]), 4)
        out = w.substitute({3: block}, alphabet=3)
        assert out.length == 2 * block.length + 1
        assert out.letter_count(1) == w.letter_count(1)

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
            assert np.allclose(w.matrix(ops), naive, atol=1e-12)

    def test_apply_matches_matrix_times_vector(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            ops = random_projections(rng, n, 3)
            letters = [int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 12)))]
            w = Word.from_letters(3, letters)
            x = rng.standard_normal(n)
            assert np.allclose(w.apply(ops, x), w.matrix(ops) @ x, atol=1e-10)

    def test_nested_groups_match_flat_expansion(self):
        rng = np.random.default_rng(8)
        ops = random_projections(rng, 5, 3)
        inner = Word.from_letters(3, [2, 3, 2])
        w = Word.group(inner, 6) * Word.from_letters(3, [1, 2])
        flat = Word.from_letters(3, w.letters())
        x = rng.standard_normal(5)
        assert np.allclose(w.apply(ops, x), flat.apply(ops, x), atol=1e-10)
        assert np.allclose(w.matrix(ops), flat.matrix(ops), atol=1e-10)

    def test_exponents_use_true_matrix_powers(self):
        half = 0.5 * np.eye(2)  # not idempotent
        w = Word(1, ((1, 5),))
        assert np.allclose(w.matrix([half]), (0.5**5) * np.eye(2))
