"""Free-semigroup words over projection letters.

A word is a finite product of letters from an alphabet {1..m}; applied to
operators A_1..A_m it denotes the corresponding operator product, with the
convention that the *last* letter listed acts first on a vector (so the word
written ``a2 a1`` sends x to A2(A1 x)).

The non-convergence construction produces words whose flat letter expansion
is astronomically long (letter-run exponents beyond 10^10), so words are
stored as nested (factor, exponent) pairs where a factor is either a letter
or a sub-word.  Lengths and letter counts are computed arithmetically from
the tree; flat expansions are only materialized on demand for small words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _exponent_repr(exp):
    if exp < 10**600:
        return repr(exp)
    digits = int((exp.bit_length() - 1) * math.log10(2)) + 1  # exact or one short
    return f"<{digits + (exp >= 10**digits)}-digit int>"


@dataclass(frozen=True)
class Word:
    """A product of letters over the alphabet {1..alphabet}.

    ``factors`` lists (item, exponent) pairs in written order (leftmost
    first); an item is a letter (int) or a nested Word.  Exponents are >= 1.
    """

    alphabet: int
    factors: tuple

    def __post_init__(self):
        if self.alphabet < 1:
            raise ValueError("alphabet size must be >= 1")
        for item, exp in self.factors:
            if not (isinstance(exp, int) and exp >= 1):
                raise ValueError(f"exponent must be a positive integer, got {exp!r}")
            if isinstance(item, Word):
                if item.alphabet > self.alphabet:
                    raise ValueError("sub-word uses letters outside the alphabet")
            elif isinstance(item, (int, np.integer)):
                if not 1 <= item <= self.alphabet:
                    raise ValueError(f"letter {item} outside alphabet 1..{self.alphabet}")
            else:
                raise ValueError(f"factor must be a letter or Word, got {type(item)}")
        object.__setattr__(self, "factors", tuple((item, int(exp)) for item, exp in self.factors))

    def __repr__(self):
        # int-to-str is capped (4300 digits by default): huge exponents show a digit count
        parts = [f"({item!r}, {_exponent_repr(exp)})" for item, exp in self.factors]
        factors = f"({', '.join(parts)}{',' if len(parts) == 1 else ''})"
        return f"Word(alphabet={self.alphabet}, factors={factors})"

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls, alphabet):
        return cls(alphabet, ())

    @classmethod
    def from_letters(cls, alphabet, letters):
        """Word from an explicit letter sequence, run-length compressed."""
        factors = []
        for letter in letters:
            letter = int(letter)
            if factors and factors[-1][0] == letter:
                factors[-1] = (letter, factors[-1][1] + 1)
            else:
                factors.append((letter, 1))
        return cls(alphabet, tuple(factors))

    @classmethod
    def group(cls, word, exponent):
        """The word ``word`` repeated ``exponent`` times."""
        if exponent == 0:
            return cls.empty(word.alphabet)
        return cls(word.alphabet, ((word, int(exponent)),))

    def __mul__(self, other):
        """Concatenation: ``(self * other)`` acts as other first, then self."""
        if not isinstance(other, Word):
            return NotImplemented
        alphabet = max(self.alphabet, other.alphabet)
        return Word(alphabet, tuple(self.factors) + tuple(other.factors))

    # -- arithmetic on the tree -------------------------------------------

    @property
    def length(self):
        """Total number of letters |w| (a Python int, may be huge)."""
        total = 0
        for item, exp in self.factors:
            total += exp * (item.length if isinstance(item, Word) else 1)
        return total

    def letter_count(self, letter):
        """Number of occurrences |w_letter| of ``letter``."""
        total = 0
        for item, exp in self.factors:
            if isinstance(item, Word):
                total += exp * item.letter_count(letter)
            elif item == letter:
                total += exp
        return total

    def letter_at(self, position):
        """Letter at 1-based ``position`` counted from the end of the word.

        Position 1 is the letter that acts first on a vector.  O(tree depth)
        per query, so huge words can still drive a schedule lazily.
        """
        if not 1 <= position <= self.length:
            raise IndexError(f"position {position} outside word of length {self.length}")
        w, pos = self, position
        while True:
            for item, exp in reversed(w.factors):
                unit = item.length if isinstance(item, Word) else 1
                block = unit * exp
                if pos > block:
                    pos -= block
                    continue
                if not isinstance(item, Word):
                    return item
                pos = (pos - 1) % unit + 1
                w = item
                break

    def letters(self, limit=10**6):
        """Flat letter sequence in written order; refuses absurd expansions."""
        if self.length > limit:
            raise ValueError(f"word of length {self.length} is too long to materialize")
        out = []
        for item, exp in self.factors:
            unit = item.letters(limit) if isinstance(item, Word) else [item]
            out.extend(unit * exp)
        return out

    # -- substitution and evaluation ---------------------------------------

    def substitute(self, mapping, alphabet):
        """Replace letters via ``mapping`` (letter -> letter or Word).

        Unmapped letters are kept.  ``alphabet`` is the size of the target
        alphabet.
        """
        factors = []
        for item, exp in self.factors:
            if isinstance(item, Word):
                factors.append((item.substitute(mapping, alphabet), exp))
            else:
                repl = mapping.get(item, item)
                factors.append((repl, exp))
        return Word(alphabet, tuple(factors))

    def matrix(self, operators):
        """Dense matrix of the operator product (binary powering per factor)."""
        ops = [np.asarray(a, dtype=float) for a in operators]
        n = ops[0].shape[0]
        out = np.eye(n)
        for item, exp in self.factors:
            base = item.matrix(ops) if isinstance(item, Word) else ops[item - 1]
            out = out @ np.linalg.matrix_power(base, exp)
        return out

    def apply(self, operators, x):
        """Apply the word to a vector: the last letter acts first."""
        ops = [np.asarray(a, dtype=float) for a in operators]
        y = np.asarray(x, dtype=float).copy()
        for item, exp in reversed(self.factors):
            if isinstance(item, Word) and exp == 1:
                y = item.apply(ops, y)
            else:
                base = item.matrix(ops) if isinstance(item, Word) else ops[item - 1]
                y = np.linalg.matrix_power(base, exp) @ y
        return y
