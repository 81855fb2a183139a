"""Free-semigroup words over projection letters.

A word is a finite product of letters from an alphabet {1..m}; applied to
operators A_1..A_m it denotes the corresponding operator product, with the
convention that the *last* letter listed acts first on a vector (so the word
written ``a2 a1`` sends x to A2(A1 x)).

The non-convergence construction produces words whose flat letter expansion
is astronomically long (letter-run exponents beyond 10^10), so words are
stored as nested (factor, exponent) pairs where a factor is either a letter
or a sub-word.  Lengths and letter counts are computed arithmetically from
the tree and cached per node.  ``application_order`` reads the letters by
walking the tree, at O(depth) per letter; no flat letter expansion is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    ``_length`` is the number of letters, ``_counts`` maps each letter to
    its number of occurrences, and ``_hash`` is the hash.  All three are
    built from the sub-words' cached values, so a tower of shared sub-words
    costs one pass per distinct node.
    """

    alphabet: int
    factors: tuple
    _length: int = field(init=False, repr=False, compare=False)
    _counts: dict = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

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
        length = 0
        counts = {}
        for item, exp in self.factors:
            if isinstance(item, Word):
                length += exp * item._length
                for letter, count in item._counts.items():
                    counts[letter] = counts.get(letter, 0) + exp * count
            else:
                length += exp
                counts[int(item)] = counts.get(int(item), 0) + exp
        object.__setattr__(self, "_length", length)
        object.__setattr__(self, "_counts", counts)
        object.__setattr__(self, "_hash", hash((self.alphabet, self.factors)))

    def __hash__(self):
        return self._hash

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
        return self._length

    def letter_count(self, letter):
        """Number of occurrences |w_letter| of ``letter``."""
        return self._counts.get(letter, 0)

    def letter_at(self, position):
        """Letter at 1-based ``position`` counted from the end of the word.

        Position 1 is the letter that acts first on a vector.  Each tree
        level walks its factors from the applied end, subtracting block
        sizes, so a query costs O(depth * factors).  It is the random-access
        reference for ``application_order``.
        """
        if not 1 <= position <= self._length:
            raise IndexError(f"position {position} outside word of length {self._length}")
        w, pos = self, position
        while True:
            for item, exp in reversed(w.factors):
                size = exp * item._length if isinstance(item, Word) else exp
                if pos <= size:
                    break
                pos -= size
            if not isinstance(item, Word):
                return item
            pos = (pos - 1) % item._length + 1
            w = item

    def application_order(self):
        """Yield the letters in the order they act on a vector, lazily.

        The walk keeps one frame per tree level, so each letter costs
        O(depth) and exponents of any size are stepped through, never
        expanded.  ``letter_at(p)`` is the p-th letter yielded.
        """
        # frame: [factors, repeats left, factors still to walk in this repeat]
        stack = [[self.factors, 1, len(self.factors)]]
        while stack:
            frame = stack[-1]
            factors, repeats, i = frame
            if i == 0:
                if repeats > 1:
                    frame[1], frame[2] = repeats - 1, len(factors)
                else:
                    stack.pop()
                continue
            frame[2] = i - 1
            item, exp = factors[i - 1]
            if not isinstance(item, Word):
                for _ in range(exp):
                    yield item
            elif item.length:
                stack.append([item.factors, exp, len(item.factors)])

    # -- substitution ------------------------------------------------------

    def substitute(self, mapping, alphabet):
        """Replace letters via ``mapping`` (letter -> letter or Word).

        Unmapped letters are kept.  ``alphabet`` is the size of the target
        alphabet.  Each node is rebuilt once per call, so a sub-word that
        is referenced several times stays one shared node.
        """
        memo = {}

        def rebuild(word):
            out = memo.get(id(word))
            if out is None:
                factors = tuple((rebuild(item) if isinstance(item, Word) else mapping.get(item, item), exp)
                                for item, exp in word.factors)
                out = memo[id(word)] = Word(alphabet, factors)
            return out

        return rebuild(self)
