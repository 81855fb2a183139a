"""Index schedules (j_n) driving the projection iteration.

Three kinds: a repeating periodic pattern, the capped ruler sequence
1,2,1,3,1,2,1,4,... over a finite alphabet, and a finite schedule read from
a Word.  A finite index sequence, such as a ``file:`` schedule, is the word
whose letters act in that order; the non-convergence construction supplies
its words directly.

Quasiperiodicity of an infinite schedule s over {1..J} is measured by
I(s,i) = sup over consecutive occurrences of i (counting from position 0) of
the gap between them; I(s) is the worst case over the alphabet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count, cycle

from .linalg import read_lines
from .words import Word


class ScheduleExhausted(Exception):
    """A finite schedule was asked for an index past its end."""


@dataclass(frozen=True)
class Schedule:
    """An index sequence over the alphabet {1..J}.

    ``periodic`` repeats ``pattern``, ``ruler`` emits the capped ruler
    sequence, and ``constructed`` reads ``word`` in application order and
    then is exhausted.  Use the ``periodic`` / ``ruler`` / ``from_word`` /
    ``explicit`` constructors rather than building instances by hand.
    """

    kind: str
    J: int
    pattern: tuple = ()
    word: Word | None = None

    def __post_init__(self):
        if self.kind not in ("periodic", "ruler", "constructed"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.J < 1:
            raise ValueError("alphabet size J must be >= 1")
        if self.kind == "periodic" and not self.pattern:
            raise ValueError("periodic schedule needs a non-empty pattern")
        if self.kind == "ruler" and self.J < 2:
            raise ValueError("ruler schedule needs J >= 2")
        for idx in self.pattern:
            if not 1 <= idx <= self.J:
                raise ValueError(f"index {idx} outside alphabet 1..{self.J}")
        if self.word is not None and self.word.alphabet > self.J:
            raise ValueError(f"word letters 1..{self.word.alphabet} outside alphabet 1..{self.J}")

    @classmethod
    def periodic(cls, pattern, J=None):
        pattern = tuple(int(i) for i in pattern)
        if not pattern:
            raise ValueError("periodic schedule needs a non-empty pattern")
        return cls("periodic", int(J) if J is not None else max(pattern), pattern=pattern)

    @classmethod
    def explicit(cls, sequence, J=None):
        """Finite schedule applying ``sequence`` in the order given.

        It is the word of those letters written back to front, since a
        word's last letter acts first.
        """
        sequence = [int(i) for i in sequence]
        if not sequence:
            raise ValueError("explicit schedule needs a non-empty sequence")
        J = int(J) if J is not None else max(sequence)
        return cls.from_word(Word.from_letters(J, reversed(sequence)), J)

    @classmethod
    def ruler(cls, J):
        return cls("ruler", int(J))

    @classmethod
    def from_word(cls, word, J=None):
        """Finite schedule reading a Word's letters in application order."""
        return cls("constructed", int(J) if J is not None else word.alphabet, word=word)

    def emit(self, n):
        """The index j_n for a 1-based step number ``n``."""
        if n < 1:
            raise ValueError("step numbers are 1-based")
        if self.kind == "periodic":
            return self.pattern[(n - 1) % len(self.pattern)]
        if self.kind == "constructed":
            if n > self.word.length:
                raise ScheduleExhausted(f"constructed schedule of length {self.word.length} has no step {n}")
            return self.word.letter_at(n)
        # ruler: position n carries (trailing binary zeros of n) + 1, capped at J
        return min((n & -n).bit_length(), self.J)

    def indices(self):
        """Iterator over j_1, j_2, ... in step order, ``emit(1)`` first.

        It costs O(1) per step for ``periodic`` and ``ruler`` and O(depth)
        for ``constructed``.
        A finite schedule's iterator ends where ``emit`` would raise
        ``ScheduleExhausted``; an infinite one never ends.
        """
        if self.kind == "periodic":
            return cycle(self.pattern)
        if self.kind == "constructed":
            return self.word.application_order()
        J = self.J
        return (min((n & -n).bit_length(), J) for n in count(1))


def quasiperiod_index(s, i):
    """Exact I(s,i): the largest gap between consecutive occurrences of ``i``.

    Defined for schedules with a decidable infinite extension (periodic,
    ruler).  Counting starts at position 0, so the first occurrence
    contributes its position as a gap.  Returns ``math.inf`` when ``i``
    never occurs.
    """
    if not 1 <= i <= s.J:
        raise ValueError(f"index {i} outside alphabet 1..{s.J}")
    if s.kind == "ruler":
        # value i occupies every 2^i-th position for i < J; every 2^(J-1)-th for i = J
        return float(2 ** i) if i < s.J else float(2 ** (s.J - 1))
    if s.kind != "periodic":
        raise ValueError("quasiperiodicity is a property of infinite schedules; "
                         f"not defined for kind {s.kind!r}")
    period = len(s.pattern)
    # two concatenated periods expose every gap, including the wrap-around
    occurrences = [p for p in range(1, 2 * period + 1) if s.pattern[(p - 1) % period] == i]
    if not occurrences:
        return math.inf
    gaps = [occurrences[0]] + [b - a for a, b in zip(occurrences, occurrences[1:])]
    return float(max(gaps))


def quasiperiod_bound(s):
    """I(s) = max over the alphabet of I(s,i)."""
    return max(quasiperiod_index(s, i) for i in range(1, s.J + 1))


def _letters(text, where, kind=int):
    """``kind`` of each token of ``text``, separated by commas or whitespace.

    An empty field between commas is refused, not skipped, so ``1,,2`` does
    not run as ``1,2``.  Every refusal is prefixed with ``where``.
    """
    if "," in text and not all(field.strip() for field in text.split(",")):
        raise ValueError(f"{where}: empty field between commas")
    try:
        return [kind(token) for token in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def parse_schedule(spec, J=None):
    """Parse a CLI schedule spec: ``periodic:1,2,3`` | ``ruler:J`` | ``file:PATH``,
    whose lines ``linalg.read_lines`` reads.  A refusal names the spec, or
    the ``path:line`` of a file's token."""
    kind, _, rest = spec.partition(":")
    if not rest:
        raise ValueError(f"malformed schedule spec {spec!r}")
    if kind == "file":
        lines = [(f"{rest}:{no}", _letters(line, f"{rest}:{no}"))
                 for no, line in read_lines(rest, "empty schedule file")]
        J = J if J is not None else max(max(letters) for _, letters in lines)
        for where, letters in lines:
            for letter in letters:
                if not 1 <= letter <= J:
                    raise ValueError(f"{where}: letter {letter} outside alphabet 1..{J}")
        return Schedule.explicit([letter for _, letters in lines for letter in letters], J=J)
    where = f"schedule spec {spec!r}"
    if kind == "periodic":
        pattern = _letters(rest, where)
    elif kind != "ruler":
        raise ValueError(f"{where}: unknown schedule kind {kind!r}")
    try:
        return Schedule.periodic(pattern, J=J) if kind == "periodic" else Schedule.ruler(int(rest))
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
