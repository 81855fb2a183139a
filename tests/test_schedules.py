import math
from itertools import islice

import pytest
from test_words import shared_tower

from altproj.schedules import (
    Schedule,
    ScheduleExhausted,
    parse_schedule,
    quasiperiod_bound,
    quasiperiod_index,
)
from altproj.words import Word


def gaps_oracle(values, i):
    """Largest gap between consecutive occurrences of i, counting from 0."""
    last = 0
    best = 0
    for pos, v in enumerate(values, start=1):
        if v == i:
            best = max(best, pos - last)
            last = pos
    return best


class TestEmit:
    def test_periodic_wraps(self):
        s = Schedule.periodic([1, 2, 3])
        assert s.emit(4) == 1
        assert [s.emit(n) for n in range(1, 7)] == [1, 2, 3, 1, 2, 3]

    def test_ruler_prefix(self):
        s = Schedule.ruler(4)
        assert [s.emit(n) for n in range(1, 9)] == [1, 2, 1, 3, 1, 2, 1, 4]

    def test_ruler_capped_at_alphabet(self):
        s = Schedule.ruler(3)
        assert [s.emit(n) for n in range(1, 9)] == [1, 2, 1, 3, 1, 2, 1, 3]

    def test_explicit_indexing_and_exhaustion(self):
        s = Schedule.explicit([2, 2, 1])
        assert s.emit(3) == 1
        with pytest.raises(ScheduleExhausted):
            s.emit(4)

    def test_periodic_period_invariance(self):
        for pattern in ([1], [1, 2], [3, 1, 2], [1, 1, 2, 3]):
            s = Schedule.periodic(pattern)
            period = len(pattern)
            for n in range(1, 10 * period + 1):
                assert s.emit(n + period) == s.emit(n)

    def test_constructed_reads_word_in_application_order(self):
        w = Word.from_letters(3, [1, 2, 3])  # 3 acts first
        s = Schedule.from_word(w)
        assert [s.emit(n) for n in range(1, 4)] == [3, 2, 1]
        assert s.word.length == 3
        with pytest.raises(ScheduleExhausted):
            s.emit(4)

    def test_indices_stay_in_alphabet(self):
        with pytest.raises(ValueError, match="outside alphabet"):
            Schedule.periodic([1, 4], J=3)

    def test_word_letters_stay_in_alphabet(self):
        with pytest.raises(ValueError, match="outside alphabet 1..2"):
            Schedule.from_word(Word.from_letters(3, [3, 1]), J=2)

    def test_explicit_is_the_word_read_back_to_front(self):
        s = Schedule.explicit([2, 2, 1, 3, 3, 3, 1])
        assert s.kind == "constructed" and s.J == 3
        assert s.word == Word.from_letters(3, [1, 3, 3, 3, 1, 2, 2])
        assert [s.emit(n) for n in range(1, 8)] == [2, 2, 1, 3, 3, 3, 1]

    def test_repr_of_a_schedule_holding_a_huge_word(self):
        s = Schedule.from_word(Word(2, ((1, 10**5000),)))
        assert "<5001-digit int>" in repr(s)


class TestIndices:
    def test_cursor_matches_emit_over_ten_thousand_steps(self):
        nested = Word(3, ((Word.group(Word.from_letters(3, [1, 3, 1]), 3339), 586),
                          (2, 1), (Word.from_letters(3, [3, 2]), 7)))
        for schedule in (Schedule.periodic([1, 2, 1, 3]), Schedule.periodic([2]),
                         Schedule.ruler(3), Schedule.ruler(6),
                         Schedule.from_word(nested), Schedule.from_word(shared_tower(30))):
            steps = list(islice(schedule.indices(), 10_000))
            assert steps == [schedule.emit(n) for n in range(1, 10_001)]

    def test_finite_cursor_ends_where_emit_is_exhausted(self):
        s = Schedule.explicit([2, 2, 1, 3, 3, 3, 1])
        assert list(s.indices()) == [s.emit(n) for n in range(1, 8)]
        with pytest.raises(ScheduleExhausted):
            s.emit(8)

    def test_each_cursor_starts_at_step_one(self):
        s = Schedule.ruler(4)
        first = s.indices()
        next(first)
        assert list(islice(s.indices(), 4)) == [1, 2, 1, 3]


class TestQuasiperiodicity:
    def test_periodic_uniform_pattern(self):
        assert quasiperiod_index(Schedule.periodic([1, 2, 3]), 2) == 3.0

    def test_ruler_value_one_every_second_slot(self):
        assert quasiperiod_index(Schedule.ruler(8), 1) == 2.0

    def test_periodic_uneven_gaps(self):
        # 1,1,2,1,1,2,...: gaps of 1 are 1,2,1,2,..., sup = 2
        assert quasiperiod_index(Schedule.periodic([1, 1, 2]), 1) == 2.0

    def test_missing_index_is_infinite(self):
        assert quasiperiod_index(Schedule.periodic([1, 1], J=2), 2) == math.inf

    def test_bound_examples(self):
        assert quasiperiod_bound(Schedule.periodic([1, 2, 3])) == 3.0
        assert quasiperiod_bound(Schedule.periodic([1, 2, 1, 3])) == 4.0
        assert quasiperiod_bound(Schedule.ruler(3)) == 4.0

    def test_explicit_schedules_have_no_quasiperiod(self):
        with pytest.raises(ValueError, match="infinite"):
            quasiperiod_index(Schedule.explicit([1, 2]), 1)

    def test_matches_scan_oracle_on_long_prefixes(self):
        for schedule in (Schedule.periodic([1, 2, 1, 3]), Schedule.periodic([2, 1, 1]),
                         Schedule.ruler(3), Schedule.ruler(5)):
            prefix = [schedule.emit(n) for n in range(1, 10_001)]
            for i in range(1, schedule.J + 1):
                claimed = quasiperiod_index(schedule, i)
                observed = gaps_oracle(prefix, i)
                assert observed <= claimed
                if schedule.kind == "periodic":
                    assert observed == claimed

    def test_every_index_occurs_within_the_bound(self):
        for schedule in (Schedule.periodic([1, 2, 3]), Schedule.periodic([1, 2, 1, 3]),
                         Schedule.ruler(4)):
            bound = quasiperiod_bound(schedule)
            assert bound != math.inf
            prefix = {schedule.emit(n) for n in range(1, int(bound) + 1)}
            assert prefix == set(range(1, schedule.J + 1))


class TestParse:
    def test_periodic_spec(self):
        s = parse_schedule("periodic:1,2,3")
        assert s.kind == "periodic" and s.pattern == (1, 2, 3)

    def test_ruler_spec(self):
        s = parse_schedule("ruler:3")
        assert s.kind == "ruler" and s.J == 3

    def test_file_spec(self, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("1 2, 2\n1\n")
        s = parse_schedule(f"file:{path}")
        assert [s.emit(n) for n in range(1, 5)] == [1, 2, 2, 1]
        with pytest.raises(ScheduleExhausted):
            s.emit(5)
        # comments and blank lines leave the same schedule
        path.write_text("# order\n\n1 2, 2  # first\n   \n1#\n")
        assert list(parse_schedule(f"file:{path}").indices()) == list(s.indices())

    @pytest.mark.parametrize("text, cause", [
        ("1 2\n# c\n2 x 1\n", "3: invalid literal for int() with base 10: 'x'"),
        # a comma at either end of a line is an empty field, wherever the line sits
        ("1,\n2\n", "1: empty field between commas"),
        ("1\n,2\n", "2: empty field between commas"),
        ("1\n\n0\n", "3: letter 0 outside alphabet 1..3"),
    ])
    def test_file_token_refused_at_its_line(self, tmp_path, text, cause):
        path = tmp_path / "seq.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            parse_schedule(f"file:{path}", J=3)
        assert str(info.value) == f"{path}:{cause}"

    def test_empty_field_between_commas_rejected(self, tmp_path):
        with pytest.raises(ValueError, match=r"^schedule spec 'periodic:1,,2': empty field between commas$"):
            parse_schedule("periodic:1,,2")
        path = tmp_path / "seq.txt"
        path.write_text("1, 2,\n, 1\n")
        with pytest.raises(ValueError, match="seq.txt:1: empty field between commas$"):
            parse_schedule(f"file:{path}")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown schedule kind"):
            parse_schedule("fancy:1")
