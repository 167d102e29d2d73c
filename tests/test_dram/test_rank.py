"""Tests for the lockstep rank."""

import pytest

from repro.dram.rank import Rank
from repro.errors import AddressError, ConfigError


def make_rank(chips: int = 4) -> Rank:
    return Rank(chips=chips, banks=1, rows_per_bank=2, columns_per_row=4)


class TestGeometry:
    def test_line_bytes(self):
        assert make_rank(4).line_bytes == 32
        assert make_rank(8).line_bytes == 64

    def test_row_bytes(self):
        assert make_rank(4).row_bytes == 4 * 32

    def test_chip_count_must_be_power_of_two(self):
        with pytest.raises(ConfigError):
            Rank(chips=3, banks=1, rows_per_bank=1, columns_per_row=1)


class TestLineAccess:
    def test_lane_splitting(self):
        rank = make_rank(4)
        line = b"".join(bytes([i] * 8) for i in range(4))
        rank.write_line(0, 0, 0, line)
        row = rank.read_row(0, 0)
        for chip in range(4):
            assert row[chip * 8 : (chip + 1) * 8] == bytes([chip] * 8)

    def test_round_trip(self):
        rank = make_rank(4)
        line = bytes(range(32))
        rank.write_line(0, 1, 2, line)
        assert rank.read_line(0, 1, 2) == line

    def test_wrong_line_size_rejected(self):
        with pytest.raises(AddressError):
            make_rank(4).write_line(0, 0, 0, bytes(16))

    def test_untouched_line_is_zero(self):
        assert make_rank(4).read_line(0, 0, 3) == bytes(32)


class TestPatternRejection:
    def test_plain_rank_rejects_patterns(self):
        rank = make_rank(4)
        with pytest.raises(AddressError):
            rank.read_line(0, 0, 0, pattern=1)

    def test_pattern_zero_is_default(self):
        rank = make_rank(4)
        rank.write_line(0, 0, 0, bytes(32), pattern=0)
        assert rank.read_line(0, 0, 0, pattern=0) == bytes(32)
