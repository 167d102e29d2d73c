"""Tests for the chips' column storage, held by the rank.

A rank keeps one array per touched (bank, row); slot
``column * chips + chip`` is chip ``chip``'s column ``column``.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dram.rank import Rank
from repro.errors import AddressError

LINE = 4 * 8


def make_rank() -> Rank:
    return Rank(chips=4, banks=2, rows_per_bank=4, columns_per_row=8)


class TestReadWrite:
    def test_untouched_reads_zero(self):
        rank = make_rank()
        assert rank.read_line(0, 0, 0) == bytes(LINE)
        assert rank.read_row(1, 3) == bytes(rank.row_bytes)

    def test_round_trip(self):
        rank = make_rank()
        rank.write_line(1, 2, 3, b"ABCDEFGH" * 4)
        assert rank.read_line(1, 2, 3) == b"ABCDEFGH" * 4

    def test_columns_independent(self):
        rank = make_rank()
        rank.write_line(0, 0, 0, b"A" * LINE)
        rank.write_line(0, 0, 1, b"B" * LINE)
        assert rank.read_line(0, 0, 0) == b"A" * LINE
        assert rank.read_line(0, 0, 1) == b"B" * LINE

    def test_banks_independent(self):
        rank = make_rank()
        rank.write_line(0, 1, 1, b"X" * LINE)
        assert rank.read_line(1, 1, 1) == bytes(LINE)

    @given(st.binary(min_size=LINE, max_size=LINE), st.integers(0, 7))
    def test_any_payload_round_trips(self, payload, column):
        rank = make_rank()
        rank.write_line(0, 0, column, payload)
        assert rank.read_line(0, 0, column) == payload
        row = rank.read_row(0, 0)
        assert row[column * LINE : (column + 1) * LINE] == payload


class TestValidation:
    def test_bank_out_of_range(self):
        with pytest.raises(AddressError):
            make_rank().read_line(2, 0, 0)
        with pytest.raises(AddressError):
            make_rank().read_row(-1, 0)

    def test_row_out_of_range(self):
        with pytest.raises(AddressError):
            make_rank().read_line(0, 4, 0)
        with pytest.raises(AddressError):
            make_rank().write_row(0, 4, bytes(make_rank().row_bytes))

    def test_column_out_of_range(self):
        with pytest.raises(AddressError):
            make_rank().write_line(0, 0, 8, bytes(LINE))
        with pytest.raises(AddressError):
            make_rank().read_line(0, 0, -1)

    def test_wrong_payload_size(self):
        with pytest.raises(AddressError):
            make_rank().write_line(0, 0, 0, b"short")
        with pytest.raises(AddressError):
            make_rank().write_row(0, 0, bytes(LINE))


class TestLazyAllocation:
    def test_reads_do_not_allocate(self):
        rank = make_rank()
        rank.read_line(0, 0, 0)
        rank.read_row(1, 2)
        assert rank.allocated_rows == 0

    def test_writes_allocate_per_row(self):
        rank = make_rank()
        rank.write_line(0, 0, 0, bytes(LINE))
        rank.write_line(0, 0, 5, bytes(LINE))
        rank.write_line(1, 3, 0, bytes(LINE))
        assert rank.allocated_rows == 2
