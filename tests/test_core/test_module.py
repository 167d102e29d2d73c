"""Tests for the GS module: shuffled storage + CTL gathers (Figure 6)."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.module import GSModule
from repro.core.shuffle import MaskedShuffle
from repro.dram.address import Geometry
from repro.errors import PatternError

GEOMETRY = Geometry(chips=8, banks=2, rows_per_bank=4, columns_per_row=16)


def make_module(**kwargs) -> GSModule:
    return GSModule(geometry=GEOMETRY, **kwargs)


def pack(values) -> bytes:
    return struct.pack(f"<{len(values)}Q", *values)


def unpack(data: bytes):
    return list(struct.unpack(f"<{len(data) // 8}Q", data))


def fill_row(module: GSModule, lines: int = 16) -> None:
    """Write `lines` consecutive lines with values equal to global index."""
    for line in range(lines):
        module.write_line(line * 64, pack(range(line * 8, line * 8 + 8)))


class TestPatternZero:
    def test_round_trip(self):
        module = make_module()
        module.write_line(64, pack(range(8)))
        assert unpack(module.read_line(64)) == list(range(8))

    def test_shuffling_actually_permutes_chips(self):
        # Column 1: value j stored on chip j XOR 1.
        module = make_module()
        module.write_line(64, pack(range(8)))
        loc = module.decode(64)
        row = module.rank.read_row(loc.bank, loc.row)
        chip0 = row[loc.column * 64 : loc.column * 64 + 8]
        assert struct.unpack("<Q", chip0)[0] == 1

    def test_unshuffled_page_stores_directly(self):
        module = make_module()
        module.write_line(64, pack(range(8)), shuffled=False)
        loc = module.decode(64)
        row = module.rank.read_row(loc.bank, loc.row)
        chip0 = row[loc.column * 64 : loc.column * 64 + 8]
        assert struct.unpack("<Q", chip0)[0] == 0
        assert unpack(module.read_line(64, shuffled=False)) == list(range(8))


class TestGathers:
    def test_stride8_gather(self):
        module = make_module()
        fill_row(module)
        assert unpack(module.read_line(0, pattern=7)) == list(range(0, 64, 8))

    def test_stride8_gather_other_field(self):
        module = make_module()
        fill_row(module)
        # Column 3 gathers field 3 of the first aligned tuple group.
        assert unpack(module.read_line(3 * 64, pattern=7)) == list(range(3, 64, 8))

    def test_stride2_gather(self):
        module = make_module()
        fill_row(module)
        assert unpack(module.read_line(0, pattern=1)) == list(range(0, 16, 2))

    def test_stride4_gather(self):
        module = make_module()
        fill_row(module)
        assert unpack(module.read_line(0, pattern=3)) == list(range(0, 32, 4))

    @settings(max_examples=50)
    @given(
        pattern=st.integers(min_value=0, max_value=7),
        column=st.integers(min_value=0, max_value=15),
    )
    def test_gather_matches_lane_map(self, pattern, column):
        module = make_module()
        fill_row(module)
        gathered = unpack(module.read_line(column * 64, pattern=pattern))
        expected = sorted(
            entry[2] for entry in module.lane_map(column, pattern)
        )
        assert gathered == expected


class TestScatter:
    def test_scatter_inverse_of_gather(self):
        module = make_module()
        fill_row(module)
        module.write_line(0, pack(range(100, 108)), pattern=7)
        assert unpack(module.read_line(0, pattern=7)) == list(range(100, 108))

    def test_scatter_updates_pattern0_lines(self):
        module = make_module()
        fill_row(module)
        module.write_line(0, pack(range(100, 108)), pattern=7)
        # Value k of the scatter landed in line k, offset 0.
        for line in range(8):
            values = unpack(module.read_line(line * 64))
            assert values[0] == 100 + line
            assert values[1:] == list(range(line * 8 + 1, line * 8 + 8))

    @settings(max_examples=30)
    @given(
        pattern=st.integers(min_value=0, max_value=7),
        column=st.integers(min_value=0, max_value=15),
        payload=st.lists(
            st.integers(min_value=0, max_value=2**64 - 1), min_size=8, max_size=8
        ),
    )
    def test_write_read_round_trip_any_pattern(self, pattern, column, payload):
        module = make_module()
        module.write_line(column * 64, pack(payload), pattern=pattern)
        assert unpack(module.read_line(column * 64, pattern=pattern)) == payload


class TestConstituents:
    def test_positions_locate_values(self):
        module = make_module()
        fill_row(module)
        constituents = module.constituents(0, pattern=7)
        gathered = unpack(module.read_line(0, pattern=7))
        for position, (line_address, offset) in enumerate(constituents):
            line = unpack(module.read_line(line_address))
            assert line[offset // 8] == gathered[position]

    def test_pattern0_constituents_are_self(self):
        module = make_module()
        constituents = module.constituents(128, pattern=0)
        assert [address for address, _ in constituents] == [128] * 8
        assert [offset for _, offset in constituents] == [i * 8 for i in range(8)]


class TestOverlapColumns:
    def test_symmetric(self):
        module = make_module()
        for column in range(16):
            for pattern in range(8):
                overlaps = module.overlapping_columns(column, pattern)
                for other in overlaps:
                    assert column in module.overlapping_columns(other, pattern)

    def test_stride8_overlap_is_aligned_group(self):
        module = make_module()
        assert module.overlapping_columns(3, 7) == set(range(8))


class TestInsufficientShuffle:
    def test_partial_shuffle_detects_duplicates(self):
        module = make_module(shuffle=MaskedShuffle(stages=3, stage_mask=0b001))
        assert module.gathers_correctly(1)
        assert not module.gathers_correctly(7)

    def test_full_shuffle_supports_all_patterns(self):
        module = make_module()
        for pattern in range(8):
            assert module.gathers_correctly(pattern)

    def test_too_many_stages_rejected(self):
        from repro.core.shuffle import LSBShuffle

        with pytest.raises(PatternError):
            GSModule(geometry=GEOMETRY, shuffle=LSBShuffle(4))
