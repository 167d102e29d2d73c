"""Device semantics (the rank) vs the numpy reference, byte for byte."""

import numpy as np
import pytest

from repro.dram import commands
from repro.dram.address import Geometry
from repro.dram.module import DRAMModule
from repro.errors import AddressError, ConfigError, ProtocolError
from repro.pim.reference import bit_slice_rows, combine_reference, shift_reference

SMALL = Geometry(chips=8, banks=2, rows_per_bank=8, columns_per_row=16)


def make_module() -> DRAMModule:
    return DRAMModule(geometry=SMALL)


def random_rows(count: int, row_bytes: int, seed: int) -> list[bytes]:
    rng = np.random.default_rng(seed)
    return [
        rng.integers(0, 256, size=row_bytes, dtype=np.uint8).tobytes()
        for _ in range(count)
    ]


class TestReferenceSemantics:
    def test_and_or_basic(self):
        a, b = b"\xf0\x0f", b"\xff\x00"
        assert combine_reference([a, b], "AND") == b"\xf0\x00"
        assert combine_reference([a, b], "OR") == b"\xff\x0f"

    def test_maj_is_bitwise_majority(self):
        a, b, c = b"\xf0\x0f", b"\xff\x00", b"\x0f\x0f"
        assert combine_reference([a, b, c], "MAJ") == b"\xff\x0f"

    def test_rejects_bad_shapes(self):
        with pytest.raises(ConfigError):
            combine_reference([b"\x00"], "AND")
        with pytest.raises(ConfigError):
            combine_reference([b"\x00", b"\x00\x00"], "OR")
        with pytest.raises(ConfigError):
            combine_reference([b"\x00", b"\x01"], "MAJ")
        with pytest.raises(ConfigError):
            combine_reference([b"\x00", b"\x01"], "XOR")

    def test_shift_left_is_multiply(self):
        # Little-endian: value 1 shifted left 9 puts the bit in byte 1.
        assert shift_reference(b"\x01\x00", 9) == b"\x00\x02"

    def test_shift_right_zero_fills(self):
        assert shift_reference(b"\x00\x02", 9, "right") == b"\x01\x00"

    def test_shift_past_width_clears(self):
        assert shift_reference(b"\xff\xff", 16) == b"\x00\x00"
        assert shift_reference(b"\xff\xff", 100, "right") == b"\x00\x00"

    def test_shift_validation(self):
        with pytest.raises(ConfigError):
            shift_reference(b"\x01", 0)
        with pytest.raises(ConfigError):
            shift_reference(b"\x01", 1, "up")

    def test_bit_slice_rows_layout(self):
        values = np.array([0b01, 0b10, 0b11], dtype=np.uint64)
        rows = bit_slice_rows(values, 2, 1)
        # Slice 0 = LSBs of lanes 0..2 -> bits 0b101; slice 1 -> 0b110.
        assert rows[0, 0] == 0b101
        assert rows[1, 0] == 0b110

    def test_bit_slice_rows_overflow(self):
        with pytest.raises(ConfigError):
            bit_slice_rows(np.zeros(9, dtype=np.uint64), 1, 1)


class TestDeviceMatchesReference:
    """The real byte arrays, compared byte-for-byte with numpy."""

    @pytest.mark.parametrize("op,fan_in", [
        ("AND", 2), ("AND", 3), ("OR", 2), ("OR", 3), ("MAJ", 3),
    ])
    def test_mra(self, op, fan_in):
        module = make_module()
        rows = random_rows(fan_in, module.geometry.row_bytes, seed=fan_in)
        for i, data in enumerate(rows):
            module.rank.write_row(0, i, data)
        module.rank.mra(0, tuple(range(fan_in)), 6, op)
        assert module.rank.read_row(0, 6) == combine_reference(rows, op)

    def test_mra_reads_unallocated_rows_as_zero(self):
        module = make_module()
        ones = b"\xff" * module.geometry.row_bytes
        module.rank.write_row(1, 0, ones)
        module.rank.mra(1, (0, 5), 6, "AND")  # row 5 never touched
        assert module.rank.read_row(1, 6) == bytes(module.geometry.row_bytes)

    @pytest.mark.parametrize("rows,op", [
        ((0,), "AND"), ((0, 0), "AND"), ((0, 1), "MAJ"),
    ], ids=["one-row", "repeated-row", "maj-of-two"])
    def test_mra_rejects_what_the_command_rejects(self, rows, op):
        with pytest.raises(ProtocolError):
            commands.mra(0, rows, 2, op)
        module = make_module()
        with pytest.raises(AddressError):
            module.rank.mra(0, rows, 2, op)
        assert module.rank.allocated_rows == 0

    @pytest.mark.parametrize("direction", ["left", "right"])
    @pytest.mark.parametrize("amount", [1, 7, 8, 64, 100, 1000])
    def test_shift(self, direction, amount):
        module = make_module()
        (row,) = random_rows(1, module.geometry.row_bytes, seed=amount)
        module.rank.write_row(0, 3, row)
        module.rank.shift_row(0, 3, amount, direction)
        assert module.rank.read_row(0, 3) == shift_reference(
            row, amount, direction
        )

    def test_shift_crosses_chip_boundaries(self):
        # Lane 63 is chip 7's top bit of line 0; lane 64 is chip 0's
        # low bit of line 1's worth of byte 8 -- one shift must carry
        # the bit across the chip seam.
        module = make_module()
        row = bytearray(module.geometry.row_bytes)
        row[7] = 0x80  # lane 63
        module.rank.write_row(0, 0, bytes(row))
        module.rank.shift_row(0, 0, 1, "left")
        shifted = module.rank.read_row(0, 0)
        assert shifted[7] == 0 and shifted[8] == 0x01

    def test_row_roundtrip(self):
        module = make_module()
        (row,) = random_rows(1, module.geometry.row_bytes, seed=9)
        module.rank.write_row(1, 7, row)
        assert module.rank.read_row(1, 7) == row
        # Row order is logical line order: line 0 first.
        assert module.rank.read_line(1, 7, 0) == row[: module.line_bytes]

    def test_shift_validation(self):
        module = make_module()
        with pytest.raises(AddressError):
            module.rank.shift_row(0, 0, 0)
        with pytest.raises(AddressError):
            module.rank.shift_row(0, 0, 1, "sideways")
