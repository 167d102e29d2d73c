"""DRAM geometry and physical-address mapping.

:class:`AddressMapping` is the one statement of the address bit
layout. A physical byte address is four contiguous bit fields: the
line offset in the lowest bits, then column and bank in the order the
:class:`MappingPolicy` picks, then the row. The mapping reads the
policy once, into a shift and a mask per field, and every consumer
reads those or calls its decode and encode, which take a Python int or
a numpy int64 array.

The default policy places column bits directly above the offset, so a
streaming access sweeps all columns of an open row before switching
banks — the open-row-friendly layout the paper's FR-FCFS/open-page
configuration assumes. A bank-interleaved policy is provided for
ablations. Whether GS-DRAM gathers hold on a mapping is derived from
the fields, by :meth:`AddressMapping.gathers_in_row`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.errors import AddressError, ConfigError
from repro.utils.bitops import ilog2, is_power_of_two


@dataclass(frozen=True)
class Geometry:
    """Shape of one DRAM rank (the paper: 1 channel, 1 rank, 8 banks)."""

    chips: int = 8
    banks: int = 8
    rows_per_bank: int = 4096
    columns_per_row: int = 128
    column_bytes: int = 8

    def __post_init__(self) -> None:
        for name in ("chips", "banks", "rows_per_bank", "columns_per_row"):
            if not is_power_of_two(getattr(self, name)):
                raise ConfigError(f"{name} must be a power of two")
        if self.column_bytes <= 0:
            raise ConfigError("column_bytes must be positive")

    @property
    def line_bytes(self) -> int:
        """Cache-line size delivered per column command."""
        return self.chips * self.column_bytes

    @property
    def row_bytes(self) -> int:
        """Bytes per row across the rank (8 KB in the default geometry)."""
        return self.columns_per_row * self.line_bytes

    @property
    def capacity_bytes(self) -> int:
        """Total module capacity."""
        return self.banks * self.rows_per_bank * self.row_bytes

    @property
    def lines(self) -> int:
        """Total number of cache lines in the module."""
        return self.capacity_bytes // self.line_bytes


@dataclass(slots=True)
class DecodedAddress:
    """A physical address decoded into DRAM coordinates.

    Read-only by convention rather than ``frozen``: one is built per
    line access and per controller request, and a frozen dataclass
    costs about four times as much to build as a slotted one.
    """

    bank: int
    row: int
    column: int
    offset: int

    @property
    def line_key(self) -> tuple[int, int, int]:
        """(bank, row, column) — identifies one DRAM line."""
        return (self.bank, self.row, self.column)


class MappingPolicy(enum.Enum):
    """How address bits are split among bank/row/column."""

    #: [row | bank | column | offset] — streams stay in one open row.
    ROW_BANK_COLUMN = "row-bank-column"
    #: [row | column | bank | offset] — consecutive lines hit different banks.
    BANK_INTERLEAVED = "bank-interleaved"


def _check_batch(name: str, values: np.ndarray, limit: int) -> None:
    """One range check for a whole batch of field values."""
    if values.size and (int(values.min()) < 0 or int(values.max()) >= limit):
        raise AddressError(f"{name} batch out of range [0, {limit:#x})")


class AddressMapping:
    """Bidirectional physical address <-> (bank, row, column) mapping.

    Field ``f`` of an address is ``(address >> f_shift) & f_mask``; the
    offset sits at bit 0. :meth:`_split` and :meth:`_join` are the one
    copy of that arithmetic, and they take an int or an int64 array.
    """

    def __init__(
        self,
        geometry: Geometry,
        policy: MappingPolicy = MappingPolicy.ROW_BANK_COLUMN,
    ) -> None:
        self.geometry = geometry
        self.offset_bits = ilog2(geometry.line_bytes)
        self.column_bits = ilog2(geometry.columns_per_row)
        bank_bits = ilog2(geometry.banks)
        self.offset_mask = geometry.line_bytes - 1
        self.column_mask = geometry.columns_per_row - 1
        self.bank_mask = geometry.banks - 1
        self.row_mask = geometry.rows_per_bank - 1
        # The one reading of the policy: the order of column and bank
        # between the offset and the row.
        if policy is MappingPolicy.ROW_BANK_COLUMN:
            self.column_shift = self.offset_bits
            self.bank_shift = self.column_shift + self.column_bits
        else:
            self.bank_shift = self.offset_bits
            self.column_shift = self.bank_shift + bank_bits
        self.row_shift = self.offset_bits + self.column_bits + bank_bits
        self._capacity = geometry.capacity_bytes

    def _split(self, address):
        """(bank, row, column, offset) of in-range address(es)."""
        return (
            (address >> self.bank_shift) & self.bank_mask,
            (address >> self.row_shift) & self.row_mask,
            (address >> self.column_shift) & self.column_mask,
            address & self.offset_mask,
        )

    def _join(self, bank, row, column, offset):
        """Inverse of :meth:`_split` for in-range fields."""
        return (
            (bank << self.bank_shift)
            | (row << self.row_shift)
            | (column << self.column_shift)
            | offset
        )

    def decode(self, address: int) -> DecodedAddress:
        """Split a physical byte address into DRAM coordinates."""
        if address < 0 or address >= self._capacity:
            raise AddressError(
                f"address {address:#x} outside module capacity "
                f"{self._capacity:#x}"
            )
        # Positional: keyword arguments double the build cost.
        return DecodedAddress(*self._split(address))

    def encode(self, bank: int, row: int, column: int, offset: int = 0) -> int:
        """Inverse of :meth:`decode`."""
        geometry = self.geometry
        if not 0 <= bank < geometry.banks:
            raise AddressError(f"bank {bank} out of range")
        if not 0 <= row < geometry.rows_per_bank:
            raise AddressError(f"row {row} out of range")
        if not 0 <= column < geometry.columns_per_row:
            raise AddressError(f"column {column} out of range")
        if not 0 <= offset < geometry.line_bytes:
            raise AddressError(f"offset {offset} out of range")
        return self._join(bank, row, column, offset)

    def decode_array(self, addresses) -> tuple[np.ndarray, ...]:
        """(bank, row, column, offset) int64 arrays of an address batch.

        Batch form of :meth:`decode`: one range check for the batch.
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        _check_batch("address", addresses, self._capacity)
        return self._split(addresses)

    def encode_array(self, bank, row, column, offset=0) -> np.ndarray:
        """Batch form of :meth:`encode`; the fields broadcast together."""
        geometry = self.geometry
        fields = []
        for name, values, limit in (
            ("bank", bank, geometry.banks),
            ("row", row, geometry.rows_per_bank),
            ("column", column, geometry.columns_per_row),
            ("offset", offset, geometry.line_bytes),
        ):
            values = np.asarray(values, dtype=np.int64)
            _check_batch(name, values, limit)
            fields.append(values)
        return self._join(*fields)

    def line_address(self, address: int) -> int:
        """Address rounded down to its cache-line base."""
        return address & ~self.offset_mask

    def gathers_in_row(self, pattern_bits: int) -> bool:
        """True when a GS-DRAM gather covers consecutive lines of one row.

        The CTL rewrites the low ``pattern_bits`` column bits (Section
        3.3), and the gathering layouts place the lines one gather
        covers at consecutive line addresses. Both agree when the
        ``pattern_bits`` lowest line-address bits all lie in the column
        field: no bank or row bit among them, none past the row's width.
        """
        rewritten = ((1 << pattern_bits) - 1) << self.offset_bits
        return (rewritten & (self.column_mask << self.column_shift)) == rewritten
