"""DRAM geometry and physical-address mapping.

Physical addresses are decoded into (bank, row, column, line offset)
according to a mapping policy. The default policy places column bits
below bank bits, so a streaming access sweeps all columns of an open
row before switching banks — the open-row-friendly layout the paper's
FR-FCFS/open-page configuration assumes. A bank-interleaved policy is
provided for ablations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

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


class AddressMapping:
    """Bidirectional physical address <-> (bank, row, column) mapping."""

    def __init__(
        self,
        geometry: Geometry,
        policy: MappingPolicy = MappingPolicy.ROW_BANK_COLUMN,
    ) -> None:
        self.geometry = geometry
        self.policy = policy
        self.offset_bits = ilog2(geometry.line_bytes)
        self.column_bits = ilog2(geometry.columns_per_row)
        self.bank_bits = ilog2(geometry.banks)
        self.row_bits = ilog2(geometry.rows_per_bank)
        self.address_bits = (
            self.offset_bits + self.column_bits + self.bank_bits + self.row_bits
        )
        self._capacity = geometry.capacity_bytes
        self._offset_mask = geometry.line_bytes - 1
        self._column_mask = geometry.columns_per_row - 1
        self._bank_mask = geometry.banks - 1
        # Decided once: reading an enum member off its class costs more
        # than the decode arithmetic.
        self._column_low = policy is MappingPolicy.ROW_BANK_COLUMN

    def decode(self, address: int) -> DecodedAddress:
        """Split a physical byte address into DRAM coordinates."""
        if address < 0 or address >= self._capacity:
            raise AddressError(
                f"address {address:#x} outside module capacity "
                f"{self._capacity:#x}"
            )
        offset = address & self._offset_mask
        line = address >> self.offset_bits
        if self._column_low:
            column = line & self._column_mask
            line >>= self.column_bits
            bank = line & self._bank_mask
            row = line >> self.bank_bits
        else:
            bank = line & self._bank_mask
            line >>= self.bank_bits
            column = line & self._column_mask
            row = line >> self.column_bits
        # Positional: keyword arguments double the build cost.
        return DecodedAddress(bank, row, column, offset)

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
        if self.policy is MappingPolicy.ROW_BANK_COLUMN:
            line = ((row << self.bank_bits) | bank) << self.column_bits | column
        else:
            line = ((row << self.column_bits) | column) << self.bank_bits | bank
        return (line << self.offset_bits) | offset

    def line_address(self, address: int) -> int:
        """Address rounded down to its cache-line base."""
        return address & ~self._offset_mask
