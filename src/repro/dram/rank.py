"""A DRAM rank: a group of chips sharing command/address buses.

All chips in a rank decode every command in lockstep (Section 2 of the
paper); each contributes ``column_bytes`` to every cache line. The rank
stores its chips' bytes together: one ``uint8`` array per touched
(bank, row), shaped ``(columns_per_row * chips, column_bytes)``, whose
slot ``column * chips + chip`` holds chip ``chip``'s column ``column``.
The array's bytes are therefore the row in logical line order, exactly
what :meth:`Rank.read_row` returns. Rows are allocated on first write
and zero-filled; untouched rows read as zeros without allocating.

The base :class:`Rank` implements the conventional behaviour where
every chip accesses the *same* column, so a line is one contiguous run
of slots. GS-DRAM overrides exactly one seam — :meth:`Rank.chip_column`
— to insert the per-chip column translation logic, and its module
moves lines through precomputed slot tables (see
:mod:`repro.core.module`). All timing lives in
:class:`repro.dram.bank.Bank` and the memory controller.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.dram.commands import MRA_OPS
from repro.errors import AddressError, ConfigError
from repro.utils.bitops import is_power_of_two


class Rank:
    """A lockstep group of chips forming one data word per column access."""

    def __init__(
        self,
        chips: int,
        banks: int,
        rows_per_bank: int,
        columns_per_row: int,
        column_bytes: int = 8,
    ) -> None:
        if not is_power_of_two(chips):
            raise ConfigError(f"chip count must be a power of two, got {chips}")
        self.num_chips = chips
        self.banks = banks
        self.rows_per_bank = rows_per_bank
        self.columns_per_row = columns_per_row
        self.column_bytes = column_bytes
        self._shape = (columns_per_row * chips, column_bytes)
        self._rows: dict[tuple[int, int], np.ndarray] = {}
        self._zeros = np.zeros(self._shape, dtype=np.uint8)
        self._zeros.flags.writeable = False

    @property
    def line_bytes(self) -> int:
        """Bytes delivered per column command (the cache line size)."""
        return self.num_chips * self.column_bytes

    @property
    def row_bytes(self) -> int:
        """Bytes per DRAM row across the whole rank."""
        return self.columns_per_row * self.line_bytes

    @property
    def allocated_rows(self) -> int:
        """Number of rows written so far (memory-footprint introspection)."""
        return len(self._rows)

    def _check(self, bank: int, row: int) -> None:
        if not 0 <= bank < self.banks:
            raise AddressError(f"bank {bank} out of range")
        if not 0 <= row < self.rows_per_bank:
            raise AddressError(f"row {row} out of range")

    def _stored(self, bank: int, row: int) -> np.ndarray:
        """The row's storage for reading (shared read-only zeros if untouched)."""
        self._check(bank, row)
        return self._rows.get((bank, row), self._zeros)

    def _writable(self, bank: int, row: int) -> np.ndarray:
        """The row's storage for writing, allocating zeros if untouched."""
        self._check(bank, row)
        data = self._rows.get((bank, row))
        if data is None:
            data = self._rows[(bank, row)] = np.zeros(self._shape, dtype=np.uint8)
        return data

    # ------------------------------------------------------------------
    # The GS-DRAM seam
    # ------------------------------------------------------------------
    def chip_column(self, chip_id: int, column: int, pattern: int) -> int:
        """Column accessed by ``chip_id`` for an issued ``column``.

        Conventional DRAM ignores the pattern ID: every chip accesses
        the issued column. GS-DRAM's module overrides this with the CTL.
        """
        if pattern != 0:
            raise AddressError(
                "plain DRAM rank cannot honour a non-zero pattern ID "
                f"(got pattern {pattern}); use a GSRank"
            )
        return column

    def _line_slots(self, column: int, pattern: int) -> slice | list[int]:
        """Slots of chips 0..n-1 for an issued ``column`` and ``pattern``."""
        if not 0 <= column < self.columns_per_row:
            raise AddressError(f"column {column} out of range")
        chips = self.num_chips
        if pattern == 0:
            return slice(column * chips, (column + 1) * chips)
        return [
            self.chip_column(chip, column, pattern) * chips + chip
            for chip in range(chips)
        ]

    # ------------------------------------------------------------------
    # Data movement
    # ------------------------------------------------------------------
    def read_slots(self, bank: int, row: int, slots) -> bytes:
        """The columns at ``slots`` (a slice or index array), in order."""
        return self._stored(bank, row)[slots].tobytes()

    def write_slots(self, bank: int, row: int, slots, data) -> None:
        """Store ``data`` (``column_bytes`` per slot) at ``slots``, in order."""
        target = self._writable(bank, row)
        target[slots] = np.frombuffer(data, dtype=np.uint8).reshape(
            -1, self.column_bytes
        )

    def read_line(self, bank: int, row: int, column: int, pattern: int = 0) -> bytes:
        """Read one line: chip ``i`` supplies byte lanes ``i*w..(i+1)*w``."""
        return self.read_slots(bank, row, self._line_slots(column, pattern))

    def write_line(
        self, bank: int, row: int, column: int, data: bytes, pattern: int = 0
    ) -> None:
        """Write one line: chip ``i`` absorbs byte lanes ``i*w..(i+1)*w``."""
        if len(data) != self.line_bytes:
            raise AddressError(
                f"line write of {len(data)} bytes, rank line size is {self.line_bytes}"
            )
        self.write_slots(bank, row, self._line_slots(column, pattern), data)

    # ------------------------------------------------------------------
    # In-DRAM compute (docs/INDRAM.md)
    # ------------------------------------------------------------------
    def read_row(self, bank: int, row: int) -> bytes:
        """The whole row in logical line order (column 0 line first)."""
        return self._stored(bank, row).tobytes()

    def write_row(self, bank: int, row: int, data: bytes) -> None:
        """Fill the whole row from ``data`` in logical line order."""
        if len(data) != self.row_bytes:
            raise AddressError(
                f"row write of {len(data)} bytes, rank row size is {self.row_bytes}"
            )
        self._writable(bank, row)[:] = np.frombuffer(data, dtype=np.uint8).reshape(
            self._shape
        )

    def mra(self, bank: int, rows: tuple[int, ...], dest: int, op: str) -> None:
        """Multi-row activate: latch the bitwise ``op`` of ``rows`` into ``dest``.

        AND/OR combine 2-3 distinct source rows; MAJ is the bitwise
        majority ``(a&b)|(a&c)|(b&c)`` of exactly 3 — the combinations
        :class:`repro.dram.commands.Command` accepts. The ops are
        bit-local, so combining the whole row at once is what every
        chip does to its own lanes in lockstep.
        """
        if op not in MRA_OPS:
            raise AddressError(f"unknown MRA op {op!r}")
        if not 2 <= len(rows) <= 3 or len(set(rows)) != len(rows):
            raise AddressError(f"MRA needs 2-3 distinct source rows, got {rows}")
        if op == "MAJ" and len(rows) != 3:
            raise AddressError(f"MAJ needs exactly 3 source rows, got {rows}")
        self._check(bank, dest)
        sources = [self._stored(bank, r) for r in rows]
        if op == "MAJ":
            a, b, c = sources
            combined = (a & b) | (a & c) | (b & c)
        else:
            combine = np.bitwise_and if op == "AND" else np.bitwise_or
            combined = functools.reduce(combine, sources)
        self._rows[(bank, dest)] = combined

    def shift_row(self, bank: int, row: int, amount: int,
                  direction: str = "left") -> None:
        """Shift the row as one little-endian bit vector, zero-filling.

        Bit ``t`` lives in byte ``t // 8`` of the row's logical line
        order, so shifts cross chip (and column) boundaries. One pass
        over the row's bytes moves each byte by ``amount // 8`` places
        and carries its top (left) or bottom (right) ``amount % 8``
        bits into the next byte.
        """
        if amount <= 0:
            raise AddressError(f"shift amount must be positive, got {amount}")
        if direction not in ("left", "right"):
            raise AddressError(f"unknown shift direction {direction!r}")
        source = self._stored(bank, row).reshape(-1)
        size = source.size
        step, bits = divmod(amount, 8)
        shifted = np.zeros(size, dtype=np.uint8)
        if step < size:
            if direction == "left":
                shifted[step:] = source[: size - step] << bits
                if bits:
                    shifted[step + 1 :] |= source[: size - step - 1] >> (8 - bits)
            else:
                shifted[: size - step] = source[step:] >> bits
                if bits:
                    shifted[: size - step - 1] |= source[step + 1 :] << (8 - bits)
        self._rows[(bank, row)] = shifted.reshape(self._shape)
