"""Flat functional reference model of a GS-DRAM machine.

:class:`MemoryOracle` executes the same architectural operations as the
full simulator — plain loads/stores plus ``pattload``/``pattstore`` —
against one flat byte array, with no timing, no caches, no coherence
protocol, no butterfly network, and no CTL objects. It is the ground
truth the differential runner (:mod:`repro.check.differential`) diffs
the timed machine against.

The gather semantics are re-derived here straight from the paper rather
than imported from :mod:`repro.core`, so a bug in the production shuffle
or CTL machinery cannot silently agree with the oracle:

- Section 3.3: for a column command with address ``c`` and pattern
  ``p``, chip ``d`` accesses its local column ``(d AND p) XOR c``.
- Section 3.2: under column-ID shuffling with ``s`` stages, the value
  chip ``d`` holds of logical line ``c'`` is value ``d XOR (c' mod
  2^s)`` of that line.
- Section 3.5: the controller assembles the gathered values in
  ascending row-buffer order.

Composing the three rules gives, for each chip, one flat byte address;
a gathered line is those ``chips`` values concatenated in ascending
address order. Pattern-0 accesses (and accesses to unshuffled pages)
degenerate to the identity mapping — a contiguous cache line.
"""

from __future__ import annotations

from functools import cached_property

from repro.errors import AddressError, PatternError


def _ilog2(value: int) -> int:
    if value <= 0 or value & (value - 1):
        raise PatternError(f"expected a power of two, got {value}")
    return value.bit_length() - 1


def _effective_chip_id(chip_id: int, chip_bits: int, pattern_bits: int) -> int:
    """Section 6.2: repeat the physical chip ID to fill wide patterns."""
    if pattern_bits <= chip_bits:
        return chip_id & ((1 << pattern_bits) - 1)
    repeated, filled = 0, 0
    while filled < pattern_bits:
        repeated |= chip_id << filled
        filled += chip_bits
    return repeated & ((1 << pattern_bits) - 1)


class MemoryOracle:
    """Ground-truth functional memory for differential checking.

    The oracle owns a flat ``capacity_bytes`` byte array. ``load`` and
    ``store`` implement the architectural semantics of the paper's
    instructions; ``read``/``write`` give raw (pattern-0) access for
    preloading data and diffing final images.
    """

    def __init__(
        self,
        chips: int,
        banks: int,
        rows_per_bank: int,
        columns_per_row: int,
        column_bytes: int = 8,
        shuffle_stages: int | None = None,
        pattern_bits: int | None = None,
        bank_interleaved: bool = False,
    ) -> None:
        self.chips = chips
        self.banks = banks
        self.rows_per_bank = rows_per_bank
        self.columns_per_row = columns_per_row
        self.column_bytes = column_bytes
        self.line_bytes = chips * column_bytes
        self.chip_bits = _ilog2(chips)
        self.shuffle_stages = (
            self.chip_bits if shuffle_stages is None else shuffle_stages
        )
        self.pattern_bits = (
            self.chip_bits if pattern_bits is None else pattern_bits
        )
        self.bank_interleaved = bank_interleaved
        self._offset_bits = _ilog2(self.line_bytes)
        self._column_bits = _ilog2(columns_per_row)
        self._bank_bits = _ilog2(banks)
        self.capacity_bytes = banks * rows_per_bank * columns_per_row * self.line_bytes
        #: Architectural access log: (kind, address, pattern, bytes).
        self.log: list[tuple[str, int, int, bytes]] = []

    @cached_property
    def _memory(self) -> bytearray:
        """The flat byte array, zero-filled on the first access to it:
        an oracle asked only for gather addresses never allocates it."""
        return bytearray(self.capacity_bytes)

    @classmethod
    def from_config(cls, config) -> "MemoryOracle":
        """Build an oracle mirroring a :class:`repro.sim.SystemConfig`.

        Only the *architectural* parameters are read (geometry, shuffle
        stages, pattern bits, mapping policy); all timing parameters are
        irrelevant to the oracle by design.
        """
        from repro.dram.address import MappingPolicy
        from repro.sim.config import Mechanism

        geometry = config.geometry
        is_gs = config.mechanism is Mechanism.GS_DRAM
        return cls(
            chips=geometry.chips,
            banks=geometry.banks,
            rows_per_bank=geometry.rows_per_bank,
            columns_per_row=geometry.columns_per_row,
            column_bytes=geometry.column_bytes,
            shuffle_stages=config.shuffle_stages if is_gs else 0,
            pattern_bits=config.pattern_bits if is_gs else 0,
            bank_interleaved=(
                config.mapping_policy is MappingPolicy.BANK_INTERLEAVED
            ),
        )

    # ------------------------------------------------------------------
    # Address arithmetic (independent of repro.dram.address)
    # ------------------------------------------------------------------
    def _decode(self, line_address: int) -> tuple[int, int, int]:
        """(bank, row, column) of a line-aligned address."""
        line = line_address >> self._offset_bits
        if self.bank_interleaved:
            bank = line & (self.banks - 1)
            line >>= self._bank_bits
            column = line & (self.columns_per_row - 1)
            row = line >> self._column_bits
        else:
            column = line & (self.columns_per_row - 1)
            line >>= self._column_bits
            bank = line & (self.banks - 1)
            row = line >> self._bank_bits
        return bank, row, column

    def _encode(self, bank: int, row: int, column: int) -> int:
        if self.bank_interleaved:
            line = ((row << self._column_bits) | column) << self._bank_bits | bank
        else:
            line = ((row << self._bank_bits) | bank) << self._column_bits | column
        return line << self._offset_bits

    # ------------------------------------------------------------------
    # Gather geometry
    # ------------------------------------------------------------------
    def gather_addresses(self, line_address: int, pattern: int) -> list[int]:
        """Flat byte address of each value of the gathered line.

        Entry ``i`` is where the ``i``-th ``column_bytes``-wide value of
        the gathered cache line lives in the flat address space, in
        ascending row-buffer (= ascending address) order.
        """
        if pattern < 0 or pattern >= (1 << self.pattern_bits):
            raise PatternError(
                f"pattern {pattern} does not fit in {self.pattern_bits} bits"
            )
        bank, row, column = self._decode(line_address)
        if pattern == 0:
            return [
                line_address + value * self.column_bytes
                for value in range(self.chips)
            ]
        shuffle_mask = (1 << self.shuffle_stages) - 1
        slots = []
        for chip in range(self.chips):
            wide_chip = _effective_chip_id(chip, self.chip_bits, self.pattern_bits)
            chip_column = (wide_chip & pattern) ^ column
            if chip_column >= self.columns_per_row:
                raise AddressError(
                    "translated column exceeds row width",
                    address=line_address,
                    pattern=pattern,
                )
            value_index = chip ^ (chip_column & shuffle_mask)
            slots.append((chip_column * self.chips + value_index, chip_column))
        slots.sort()
        addresses = []
        for row_index, chip_column in slots:
            base = self._encode(bank, row, chip_column)
            addresses.append(base + (row_index % self.chips) * self.column_bytes)
        return addresses

    def _byte_addresses(
        self, address: int, size: int, pattern: int, shuffled: bool
    ) -> list[int]:
        """Flat address of every byte the access touches, in order.

        Raises :class:`AddressError` if any of them lies outside
        ``[0, capacity_bytes)``, before the access logs or writes
        anything.
        """
        line_address = address & ~(self.line_bytes - 1)
        offset = address - line_address
        if offset + size > self.line_bytes:
            raise AddressError(
                f"access of {size} bytes crosses a line boundary",
                address=address,
                pattern=pattern,
            )
        if pattern == 0 or not shuffled:
            out = list(range(address, address + size))
        else:
            slots = self.gather_addresses(line_address, pattern)
            out = []
            for position in range(offset, offset + size):
                slot, within = divmod(position, self.column_bytes)
                out.append(slots[slot] + within)
        if out and (min(out) < 0 or max(out) >= self.capacity_bytes):
            raise AddressError(
                "access outside oracle memory", address=address,
                pattern=pattern,
            )
        return out

    # ------------------------------------------------------------------
    # Architectural operations
    # ------------------------------------------------------------------
    def load(
        self, address: int, size: int = 8, pattern: int = 0, shuffled: bool = False
    ) -> bytes:
        """Execute one load / ``pattload``; returns the loaded bytes."""
        data = bytes(
            self._memory[byte]
            for byte in self._byte_addresses(address, size, pattern, shuffled)
        )
        self.log.append(("load", address, pattern, data))
        return data

    def store(
        self,
        address: int,
        payload: bytes,
        pattern: int = 0,
        shuffled: bool = False,
    ) -> None:
        """Execute one store / ``pattstore`` (scatter)."""
        targets = self._byte_addresses(address, len(payload), pattern, shuffled)
        for byte, value in zip(targets, payload):
            self._memory[byte] = value
        self.log.append(("store", address, pattern, bytes(payload)))

    # ------------------------------------------------------------------
    # Raw (flat) access for preloading and diffing
    # ------------------------------------------------------------------
    def write(self, address: int, data: bytes) -> None:
        if address < 0 or address + len(data) > self.capacity_bytes:
            raise AddressError("write outside oracle memory", address=address)
        self._memory[address : address + len(data)] = data

    def read(self, address: int, length: int) -> bytes:
        if address < 0 or address + length > self.capacity_bytes:
            raise AddressError("read outside oracle memory", address=address)
        return bytes(self._memory[address : address + length])
