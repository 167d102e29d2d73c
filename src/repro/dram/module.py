"""A complete DRAM module: functional rank + per-bank timing state.

The module is the unit the memory controller talks to. It bundles the
functional storage (:class:`~repro.dram.rank.Rank`), per-bank timing
state machines, and the address mapping. Subclasses swap in a GS-DRAM
rank (see :class:`repro.core.module.GSModule`) without touching the
controller.
"""

from __future__ import annotations

import numpy as np

from repro.dram.address import AddressMapping, DecodedAddress, Geometry, MappingPolicy
from repro.dram.bank import Bank
from repro.dram.rank import Rank
from repro.dram.timing import DEFAULT_CPU_PER_BUS, DRAMTiming, ddr3_1600
from repro.errors import AddressError


class DRAMModule:
    """A single-rank DRAM module (the paper: 1 channel, 1 rank, 8 banks)."""

    def __init__(
        self,
        geometry: Geometry | None = None,
        timing: DRAMTiming | None = None,
        cpu_per_bus: int = DEFAULT_CPU_PER_BUS,
        policy: MappingPolicy = MappingPolicy.ROW_BANK_COLUMN,
    ) -> None:
        self.geometry = geometry or Geometry()
        bus_timing = timing or ddr3_1600()
        self.timing = bus_timing.scaled(cpu_per_bus)
        self.cpu_per_bus = cpu_per_bus
        self.mapping = AddressMapping(self.geometry, policy)
        self.rank = self._build_rank()
        self.banks = [Bank(i, self.timing) for i in range(self.geometry.banks)]

    def _build_rank(self) -> Rank:
        """Construct the functional rank; the GS module overrides this."""
        g = self.geometry
        return Rank(g.chips, g.banks, g.rows_per_bank, g.columns_per_row, g.column_bytes)

    @property
    def line_bytes(self) -> int:
        return self.geometry.line_bytes

    @property
    def supports_patterns(self) -> bool:
        """Whether non-zero pattern IDs are honoured (False for plain DRAM)."""
        return False

    # ------------------------------------------------------------------
    # Functional access (timing-free), used by loaders and tests
    # ------------------------------------------------------------------
    def decode(self, address: int) -> DecodedAddress:
        return self.mapping.decode(address)

    def read_line(self, address: int, pattern: int = 0, shuffled: bool = False) -> bytes:
        """Functionally read the line containing ``address``.

        ``shuffled`` is accepted for interface compatibility with the GS
        module and ignored (plain DRAM has no shuffle network).
        """
        loc = self.mapping.decode(address)
        if loc.offset != 0:
            raise AddressError(f"line read of unaligned address {address:#x}")
        return self.rank.read_line(loc.bank, loc.row, loc.column, pattern)

    def write_line(
        self, address: int, data: bytes, pattern: int = 0, shuffled: bool = False
    ) -> None:
        """Functionally write the line containing ``address``."""
        loc = self.mapping.decode(address)
        if loc.offset != 0:
            raise AddressError(f"line write of unaligned address {address:#x}")
        self.rank.write_line(loc.bank, loc.row, loc.column, data, pattern)

    # ------------------------------------------------------------------
    # Byte spans (the loaders' path)
    # ------------------------------------------------------------------
    def read_bytes(self, address: int, length: int, shuffled: bool = False) -> bytes:
        """Read ``length`` bytes starting at ``address`` (may span lines)."""
        head, count, tail = self._line_split(address, length)
        out = bytearray()
        if head:
            base = self.mapping.line_address(address)
            offset = address - base
            out += self.read_line(base, 0, shuffled)[offset : offset + head]
        if count:
            lines = np.empty((count, self.line_bytes), dtype=np.uint8)
            groups = self._row_groups(address + head, count, shuffled)
            for bank, row, pick, slots in groups:
                lines[pick] = np.frombuffer(
                    self.rank.read_slots(bank, row, slots), dtype=np.uint8
                ).reshape(len(pick), -1)
            out += lines.tobytes()
        if tail:
            out += self.read_line(address + length - tail, 0, shuffled)[:tail]
        return bytes(out)

    def write_bytes(self, address: int, data: bytes, shuffled: bool = False) -> None:
        """Write ``data`` starting at ``address`` (may span lines).

        A partial first or last line is a read-modify-write of that
        line; the whole lines between move in one step.
        """
        data = memoryview(data)
        head, count, tail = self._line_split(address, len(data))
        if head:
            self._patch_line(address, data[:head], shuffled)
        if count:
            lines = np.frombuffer(data[head : len(data) - tail], dtype=np.uint8)
            lines = lines.reshape(count, -1)
            groups = self._row_groups(address + head, count, shuffled)
            for bank, row, pick, slots in groups:
                self.rank.write_slots(bank, row, slots, lines[pick])
        if tail:
            self._patch_line(address + len(data) - tail, data[-tail:], shuffled)

    def _line_split(self, address: int, length: int) -> tuple[int, int, int]:
        """(bytes before the first whole line, whole lines, bytes after)."""
        head = min(length, -address % self.line_bytes)
        count, tail = divmod(length - head, self.line_bytes)
        return head, count, tail

    def _patch_line(self, address: int, piece, shuffled: bool) -> None:
        base = self.mapping.line_address(address)
        offset = address - base
        line = bytearray(self.read_line(base, 0, shuffled))
        line[offset : offset + len(piece)] = piece
        self.write_line(base, bytes(line), 0, shuffled)

    def _pattern0_slots(self, columns: np.ndarray, shuffled: bool) -> np.ndarray:
        """``(len(columns), chips)`` storage slots of pattern-0 lines.

        Plain DRAM has no shuffle network, so ``shuffled`` is ignored.
        """
        chips = self.geometry.chips
        return columns[:, None] * chips + np.arange(chips)

    def _row_groups(self, address: int, count: int, shuffled: bool):
        """``(bank, row, line indices, slots)`` per DRAM row that the
        ``count`` whole lines from ``address`` touch."""
        g = self.geometry
        banks, rows, columns, _ = self.mapping.decode_array(
            address + g.line_bytes * np.arange(count, dtype=np.int64)
        )
        keys = banks * g.rows_per_bank + rows
        for key in np.unique(keys).tolist():
            pick = np.flatnonzero(keys == key)
            bank, row = divmod(key, g.rows_per_bank)
            slots = self._pattern0_slots(columns[pick], shuffled)
            yield bank, row, pick, slots.ravel()
