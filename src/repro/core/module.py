"""The GS-DRAM module: shuffled data mapping + per-chip CTL (Figure 6).

:class:`GSRank` extends the plain rank with one Column Translation
Logic per chip; :class:`GSModule` extends the plain module with the
controller-side data shuffling datapath. Together they implement the
full substrate: a READ with pattern ``p`` and column ``c`` returns a
cache line whose 8-byte values are gathered from per-chip columns
``(chip & p) ^ c``, assembled in ascending row-buffer order; a WRITE
scatters symmetrically.

The *shuffle flag* (Section 4.3) is honoured per access: pages whose
data structures never use strided patterns are stored unshuffled, and
behave exactly like commodity DRAM.
"""

from __future__ import annotations

import numpy as np

from repro.core.ctl import ColumnTranslationLogic, build_ctls
from repro.core.shuffle import LSBShuffle, ShuffleFunction
from repro.dram.address import Geometry, MappingPolicy
from repro.dram.module import DRAMModule
from repro.dram.rank import Rank
from repro.dram.timing import DEFAULT_CPU_PER_BUS, DRAMTiming
from repro.errors import AddressError, PatternError
from repro.utils.bitops import ilog2, mask


class GSRank(Rank):
    """A rank whose chips each own a CTL (Figure 6's CTL-0 .. CTL-3)."""

    def __init__(
        self,
        chips: int,
        banks: int,
        rows_per_bank: int,
        columns_per_row: int,
        column_bytes: int,
        pattern_bits: int,
    ) -> None:
        super().__init__(chips, banks, rows_per_bank, columns_per_row, column_bytes)
        self.pattern_bits = pattern_bits
        self.ctls: list[ColumnTranslationLogic] = build_ctls(chips, pattern_bits)

    def chip_column(self, chip_id: int, column: int, pattern: int) -> int:
        """Per-chip column via the CTL; wraps within the row."""
        translated = self.ctls[chip_id].translate(column, pattern)
        if translated >= self.columns_per_row:
            raise AddressError(
                f"translated column {translated} exceeds row width "
                f"{self.columns_per_row}"
            )
        return translated


class GSModule(DRAMModule):
    """GS-DRAM(c, s, p): a module with shuffling and pattern support.

    Parameters mirror the paper's ``GS-DRAM_{c,s,p}`` notation:
    ``geometry.chips`` is *c*, ``shuffle.stages`` is *s*, and
    ``pattern_bits`` is *p*. The paper's evaluation configuration is
    GS-DRAM(8, 3, 3) — the defaults here.
    """

    def __init__(
        self,
        geometry: Geometry | None = None,
        timing: DRAMTiming | None = None,
        cpu_per_bus: int = DEFAULT_CPU_PER_BUS,
        policy: MappingPolicy = MappingPolicy.ROW_BANK_COLUMN,
        shuffle: ShuffleFunction | None = None,
        pattern_bits: int = 3,
    ) -> None:
        self.pattern_bits = pattern_bits
        self._shuffle_fn: ShuffleFunction | None = shuffle  # read by _build_rank
        self._slots: dict[tuple[int, int, bool], np.ndarray] = {}
        #: shuffled -> (columns_per_row, chips) pattern-0 slot table
        self._row_slots: dict[bool, np.ndarray] = {}
        super().__init__(geometry, timing, cpu_per_bus, policy)
        if shuffle is None:
            shuffle = LSBShuffle(stages=ilog2(self.geometry.chips))
        self.shuffle = shuffle
        if shuffle.stages > ilog2(self.geometry.chips):
            raise PatternError(
                f"{shuffle.stages} shuffle stages exceed log2(chips)="
                f"{ilog2(self.geometry.chips)}"
            )

    def _build_rank(self) -> Rank:
        g = self.geometry
        return GSRank(
            g.chips, g.banks, g.rows_per_bank, g.columns_per_row,
            g.column_bytes, self.pattern_bits,
        )

    @property
    def supports_patterns(self) -> bool:
        return True

    # ------------------------------------------------------------------
    # Gather geometry
    # ------------------------------------------------------------------
    def lane_map(
        self, column: int, pattern: int, shuffled: bool = True
    ) -> list[tuple[int, int, int]]:
        """Per-chip (chip_column, value_index, row_index) for an access.

        ``value_index`` is which logical 8-byte value of pattern-0 line
        ``chip_column`` the chip supplies; ``row_index`` is the global
        8-byte-value index within the logical row buffer
        (``chip_column * chips + value_index``). Entry ``i`` describes
        chip ``i``.
        """
        chips = self.geometry.chips
        rank: GSRank = self.rank  # type: ignore[assignment]
        entries = []
        for chip_id in range(chips):
            chip_column = rank.chip_column(chip_id, column, pattern)
            key = self.shuffle.control_bits(chip_column) if shuffled else 0
            value_index = chip_id ^ key
            entries.append(
                (chip_column, value_index, chip_column * chips + value_index)
            )
        return entries

    def assembly_order(
        self, column: int, pattern: int, shuffled: bool = True
    ) -> list[int]:
        """Chip IDs in the order their lanes appear in the gathered line.

        The controller assembles gathered values in ascending row-buffer
        order, which for stride patterns is the natural gather order and
        for pattern 0 reproduces the original line.
        """
        lanes = self.lane_map(column, pattern, shuffled)
        order = sorted(range(len(lanes)), key=lambda chip: lanes[chip][2])
        row_indices = [lanes[chip][2] for chip in order]
        if len(set(row_indices)) != len(row_indices):
            raise PatternError(
                f"pattern {pattern} at column {column} gathers duplicate values "
                "(insufficient shuffle stages for this pattern)"
            )
        return order

    def gathers_correctly(self, pattern: int) -> bool:
        """True if ``pattern`` gathers its intended value family here.

        The intent of pattern ``p`` is defined by the fully-shuffled
        geometry (:func:`repro.core.pattern.gather_spec`): e.g. pattern
        7 means "stride 8". With fewer shuffle stages, the CTL still
        returns one value per chip, but they are the *wrong* values —
        this check catches that (ablation abl-1 territory).
        """
        from repro.core.pattern import gather_spec

        chips = self.geometry.chips
        try:
            for column in range(min(self.geometry.columns_per_row, 16)):
                actual = sorted(
                    entry[2] for entry in self.lane_map(column, pattern)
                )
                intended = list(gather_spec(chips, pattern, column).indices)
                if actual != intended:
                    return False
                self.assembly_order(column, pattern)
        except PatternError:
            return False
        return True

    def gather_slots(
        self, column: int, pattern: int, shuffled: bool = True
    ) -> np.ndarray:
        """Rank storage slots of an access, in assembly order.

        Slot ``chip_column * chips + chip`` is the column ``chip`` reads
        (see :class:`repro.dram.rank.Rank`). Each table is filled on
        first use from :meth:`lane_map` and :meth:`assembly_order`,
        which stay the one statement of the CTL and shuffle math; a
        lookup that raises there is not cached.
        """
        key = (column, pattern, shuffled)
        slots = self._slots.get(key)
        if slots is None:
            lanes = self.lane_map(column, pattern, shuffled)
            chips = self.geometry.chips
            slots = np.array(
                [lanes[chip][0] * chips + chip
                 for chip in self.assembly_order(column, pattern, shuffled)],
                dtype=np.intp,
            )
            slots.flags.writeable = False
            self._slots[key] = slots
        return slots

    def _pattern0_slots(self, columns: np.ndarray, shuffled: bool) -> np.ndarray:
        table = self._row_slots.get(shuffled)
        if table is None:
            table = np.stack([
                self.gather_slots(column, 0, shuffled)
                for column in range(self.geometry.columns_per_row)
            ])
            table.flags.writeable = False
            self._row_slots[shuffled] = table
        return table[columns]

    # ------------------------------------------------------------------
    # Functional data movement (overrides add shuffle + patterns)
    # ------------------------------------------------------------------
    def read_line(self, address: int, pattern: int = 0, shuffled: bool = True) -> bytes:
        """Read one (possibly gathered) cache line.

        For pattern 0 this unshuffles back to the logical line; for a
        stride pattern the result holds the gathered values in ascending
        address order.
        """
        loc = self.mapping.decode(address)
        if loc.offset != 0:
            raise AddressError(f"line read of unaligned address {address:#x}")
        slots = self.gather_slots(loc.column, pattern, shuffled)
        return self.rank.read_slots(loc.bank, loc.row, slots)

    def write_line(
        self, address: int, data: bytes, pattern: int = 0, shuffled: bool = True
    ) -> None:
        """Write (scatter) one cache line; exact inverse of read_line."""
        loc = self.mapping.decode(address)
        if loc.offset != 0:
            raise AddressError(f"line write of unaligned address {address:#x}")
        if len(data) != self.line_bytes:
            raise AddressError(
                f"line write of {len(data)} bytes, line size is {self.line_bytes}"
            )
        slots = self.gather_slots(loc.column, pattern, shuffled)
        self.rank.write_slots(loc.bank, loc.row, slots, data)

    # Byte spans default to shuffled, like the line accesses above.
    def read_bytes(self, address: int, length: int, shuffled: bool = True) -> bytes:
        return super().read_bytes(address, length, shuffled)

    def write_bytes(self, address: int, data: bytes, shuffled: bool = True) -> None:
        super().write_bytes(address, data, shuffled)

    # ------------------------------------------------------------------
    # Overlap geometry for cache coherence (Section 4.1)
    # ------------------------------------------------------------------
    def constituents(
        self, address: int, pattern: int, shuffled: bool = True
    ) -> list[tuple[int, int]]:
        """(pattern-0 line address, byte offset) per gathered value.

        Entry ``i`` locates the ``i``-th 8-byte value of the gathered
        line within the flat physical address space. Used by the cache
        coherence layer to find overlapping lines of the *other*
        pattern.
        """
        loc = self.mapping.decode(address)
        if loc.offset != 0:
            raise AddressError(f"constituents of unaligned address {address:#x}")
        lanes = self.lane_map(loc.column, pattern, shuffled)
        order = self.assembly_order(loc.column, pattern, shuffled)
        width = self.geometry.column_bytes
        result = []
        for chip_id in order:
            chip_column, value_index, _row_index = lanes[chip_id]
            base = self.mapping.encode(loc.bank, loc.row, chip_column)
            result.append((base, value_index * width))
        return result

    def overlapping_columns(self, column: int, pattern: int) -> set[int]:
        """Columns of pattern-0 lines that share data with this gather."""
        chips = self.geometry.chips
        return {
            (chip_id & pattern) ^ column & mask(self.mapping.column_bits)
            for chip_id in range(chips)
        }
