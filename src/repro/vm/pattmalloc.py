"""``pattmalloc``: allocation with GS-DRAM attributes (Section 4.3).

``pattmalloc(size, shuffle, pattern)`` allocates memory whose pages
carry the shuffle flag and the alternate pattern ID. The allocator is a
bump allocator over the module's physical space with alignment rules
that keep pattern groups intact:

- ordinary allocations align to the cache line;
- shuffled allocations align to the DRAM row, so that a structure's
  column IDs start at 0 within its rows and gathered groups of
  ``stride`` lines never straddle a row boundary (the shuffle is
  defined within a row buffer, Section 3.2).
"""

from __future__ import annotations

from repro.errors import AllocationError, PatternError
from repro.vm.page_table import PageInfo, PageTable


class PattAllocator:
    """Bump allocator + page-table metadata recorder."""

    def __init__(
        self,
        capacity_bytes: int,
        line_bytes: int = 64,
        row_bytes: int = 8192,
        page_table: PageTable | None = None,
        base: int = 0,
    ) -> None:
        self.capacity_bytes = capacity_bytes
        self.line_bytes = line_bytes
        self.row_bytes = row_bytes
        self.page_table = page_table or PageTable()
        self._next = base
        self.allocations: list[tuple[int, int, PageInfo]] = []

    def _align(self, value: int, alignment: int) -> int:
        return (value + alignment - 1) & ~(alignment - 1)

    def pattmalloc(self, size: int, shuffle: bool = False, pattern: int = 0) -> int:
        """Allocate ``size`` bytes; returns the base address.

        ``pattern`` is the alternate pattern ID the structure will be
        accessed with (e.g. 7 for stride-8 field gathers); ``shuffle``
        enables the controller's data shuffling for these pages.
        """
        if size <= 0:
            raise AllocationError(f"cannot allocate {size} bytes")
        if pattern != 0 and not shuffle:
            raise PatternError(
                "a non-zero alternate pattern requires the shuffle flag "
                "(gathers on unshuffled data return garbage)"
            )
        alignment = self.row_bytes if shuffle else self.line_bytes
        # Pattern-using structures also get page-granular isolation so
        # per-page attributes never conflict between structures.
        alignment = max(alignment, self.page_table.page_bytes if shuffle else alignment)
        start = self._align(self._next, alignment)
        end = start + size
        if end > self.capacity_bytes:
            raise AllocationError(
                f"out of simulated memory: need {size} bytes at {start:#x}, "
                f"capacity {self.capacity_bytes:#x}"
            )
        # Round the reserved region to page granularity when attributes
        # are non-default, so neighbours can't share an attributed page.
        info = PageInfo(shuffled=shuffle, alt_pattern=pattern)
        if shuffle or pattern:
            reserved_end = self._align(end, self.page_table.page_bytes)
        else:
            reserved_end = end
        self._next = reserved_end
        self.page_table.map_range(start, reserved_end - start, info)
        self.allocations.append((start, size, info))
        return start

    def malloc(self, size: int) -> int:
        """Plain allocation: no shuffling, pattern 0 only."""
        return self.pattmalloc(size, shuffle=False, pattern=0)

    @property
    def used_bytes(self) -> int:
        return self._next

    def remaining_bytes(self) -> int:
        return self.capacity_bytes - self._next
