"""Row-group placement for in-DRAM compute.

MRA operands must share a bank (see docs/INDRAM.md), so the PIM
executor needs to *place* rows, not just hand out addresses.
:class:`PIMRowGroupPolicy` owns one module's page table and
``pattmalloc`` allocator and carves same-bank *row groups* top-down
from the highest rows while the bump allocator grows bottom-up; the
allocator's capacity is shrunk past each reservation so the two can
never meet.
"""

from __future__ import annotations

from repro.errors import AllocationError
from repro.vm.pattmalloc import PattAllocator


class PIMRowGroupPolicy:
    """Static pattern-ID mapping plus top-down per-bank row-group
    reservation."""

    def __init__(self, module) -> None:
        self.module = module
        self.allocator = PattAllocator(
            capacity_bytes=module.geometry.capacity_bytes,
            line_bytes=module.line_bytes,
            row_bytes=module.geometry.row_bytes,
        )
        self.page_table = self.allocator.page_table
        rows = module.geometry.rows_per_bank
        #: Next unreserved row per bank, counting down from the top.
        self._next_free_row = {
            bank: rows for bank in range(module.geometry.banks)
        }

    # -- allocation --------------------------------------------------
    def pattmalloc(self, size: int, shuffle: bool = False,
                   pattern: int = 0) -> int:
        """Allocate with GS attributes (Section 4.3's ``pattmalloc``)."""
        return self.allocator.pattmalloc(size, shuffle=shuffle, pattern=pattern)

    def malloc(self, size: int) -> int:
        """Plain allocation: no shuffling, pattern 0 only."""
        return self.allocator.malloc(size)

    # -- translation -------------------------------------------------
    def translate(self, address: int):
        """Virtual -> (physical, shuffled, alt_pattern); identity paddr."""
        return self.page_table.translate(address)

    def locate(self, address: int):
        """Physical address -> :class:`~repro.dram.address.DecodedAddress`."""
        return self.module.mapping.decode(address)

    def row_address(self, bank: int, row: int) -> int:
        """Physical address of the first byte of ``(bank, row)``."""
        return self.module.mapping.encode(bank, row, 0)

    # -- placement ---------------------------------------------------
    def reserved_rows(self, bank: int) -> int:
        """How many rows of ``bank`` are reserved for compute."""
        return self.module.geometry.rows_per_bank - self._next_free_row[bank]

    def reserve_row_group(self, bank: int, count: int) -> tuple[int, ...]:
        """Carve ``count`` rows off the top of ``bank``; returns them
        in ascending row order.

        Reservation shrinks the bump allocator's capacity to the lowest
        physical address any reserved row can map to, so ordinary
        allocations can never grow into compute-owned rows (checked
        both ways: a reservation that would dip below already-allocated
        space raises).
        """
        if count <= 0:
            raise AllocationError(f"cannot reserve {count} rows")
        top = self._next_free_row[bank]
        floor = top - count
        if floor < 0:
            raise AllocationError(
                f"bank {bank}: no room for {count} more PIM rows "
                f"({self.reserved_rows(bank)} already reserved)"
            )
        # The lowest address a reserved row can occupy, over any bank
        # and either bit-split policy, is (bank 0, row floor, column 0).
        boundary = self.module.mapping.encode(0, floor, 0)
        if self.allocator.used_bytes > boundary:
            raise AllocationError(
                f"bank {bank}: PIM row group would overlap allocated data "
                f"(boundary {boundary:#x}, used {self.allocator.used_bytes:#x})"
            )
        self.allocator.capacity_bytes = min(
            self.allocator.capacity_bytes, boundary
        )
        self._next_free_row[bank] = floor
        return tuple(range(floor, top))
