"""Tests for PIM row-group placement (repro.mem.mapping)."""

import pytest

from repro.dram.address import Geometry
from repro.dram.module import DRAMModule
from repro.errors import AllocationError
from repro.mem.mapping import PIMRowGroupPolicy

SMALL = Geometry(chips=8, banks=2, rows_per_bank=8, columns_per_row=16)


def make_module() -> DRAMModule:
    return DRAMModule(geometry=SMALL)


class TestStaticPolicy:
    """The static pattern-ID half of the policy: allocation and
    translation, with nothing reserved."""

    def test_owns_allocator_and_page_table(self):
        policy = PIMRowGroupPolicy(make_module())
        assert policy.allocator.page_table is policy.page_table
        assert policy.allocator.capacity_bytes == SMALL.capacity_bytes

    def test_malloc_translate_roundtrip(self):
        policy = PIMRowGroupPolicy(make_module())
        address = policy.malloc(256)
        paddr, shuffled, pattern = policy.translate(address)
        assert (paddr, shuffled, pattern) == (address, False, 0)

    def test_pattmalloc_records_attributes(self):
        policy = PIMRowGroupPolicy(make_module())
        address = policy.pattmalloc(1024, shuffle=True, pattern=7)
        _, shuffled, pattern = policy.translate(address)
        assert (shuffled, pattern) == (True, 7)

    def test_row_address_locate_roundtrip(self):
        policy = PIMRowGroupPolicy(make_module())
        for bank in range(SMALL.banks):
            for row in range(SMALL.rows_per_bank):
                loc = policy.locate(policy.row_address(bank, row))
                assert (loc.bank, loc.row, loc.column) == (bank, row, 0)


class TestPIMRowGroupPolicy:
    def test_reserves_top_down_ascending(self):
        policy = PIMRowGroupPolicy(make_module())
        assert policy.reserve_row_group(0, 3) == (5, 6, 7)
        assert policy.reserve_row_group(0, 2) == (3, 4)
        assert policy.reserved_rows(0) == 5

    def test_banks_are_independent(self):
        policy = PIMRowGroupPolicy(make_module())
        policy.reserve_row_group(0, 4)
        assert policy.reserve_row_group(1, 2) == (6, 7)
        assert policy.reserved_rows(1) == 2

    def test_count_must_be_positive(self):
        policy = PIMRowGroupPolicy(make_module())
        with pytest.raises(AllocationError):
            policy.reserve_row_group(0, 0)

    def test_bank_exhaustion_raises(self):
        policy = PIMRowGroupPolicy(make_module())
        policy.reserve_row_group(0, 6)
        with pytest.raises(AllocationError):
            policy.reserve_row_group(0, 3)

    def test_reservation_shrinks_allocator_capacity(self):
        module = make_module()
        policy = PIMRowGroupPolicy(module)
        group = policy.reserve_row_group(1, 2)
        boundary = module.mapping.encode(0, group[0], 0)
        assert policy.allocator.capacity_bytes == boundary

    def test_allocations_cannot_reach_reserved_rows(self):
        module = make_module()
        policy = PIMRowGroupPolicy(module)
        policy.reserve_row_group(0, 2)
        boundary = policy.allocator.capacity_bytes
        policy.malloc(boundary)  # exactly up to the fence is fine
        with pytest.raises(AllocationError):
            policy.malloc(module.line_bytes)

    def test_reservation_cannot_overlap_allocated_data(self):
        module = make_module()
        policy = PIMRowGroupPolicy(module)
        policy.malloc(SMALL.capacity_bytes - module.geometry.row_bytes // 2)
        with pytest.raises(AllocationError):
            policy.reserve_row_group(0, 1)

    def test_reservation_keeps_translation_intact(self):
        policy = PIMRowGroupPolicy(make_module())
        address = policy.pattmalloc(512, shuffle=True, pattern=7)
        policy.reserve_row_group(0, 2)
        _, shuffled, pattern = policy.translate(address)
        assert (shuffled, pattern) == (True, 7)
