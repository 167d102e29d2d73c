"""Tests for the flat functional oracle (repro.check.oracle).

The oracle re-derives the gather semantics from the paper's closed
forms, independently of the production shuffle/CTL machinery. These
tests check the oracle against itself (round-trips, bijectivity) and
against the production :class:`GSModule` — two independent derivations
of Sections 3.2/3.3/3.5 agreeing on every (pattern, column) pair.
"""

import tracemalloc

import pytest

from repro.check.oracle import MemoryOracle
from repro.core.pattern import gather_spec
from repro.dram.address import Geometry
from repro.errors import AddressError, PatternError
from repro.sim.config import plain_dram_config, table1_config


def small_oracle(chips=8, **overrides) -> MemoryOracle:
    kwargs = dict(
        chips=chips, banks=2, rows_per_bank=8, columns_per_row=16
    )
    kwargs.update(overrides)
    return MemoryOracle(**kwargs)


class TestRawAccess:
    def test_write_read_round_trip(self):
        oracle = small_oracle()
        payload = bytes(range(64))
        oracle.write(128, payload)
        assert oracle.read(128, 64) == payload

    def test_memory_starts_zeroed(self):
        oracle = small_oracle()
        assert oracle.read(0, 32) == bytes(32)

    def test_out_of_range_rejected(self):
        oracle = small_oracle()
        with pytest.raises(AddressError):
            oracle.read(oracle.capacity_bytes - 4, 8)
        with pytest.raises(AddressError):
            oracle.write(-1, b"x")


class TestPatternZero:
    def test_load_is_flat_read(self):
        oracle = small_oracle()
        oracle.write(0, bytes(range(64)))
        assert oracle.load(8, size=8) == bytes(range(8, 16))
        assert oracle.load(3, size=2) == bytes([3, 4])

    def test_store_is_flat_write(self):
        oracle = small_oracle()
        oracle.store(16, b"\x01\x02\x03\x04")
        assert oracle.read(16, 4) == b"\x01\x02\x03\x04"

    def test_line_crossing_access_rejected(self):
        oracle = small_oracle()
        with pytest.raises(AddressError):
            oracle.load(oracle.line_bytes - 4, size=8)


class TestArchitecturalRange:
    """``load`` and ``store`` reject what ``read``/``write`` and the
    machine reject, before logging or writing anything."""

    @pytest.mark.parametrize("kind", ["load", "store"])
    @pytest.mark.parametrize("where", ["below", "at_capacity"])
    def test_outside_memory_rejected(self, kind, where):
        oracle = small_oracle()
        top = oracle.capacity_bytes - 8
        oracle.write(top, b"ABCDEFGH")
        image = oracle.read(0, oracle.capacity_bytes)
        address = -8 if where == "below" else oracle.capacity_bytes
        with pytest.raises(AddressError):
            if kind == "load":
                oracle.load(address)
            else:
                oracle.store(address, b"12345678")
        assert oracle.log == []
        assert oracle.read(0, oracle.capacity_bytes) == image

    @pytest.mark.parametrize("address", [-64, "capacity"])
    def test_gathered_store_outside_memory_rejected(self, address):
        oracle = small_oracle()
        if address == "capacity":
            address = oracle.capacity_bytes
        image = oracle.read(0, oracle.capacity_bytes)
        with pytest.raises(AddressError):
            oracle.store(address, bytes(range(64)), pattern=7, shuffled=True)
        assert oracle.log == []
        assert oracle.read(0, oracle.capacity_bytes) == image


class TestGatherGeometry:
    @pytest.mark.parametrize("chips", [2, 4, 8, 16])
    def test_gather_matches_analytical_spec(self, chips):
        """gather_addresses must gather gather_spec's index family."""
        oracle = small_oracle(chips=chips)
        value = oracle.column_bytes
        row_bytes = oracle.columns_per_row * oracle.line_bytes
        for pattern in range(1 << oracle.pattern_bits):
            for column in range(oracle.columns_per_row):
                line = column * oracle.line_bytes  # bank 0, row 0
                addresses = oracle.gather_addresses(line, pattern)
                assert len(addresses) == chips
                assert addresses == sorted(addresses)
                assert all(0 <= a < row_bytes and a % value == 0
                           for a in addresses)
                indices = [a // value for a in addresses]
                assert indices == list(gather_spec(chips, pattern, column).indices)

    def test_rows_partition_under_any_pattern(self):
        """Sweeping all columns with one pattern covers the row once."""
        oracle = small_oracle()
        for pattern in range(1 << oracle.pattern_bits):
            seen = []
            for column in range(oracle.columns_per_row):
                seen.extend(
                    oracle.gather_addresses(column * oracle.line_bytes, pattern)
                )
            assert len(seen) == len(set(seen))
            assert len(seen) == oracle.columns_per_row * oracle.chips

    def test_pattern_out_of_range_rejected(self):
        oracle = small_oracle(pattern_bits=3)
        with pytest.raises(PatternError):
            oracle.gather_addresses(0, 8)


class TestGatherScatterInverse:
    @pytest.mark.parametrize("chips", [2, 4, 8, 16])
    def test_store_then_load_round_trips(self, chips):
        oracle = small_oracle(chips=chips)
        for pattern in range(1, 1 << oracle.pattern_bits):
            payload = bytes((pattern * 37 + i) & 0xFF
                            for i in range(oracle.line_bytes))
            line = 2 * oracle.line_bytes
            oracle.store(line, payload, pattern=pattern, shuffled=True)
            assert oracle.load(
                line, oracle.line_bytes, pattern=pattern, shuffled=True
            ) == payload

    def test_scatter_lands_on_gathered_slots(self):
        """A pattstore's bytes appear exactly at gather_addresses."""
        oracle = small_oracle()
        pattern = (1 << oracle.pattern_bits) - 1  # stride-chips gather
        line = 3 * oracle.line_bytes
        payload = bytes(range(oracle.line_bytes))
        oracle.store(line, payload, pattern=pattern, shuffled=True)
        for slot, address in enumerate(oracle.gather_addresses(line, pattern)):
            value = payload[slot * oracle.column_bytes:(slot + 1) * oracle.column_bytes]
            assert oracle.read(address, oracle.column_bytes) == value

    def test_unshuffled_access_ignores_pattern(self):
        """Unshuffled pages behave like commodity DRAM (Section 4.3)."""
        oracle = small_oracle()
        oracle.write(0, bytes(range(64)))
        assert oracle.load(0, 64, pattern=5, shuffled=False) == bytes(range(64))


class TestAgainstProductionModule:
    """Two independent derivations of the paper must agree."""

    @pytest.mark.parametrize("chips", [2, 4, 8])
    def test_gathered_lines_match_gsmodule(self, chips):
        from repro.core.module import GSModule

        geometry = Geometry(
            chips=chips, banks=2, rows_per_bank=8, columns_per_row=16
        )
        module = GSModule(geometry=geometry, pattern_bits=max(1, chips.bit_length() - 1))
        oracle = small_oracle(chips=chips)
        # Seed both with the same logical (pattern-0) image.
        for column in range(geometry.columns_per_row):
            line = column * geometry.line_bytes
            data = bytes((column * 31 + i) & 0xFF
                         for i in range(geometry.line_bytes))
            module.write_line(line, data, pattern=0, shuffled=True)
            oracle.write(line, data)
        for pattern in range(1 << module.pattern_bits):
            for column in range(geometry.columns_per_row):
                line = column * geometry.line_bytes
                assert oracle.load(
                    line, geometry.line_bytes, pattern=pattern, shuffled=True
                ) == module.read_line(line, pattern=pattern, shuffled=True)


class TestFromConfig:
    def test_gs_config_carries_pattern_support(self):
        oracle = MemoryOracle.from_config(table1_config())
        assert oracle.pattern_bits > 0
        assert oracle.shuffle_stages > 0

    def test_plain_config_disables_patterns(self):
        oracle = MemoryOracle.from_config(plain_dram_config())
        assert oracle.pattern_bits == 0
        with pytest.raises(PatternError):
            oracle.gather_addresses(0, 1)

    def test_gather_addresses_allocate_no_memory(self):
        # The flat byte array (256 MB at Table 1) waits for the first
        # load, store, read or write.
        tracemalloc.start()
        try:
            oracle = MemoryOracle.from_config(table1_config())
            oracle.gather_addresses(3 * 64, 7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert oracle.read(oracle.capacity_bytes - 8, 8) == bytes(8)
