"""Tests for the MRA+SHIFT aggregate programs (repro.pim.ops)."""

import numpy as np
import pytest

from repro.dram.address import Geometry
from repro.dram.module import DRAMModule
from repro.errors import WorkloadError
from repro.mem.mapping import PIMRowGroupPolicy
from repro.pim.executor import PIMExecutor
from repro.pim.ops import SliceChunk, chunk_values

#: Enough rows for a row group (4*width + 13) at realistic widths.
GEOMETRY = Geometry(chips=8, banks=2, rows_per_bank=512, columns_per_row=16)


def make_chunk(values: np.ndarray, width_in: int):
    module = DRAMModule(geometry=GEOMETRY)
    executor = PIMExecutor(module)
    policy = PIMRowGroupPolicy(module)
    return SliceChunk(executor, policy, 0, values, width_in)


def random_values(count: int, width: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << width, size=count, dtype=np.uint64)


class TestSumReduce:
    @pytest.mark.parametrize("count", [1, 2, 3, 64, 100, 257])
    def test_matches_numpy(self, count):
        values = random_values(count, 12, seed=count)
        chunk = make_chunk(values, width_in=12)
        chunk.sum_reduce()
        total, _ = chunk.read_sum()
        assert total == int(values.sum())

    def test_single_bit_width(self):
        values = np.array([1, 0, 1, 1, 0], dtype=np.uint64)
        chunk = make_chunk(values, width_in=1)
        chunk.sum_reduce()
        assert chunk.read_sum()[0] == 3

    def test_timed_run_same_answer(self):
        values = random_values(40, 8, seed=5)
        chunk = make_chunk(values, width_in=8)
        chunk.sum_reduce()
        assert chunk.read_sum()[0] == int(values.sum())
        assert chunk.ex.cycles > 0


class TestCompareLessThan:
    @pytest.mark.parametrize("count", [5, 64, 100])
    def test_matches_numpy(self, count):
        values = random_values(count, 10, seed=count)
        threshold = int(np.sort(values)[count // 2])
        chunk = make_chunk(values, width_in=10)
        chunk.compare_less_than(threshold)
        matched, raw = chunk.read_mask()
        assert matched == int((values < threshold).sum())
        assert len(raw) == (count + 7) // 8

    def test_threshold_zero_matches_nothing(self):
        values = random_values(16, 6, seed=1)
        chunk = make_chunk(values, width_in=6)
        chunk.compare_less_than(0)
        assert chunk.read_mask()[0] == 0

    def test_negative_threshold_rejected(self):
        chunk = make_chunk(np.ones(4, dtype=np.uint64), width_in=1)
        with pytest.raises(WorkloadError):
            chunk.compare_less_than(-1)

    def test_dead_lanes_do_not_match(self):
        # Dead lanes encode the value 0, which would satisfy `< K` for
        # K > 0; read_mask must slice them off before the popcount.
        values = np.full(3, 7, dtype=np.uint64)
        chunk = make_chunk(values, width_in=3)
        chunk.compare_less_than(8)
        assert chunk.read_mask()[0] == 3


class TestRowGroupFootprint:
    def test_reserves_expected_rows(self):
        values = random_values(10, 4, seed=2)
        module = DRAMModule(geometry=GEOMETRY)
        policy = PIMRowGroupPolicy(module)
        chunk = SliceChunk(PIMExecutor(module), policy, 1,
                           values, 4)
        assert policy.reserved_rows(1) == 4 * chunk.width + 13

    def test_oversized_chunk_rejected(self):
        lanes = GEOMETRY.row_bytes * 8 + 1
        with pytest.raises(WorkloadError):
            make_chunk(np.zeros(lanes, dtype=np.uint64), width_in=1)


class TestChunkValues:
    def test_small_column_is_one_chunk(self):
        values = np.arange(100, dtype=np.uint64)
        chunks = chunk_values(values, banks=8, row_lanes=65536)
        assert len(chunks) == 1
        assert chunks[0][0] == 0
        np.testing.assert_array_equal(chunks[0][1], values)

    def test_round_robin_over_banks(self):
        values = np.arange(3 * 4096, dtype=np.uint64)
        chunks = chunk_values(values, banks=2, row_lanes=4096)
        assert [bank for bank, _ in chunks] == [0, 1, 0]

    def test_chunks_cover_all_values_in_order(self):
        values = np.arange(10000, dtype=np.uint64)
        chunks = chunk_values(values, banks=4, row_lanes=65536)
        joined = np.concatenate([chunk for _, chunk in chunks])
        np.testing.assert_array_equal(joined, values)

    def test_chunks_respect_row_capacity(self):
        values = np.arange(9000, dtype=np.uint64)
        chunks = chunk_values(values, banks=1, row_lanes=8192)
        assert all(chunk.shape[0] <= 8192 for _, chunk in chunks)
        assert len(chunks) == 2

    def test_empty_column_rejected(self):
        with pytest.raises(WorkloadError):
            chunk_values(np.empty(0, dtype=np.uint64), banks=8,
                         row_lanes=65536)
