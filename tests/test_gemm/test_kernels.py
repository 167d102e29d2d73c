"""Tests for the GEMM kernels and autotuner (small sizes)."""

from collections import Counter

import pytest

from repro.check.oracle import MemoryOracle
from repro.dram.address import MappingPolicy
from repro.errors import ConfigError
from repro.gemm.autotune import (
    best_gs,
    best_tiled,
    gemm_config,
    run_gs,
    run_naive,
    run_tiled,
)
from repro.gemm.kernels import GS, NAIVE, TILED
from repro.vm.pattmalloc import PattAllocator

N = 16


class TestFunctionalCorrectness:
    def test_naive(self):
        assert run_naive(N).verified

    def test_tiled(self):
        assert run_tiled(N, tile=8).verified
        assert run_tiled(N, tile=16).verified

    def test_gs(self):
        assert run_gs(N, tile=8).verified
        assert run_gs(N, tile=16).verified


class TestPerformanceShape:
    def test_gs_beats_tiled_at_same_tile(self):
        tiled = run_tiled(N, tile=8)
        gs = run_gs(N, tile=8)
        assert gs.cycles < tiled.cycles

    def test_tiled_beats_naive_at_32(self):
        naive = run_naive(32)
        tiled = best_tiled(32)
        assert tiled.cycles < naive.cycles

    def test_gs_uses_fewer_instructions(self):
        # No software gather: fewer loads + no pack ops.
        tiled = run_tiled(N, tile=8)
        gs = run_gs(N, tile=8)
        assert gs.result.instructions < tiled.result.instructions

    def test_gs_loads_halved_for_b(self):
        tiled = run_tiled(N, tile=8)
        gs = run_gs(N, tile=8)
        # Tiled: per 2 k-values -> 1 A load + 2 B loads = 3 loads.
        # GS: 1 A load + 1 pattload = 2 loads.
        assert gs.result.loads < tiled.result.loads


class TestAutotune:
    def test_best_tiled_picks_minimum(self):
        candidates = {tile: run_tiled(N, tile).cycles for tile in (8, 16)}
        best = best_tiled(N, tiles=(8, 16))
        assert best.cycles == min(candidates.values())
        assert best.kernel == "Best Tiling"

    def test_best_tiled_skips_non_dividing_tiles(self):
        best = best_tiled(N, tiles=(8, 16, 32))  # 32 does not divide 16
        assert best.tile in (8, 16)

    def test_best_gs(self):
        best = best_gs(N, tiles=(8, 16))
        assert best.kernel == "GS-DRAM"
        assert best.verified


class TestGatherMapping:
    @pytest.mark.parametrize("mode", ["event", "fast"])
    def test_gs_needs_row_bank_column(self, mode):
        # Bank interleaving spreads an 8x8 block's lines over banks, so a
        # block-column gather would return values of other blocks.
        with pytest.raises(ConfigError, match="mapping_policy"):
            run_gs(16, 8, mode=mode, overrides={
                "mapping_policy": MappingPolicy.BANK_INTERLEAVED,
            })


@pytest.fixture(scope="module")
def gs_oracle():
    """The scalar gather reference for the GS kernel's machine."""
    return MemoryOracle.from_config(gemm_config(GS, None))


class TestStream:
    """Each kernel's one access stream, read back with scalar references.

    Both substrates run this stream, so only a check that trusts
    neither can see a wrong transpose: every lane is mapped to a matrix
    element with the oracle's gather map (pattloads) or its own address,
    and an independent inverse of each layout.
    """

    @staticmethod
    def _element(matrices, blocked, address):
        """(name, row, col) of the element stored at ``address``."""
        for name, matrix in zip("ABC", matrices):
            n = matrix.n
            slot, rest = divmod(address - matrix.base, 8)
            if rest or not 0 <= slot < n * n:
                continue
            if name == "B" and blocked:
                line, col = divmod(slot, 8)
                block, row = divmod(line, 8)
                block_row, block_col = divmod(block, n // 8)
                return name, 8 * block_row + row, 8 * block_col + col
            return (name, *divmod(slot, n))
        raise AssertionError(f"address {address:#x} is in no matrix")

    @pytest.mark.parametrize("variant, n, tile", [
        ("naive", 16, None), ("tiled", 16, 8), ("tiled", 16, 16),
        ("gs", 16, 8), ("gs", 16, 16), ("naive", 24, None), ("tiled", 24, 8),
        ("gs", 24, 8),
    ])
    def test_passes_multiply_the_right_elements(self, variant, n, tile,
                                                gs_oracle):
        kernel = {"naive": NAIVE, "tiled": TILED, "gs": GS}[variant]
        geometry = gemm_config(kernel, None).geometry
        matrices = kernel.matrices(PattAllocator(
            capacity_bytes=geometry.capacity_bytes,
            line_bytes=geometry.line_bytes,
            row_bytes=geometry.row_bytes,
        ), n)
        stream = kernel.stream(*matrices, tile or n)
        tile = tile or n
        lanes = kernel.lanes

        def element(address):
            return self._element(matrices, kernel.blocked, address)

        def lane_elements(address, pattern, size):
            if pattern:
                line = address & ~(geometry.line_bytes - 1)
                first = (address - line) // 8
                slots = gs_oracle.gather_addresses(line, pattern)
                values = slots[first:first + size // 8]
            else:
                values = range(address, address + size, 8)
            return [element(value) for value in values]

        accesses = list(zip(stream.addresses.tolist(),
                            stream.patterns.tolist(), stream.sizes.tolist(),
                            stream.writes.tolist()))
        passes_done = Counter()
        products = Counter()
        start = 0
        for end in (i + 1 for i, access in enumerate(accesses) if access[3]):
            *loads, (store, _, store_size, _) = accesses[start:end]
            start = end
            _, i, j = element(store)
            assert element(store)[0] == "C" and store_size == 8
            kt = passes_done[i, j]
            passes_done[i, j] += 1
            # The first pass of a cell starts from zero; the others
            # reload the partial sum the previous pass stored.
            reloaded = element(loads[0][0]) == ("C", i, j)
            assert reloaded == (kt > 0)
            if reloaded:
                assert loads[0][1:3] == (0, 8)
                loads = loads[1:]
            for address, pattern, size, write in loads:
                assert not write
                if pattern or element(address)[0] == "A":
                    assert size == 8 * lanes  # SIMD register loads
            ks = range(kt * tile, (kt + 1) * tile)
            expected = []
            for step in range(0, tile, lanes):
                step_ks = ks[step:step + lanes]
                expected += [("A", i, k) for k in step_ks]
                expected += [("B", k, j) for k in step_ks]
            got = [lane for access in loads for lane in lane_elements(*access[:3])]
            assert got == expected
            products.update((i, j, k) for k in ks)
        assert start == len(accesses)
        assert set(passes_done.values()) == {n // tile}
        assert len(products) == n ** 3 and set(products.values()) == {1}
