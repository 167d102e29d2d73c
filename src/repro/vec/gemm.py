"""Vectorized GEMM streams (fig13 fast path, phase 2).

The three kernels in :mod:`repro.gemm.kernels` are deterministic
address generators: given ``n`` and the tile size, every load/store
address (and the per-op instruction accounting) is closed-form. The
fast drivers here assemble those streams as numpy arrays — one
``(i, j, slot)`` block per ``(it, jt, kt)`` tile — and replay them
through :class:`~repro.vec.hier.DirtyReplay` for stat-exact cache and
DRAM accounting, with no simulated machine and no byte movement.

Functional results are *recomputed from the generated addresses*: the
A/B operand matrices are re-gathered by indexing the value arrays with
``(address - base) // 8``, and the GS kernel's B additionally flows
through :func:`~repro.vec.kernels.loaded_addresses`, so a bug in
the address or gather math corrupts the product and fails verification
against the ``A @ B`` oracle, exactly as in the event path.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.gemm.autotune import GEMM_CACHE_OVERRIDES, GemmRun
from repro.gemm.matrix import BLOCK, ELEM, random_matrix
from repro.sim.config import SystemConfig, plain_dram_config, table1_config
from repro.sim.results import StageTimer
from repro.vec.hier import DirtyReplay
from repro.vec.kernels import loaded_addresses
from repro.vm.pattmalloc import PattAllocator

#: SIMD lanes per register, matching repro.gemm.kernels.W.
_W = 2


def _check_shape(n: int, tile: int | None) -> None:
    if n % BLOCK != 0:
        raise WorkloadError(f"matrix size {n} must be a multiple of {BLOCK}")
    if tile is not None and (tile % BLOCK != 0 or n % tile != 0):
        raise WorkloadError(
            f"tile {tile} must be a multiple of {BLOCK} and divide n={n}"
        )


def _alloc(config: SystemConfig, n: int, b_shuffle: bool, b_pattern: int):
    """Replay the drivers' a/b/c allocation order byte-for-byte."""
    geometry = config.geometry
    allocator = PattAllocator(
        capacity_bytes=geometry.capacity_bytes,
        line_bytes=geometry.line_bytes,
        row_bytes=geometry.row_bytes,
    )
    size = n * n * ELEM
    base_a = allocator.pattmalloc(size)
    base_b = allocator.pattmalloc(size, shuffle=b_shuffle, pattern=b_pattern)
    base_c = allocator.pattmalloc(size)
    return base_a, base_b, base_c


def _blocked_addresses(base: int, n: int, rows, cols):
    """Element addresses in the 8x8-blocked layout (BlockedMatrix)."""
    line = ((rows >> 3) * (n >> 3) + (cols >> 3)) * BLOCK + (rows & 7)
    return base + line * BLOCK * ELEM + (cols & 7) * ELEM


def _blocked_storage(b_vals: np.ndarray, n: int) -> np.ndarray:
    """B's storage array (8-byte units) in the blocked layout."""
    r = np.arange(n, dtype=np.int64)[:, None]
    c = np.arange(n, dtype=np.int64)[None, :]
    index = (((r >> 3) * (n >> 3) + (c >> 3)) * BLOCK + (r & 7)) * BLOCK + (
        c & 7
    )
    storage = np.empty(n * n, dtype=np.int64)
    storage[index.reshape(-1)] = b_vals.reshape(-1)
    return storage


def _replay(config, lines, patterns, alts, writes, shuffled,
            *, instructions, loads, stores):
    replay = DirtyReplay(config)
    replay.run(lines, patterns, alts, writes, shuffled)
    result = replay.collect_result(
        instructions=instructions, loads=loads, stores=stores
    )
    replay.attach_session(result)
    return result, replay.component_stats()


def fast_naive(n: int, seed: int = 3, overrides: dict | None = None) -> GemmRun:
    """Vectorized twin of :func:`repro.gemm.autotune.run_naive`."""
    _check_shape(n, None)
    timer = StageTimer()
    with timer.stage("setup"):
        config = plain_dram_config(**(overrides or GEMM_CACHE_OVERRIDES))
        base_a, base_b, base_c = _alloc(config, n, False, 0)
    with timer.stage("generate"):
        a_vals, b_vals = random_matrix(n, seed), random_matrix(n, seed + 1)
    line_mask = ~np.int64(config.geometry.line_bytes - 1)

    with timer.stage("run"):
        idx = np.arange(n, dtype=np.int64)
        a_addr = base_a + (idx[:, None] * n + idx[None, :]) * ELEM  # [i, k]
        b_addr = base_b + (idx[:, None] * n + idx[None, :]) * ELEM  # [k, j]
        c_addr = base_c + (idx[:, None] * n + idx[None, :]) * ELEM  # [i, j]

        # Per (i, j): a(i,0), b(0,j), a(i,1), b(1,j), ..., store c(i,j).
        stream = np.empty((n, n, 2 * n + 1), dtype=np.int64)
        stream[:, :, 0 : 2 * n : 2] = a_addr[:, None, :]
        stream[:, :, 1 : 2 * n : 2] = b_addr.T[None, :, :]
        stream[:, :, 2 * n] = c_addr
        writes = np.zeros(stream.shape, dtype=bool)
        writes[:, :, 2 * n] = True
        lines = stream.reshape(-1) & line_mask
        writes = writes.reshape(-1)
        zeros = np.zeros(lines.size, dtype=np.int64)

    with timer.stage("verify"):
        a_re = a_vals.reshape(-1)[(a_addr - base_a) // ELEM]
        b_re = b_vals.reshape(-1)[(b_addr - base_b) // ELEM]
        computed = a_re @ b_re
        verified = bool(np.array_equal(computed, a_vals @ b_vals))

    with timer.stage("run"):
        result, stats = _replay(
            config, lines, zeros, zeros, writes,
            np.zeros(lines.size, dtype=bool),
            instructions=n * n * (3 * n + 3),
            loads=2 * n * n * n,
            stores=n * n,
        )
    timer.attach(result)
    return GemmRun("Non-tiled", n, None, result, verified, stats)


def _tile_triples(n: int, tile: int) -> tuple[int, int]:
    """(total (i,j,kt) triples, triples with a partial-sum reload)."""
    triples = n * n * (n // tile)
    reloads = n * n * (n // tile - 1)
    return triples, reloads


def fast_tiled(n: int, tile: int, seed: int = 3,
               overrides: dict | None = None) -> GemmRun:
    """Vectorized twin of :func:`repro.gemm.autotune.run_tiled`."""
    _check_shape(n, tile)
    timer = StageTimer()
    with timer.stage("setup"):
        config = plain_dram_config(**(overrides or GEMM_CACHE_OVERRIDES))
        base_a, base_b, base_c = _alloc(config, n, False, 0)
    with timer.stage("generate"):
        a_vals, b_vals = random_matrix(n, seed), random_matrix(n, seed + 1)
    line_mask = ~np.int64(config.geometry.line_bytes - 1)
    steps = tile // _W

    with timer.stage("run"):
        chunks: list[np.ndarray] = []
        write_chunks: list[np.ndarray] = []
        for it in range(0, n, tile):
            i = np.arange(it, it + tile, dtype=np.int64)[:, None, None]
            for jt in range(0, n, tile):
                j = np.arange(jt, jt + tile, dtype=np.int64)[None, :, None]
                c_addr = base_c + (i * n + j) * ELEM  # (tile, tile, 1)
                for kt in range(0, n, tile):
                    col = 0 if kt == 0 else 1
                    width = col + 3 * steps + 1
                    block = np.empty((tile, tile, width), dtype=np.int64)
                    flags = np.zeros((tile, tile, width), dtype=bool)
                    if col:
                        block[:, :, 0:1] = c_addr
                    ks = np.arange(kt, kt + tile, _W, dtype=np.int64)[
                        None, None, :
                    ]
                    end = col + 3 * steps
                    block[:, :, col:end:3] = base_a + (i * n + ks) * ELEM
                    block[:, :, col + 1 : end : 3] = _blocked_addresses(
                        base_b, n, ks, j
                    )
                    block[:, :, col + 2 : end : 3] = _blocked_addresses(
                        base_b, n, ks + 1, j
                    )
                    block[:, :, width - 1 : width] = c_addr
                    flags[:, :, width - 1] = True
                    chunks.append(block.reshape(-1))
                    write_chunks.append(flags.reshape(-1))
        lines = np.concatenate(chunks) & line_mask
        writes = np.concatenate(write_chunks)
        zeros = np.zeros(lines.size, dtype=np.int64)

    with timer.stage("verify"):
        k_grid = np.arange(n, dtype=np.int64)[:, None]
        j_grid = np.arange(n, dtype=np.int64)[None, :]
        b_store = _blocked_storage(b_vals, n)
        b_re = b_store[
            (_blocked_addresses(base_b, n, k_grid, j_grid) - base_b) // ELEM
        ]
        a_addr = base_a + (k_grid * n + j_grid) * ELEM  # [i, k] grid
        a_re = a_vals.reshape(-1)[(a_addr - base_a) // ELEM]
        computed = a_re @ b_re
        verified = bool(np.array_equal(computed, a_vals @ b_vals))

    triples, reloads = _tile_triples(n, tile)
    with timer.stage("run"):
        result, stats = _replay(
            config, lines, zeros, zeros, writes,
            np.zeros(lines.size, dtype=bool),
            instructions=triples * (3 + 5 * steps) + reloads,
            loads=triples * 3 * steps + reloads,
            stores=triples,
        )
    timer.attach(result)
    return GemmRun("Tiled", n, tile, result, verified, stats)


def fast_gs(n: int, tile: int, seed: int = 3,
            overrides: dict | None = None) -> GemmRun:
    """Vectorized twin of :func:`repro.gemm.autotune.run_gs`."""
    _check_shape(n, tile)
    timer = StageTimer()
    with timer.stage("setup"):
        config = table1_config(**(overrides or GEMM_CACHE_OVERRIDES))
        geometry = config.geometry
        pattern = BLOCK - 1
        base_a, base_b, base_c = _alloc(config, n, True, pattern)
    with timer.stage("generate"):
        a_vals, b_vals = random_matrix(n, seed), random_matrix(n, seed + 1)
    line_bytes = geometry.line_bytes
    line_mask = ~np.int64(line_bytes - 1)
    kbs_per_tile = tile // BLOCK
    positions = np.arange(0, BLOCK, _W, dtype=np.int64)  # 4 pattloads/kb

    with timer.stage("run"):
        chunks: list[np.ndarray] = []
        write_chunks: list[np.ndarray] = []
        pattern_chunks: list[np.ndarray] = []
        for it in range(0, n, tile):
            i = np.arange(it, it + tile, dtype=np.int64)[:, None, None]
            for jt in range(0, n, tile):
                j = np.arange(jt, jt + tile, dtype=np.int64)[None, :, None]
                c_addr = base_c + (i * n + j) * ELEM
                for kt in range(0, n, tile):
                    col = 0 if kt == 0 else 1
                    width = col + 2 * positions.size * kbs_per_tile + 1
                    block = np.empty((tile, tile, width), dtype=np.int64)
                    flags = np.zeros((tile, tile, width), dtype=bool)
                    patt = np.zeros((tile, tile, width), dtype=np.int64)
                    if col:
                        block[:, :, 0:1] = c_addr
                    for kb_index, kb in enumerate(
                        range(kt, kt + tile, BLOCK)
                    ):
                        a_slots = col + 2 * positions.size * kb_index + 2 * (
                            np.arange(positions.size)
                        )
                        block[:, :, a_slots] = base_a + (
                            i * n + (kb + positions)[None, None, :]
                        ) * ELEM
                        # One gathered line per (block row, column j): its
                        # four pattloads all hit the same (line, pattern).
                        g_line = (
                            (kb // BLOCK) * (n // BLOCK) + (j >> 3)
                        ) * BLOCK + (j & 7)
                        block[:, :, a_slots + 1] = base_b + g_line * line_bytes
                        patt[:, :, a_slots + 1] = pattern
                    block[:, :, width - 1 : width] = c_addr
                    flags[:, :, width - 1] = True
                    chunks.append(block.reshape(-1))
                    write_chunks.append(flags.reshape(-1))
                    pattern_chunks.append(patt.reshape(-1))
        lines = np.concatenate(chunks) & line_mask
        writes = np.concatenate(write_chunks)
        patterns = np.concatenate(pattern_chunks)
        shuffled = patterns != 0  # only B's pages are shuffle-allocated

    with timer.stage("verify"):
        # Recover B through the gather machinery over every line of the
        # blocked allocation, then place the gathered values where the
        # kernel's SIMD loop consumes them.
        b_store = _blocked_storage(b_vals, n)
        blocks_per_side = n // BLOCK
        total_lines = n * n // BLOCK
        line_index = np.arange(total_lines, dtype=np.int64)
        accesses = (base_b + line_index[:, None] * line_bytes
                    + np.arange(BLOCK, dtype=np.int64)[None, :] * ELEM)
        source = loaded_addresses(
            accesses.reshape(-1), pattern, config
        ).reshape(total_lines, BLOCK) - base_b
        if source.size and (
            int(source.min()) < 0
            or int(source.max()) >= n * n * ELEM
            or (source % ELEM).any()
        ):
            raise WorkloadError("gathered value addresses escaped the matrix")
        gathered = b_store[source // ELEM]  # (lines, 8) in position order
        block_row = line_index // (BLOCK * blocks_per_side)
        remainder = line_index % (BLOCK * blocks_per_side)
        block_col = remainder // BLOCK
        col_in_block = remainder % BLOCK
        b_eff = np.empty((n, n), dtype=np.int64)
        rows_idx = block_row[:, None] * BLOCK + np.arange(BLOCK)[None, :]
        cols_idx = np.broadcast_to(
            (block_col * BLOCK + col_in_block)[:, None], rows_idx.shape
        )
        b_eff[rows_idx, cols_idx] = gathered

        computed = a_vals @ b_eff
        verified = bool(np.array_equal(computed, a_vals @ b_vals))

    triples, reloads = _tile_triples(n, tile)
    per_triple_loads = 2 * positions.size * kbs_per_tile
    with timer.stage("run"):
        result, stats = _replay(
            config, lines, patterns, patterns, writes, shuffled,
            instructions=(
                triples * (3 + 3 * positions.size * kbs_per_tile) + reloads
            ),
            loads=triples * per_triple_loads + reloads,
            stores=triples,
        )
    timer.attach(result)
    return GemmRun("GS-DRAM", n, tile, result, verified, stats)
