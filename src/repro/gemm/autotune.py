"""GEMM experiment drivers and the best-tiling search (Figure 13).

The paper compares GS-DRAM against the *best-performing tiled version*
("Best Tiling") and normalises both to a non-tiled baseline.
:func:`best_tiled` sweeps tile sizes and keeps the fastest.

Scale note: the paper runs n = 32..1024 against 32 KB L1 / 2 MB L2
caches. A pure-Python cycle-level model cannot execute n = 1024
(2 * n^3 = 2 G operations), so the default experiment scales the
caches down by the same factor as the matrices (4 KB L1 / 256 KB L2,
n = 16..96). The capacity *ratios* that produce the paper's curve —
B outgrowing L1, then L2 pressure — are preserved; this substitution
is documented in DESIGN.md and EXPERIMENTS.md.

Every driver takes ``mode``, and both modes run the kernel's one
access stream (:meth:`~repro.gemm.kernels.Kernel.stream`):
``"event"`` executes it on the cycle-level :class:`System` and checks
the product it stored; ``"fast"`` replays it through the vectorized
engine (:mod:`repro.vec.gemm`) — same cache/DRAM stats,
``cycles == 0``. The equivalence battery (``repro check``) holds the
two paths stat-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.gemm.kernels import GS, NAIVE, TILED, Kernel
from repro.gemm.matrix import random_matrix
from repro.sim.config import (
    SystemConfig,
    plain_dram_config,
    require_gathers_in_row,
    table1_config,
)
from repro.sim.results import RunResult, StageTimer
from repro.sim.system import System
from repro.vec.shim import component_snapshot

#: Cache scaling used by the default GEMM experiments (see module doc).
GEMM_CACHE_OVERRIDES = {"l1_size": 4 * 1024, "l2_size": 256 * 1024}

#: Tile sizes the autotuner sweeps (all multiples of the 8x8 block).
DEFAULT_TILES = (8, 16, 32)


@dataclass
class GemmRun:
    """Outcome of one GEMM kernel execution."""

    kernel: str
    n: int
    tile: int | None
    result: RunResult
    verified: bool
    #: Per-component stat dicts for the equivalence battery; None when
    #: not captured.
    component_stats: dict | None = None

    @property
    def cycles(self) -> int:
        return self.result.cycles

    @property
    def work_proxy(self) -> int:
        """Ordering key that works in both modes.

        Event runs are ranked by cycles; fast runs (``cycles == 0``)
        fall back to DRAM traffic, which tracks the same cache-pressure
        curve the tile sweep is probing.
        """
        return self.cycles or self.result.memory_accesses


def gemm_config(kernel: Kernel, overrides: dict | None) -> SystemConfig:
    """The machine a kernel runs on, in either mode."""
    overrides = overrides or GEMM_CACHE_OVERRIDES
    if kernel.gs:
        return require_gathers_in_row(table1_config(**overrides),
                                      "GS-DRAM GEMM")
    return plain_dram_config(**overrides)


def _run(kernel: Kernel, n: int, tile: int | None, seed: int,
         overrides: dict | None, mode: str) -> GemmRun:
    """One kernel over a single tile of edge n when ``tile`` is None."""
    if mode == "fast":
        from repro.vec.gemm import fast_gemm

        return fast_gemm(kernel, n, tile, seed, overrides)
    if mode != "event":
        raise ConfigError(f"unknown run mode {mode!r}")
    timer = StageTimer()
    with timer.stage("generate"):
        a_vals, b_vals = random_matrix(n, seed), random_matrix(n, seed + 1)
    with timer.stage("setup"):
        system = System(gemm_config(kernel, overrides))
        a, b, c = kernel.matrices(system, n)
        a.load(a_vals)
        b.load(b_vals)
    with timer.stage("run"):
        stream = kernel.stream(a, b, c, tile or n)
        run = system.run([kernel.ops(stream)])
    # Snapshot before c.read(): it drains dirty lines and would perturb
    # the writeback/DBI counters the battery compares.
    stats = component_snapshot(system)
    with timer.stage("verify"):
        verified = bool(np.array_equal(c.read(), a_vals @ b_vals))
    timer.attach(run)
    return GemmRun(kernel.label, n, tile, run, verified, stats)


def run_naive(n: int, seed: int = 3, overrides: dict | None = None,
              mode: str = "event") -> GemmRun:
    """Non-tiled scalar GEMM on commodity DRAM."""
    return _run(NAIVE, n, None, seed, overrides, mode)


def run_tiled(n: int, tile: int, seed: int = 3,
              overrides: dict | None = None, mode: str = "event") -> GemmRun:
    """Tiled SIMD GEMM with software gathers, on commodity DRAM."""
    return _run(TILED, n, tile, seed, overrides, mode)


def run_gs(n: int, tile: int, seed: int = 3,
           overrides: dict | None = None, mode: str = "event") -> GemmRun:
    """Tiled SIMD GEMM with GS-DRAM gathers."""
    return _run(GS, n, tile, seed, overrides, mode)


def best_tiled(n: int, tiles: tuple[int, ...] = DEFAULT_TILES, seed: int = 3,
               overrides: dict | None = None, mode: str = "event") -> GemmRun:
    """The paper's "Best Tiling": fastest tile size for this n."""
    candidates = [
        run_tiled(n, tile, seed, overrides, mode=mode)
        for tile in tiles
        if n % tile == 0
    ]
    best = min(candidates, key=lambda run: run.work_proxy)
    return GemmRun("Best Tiling", n, best.tile, best.result, best.verified,
                   best.component_stats)


def best_gs(n: int, tiles: tuple[int, ...] = DEFAULT_TILES, seed: int = 3,
            overrides: dict | None = None, mode: str = "event") -> GemmRun:
    """GS-DRAM at its best tile size (same sweep as the baseline)."""
    candidates = [
        run_gs(n, tile, seed, overrides, mode=mode)
        for tile in tiles
        if n % tile == 0
    ]
    return min(candidates, key=lambda run: run.work_proxy)
