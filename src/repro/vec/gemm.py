"""Vectorized GEMM (fig13 fast path).

:func:`fast_gemm` runs a kernel's own access stream
(:meth:`~repro.gemm.kernels.Kernel.stream`, the arrays the event
machine executes) with no machine:

- the matrices are allocated on a bare
  :class:`~repro.vm.pattmalloc.PattAllocator` with the System's
  geometry, so every address matches the event run;
- :class:`~repro.vec.hier.DirtyReplay` replays the stream for
  stat-exact cache, DBI and DRAM accounting;
- C is recomputed from the stream: each operand load's lanes are read
  at :func:`~repro.vec.kernels.loaded_addresses`, so a bug in the
  address or gather math corrupts the product and fails verification
  against the ``A @ B`` oracle, exactly as in the event path.
"""

from __future__ import annotations

import numpy as np

from repro.cpu.stream import AccessStream
from repro.errors import WorkloadError
from repro.gemm.autotune import GemmRun, gemm_config
from repro.gemm.kernels import LOOP_OVERHEAD, Kernel
from repro.gemm.matrix import ELEM, random_matrix
from repro.sim.config import SystemConfig
from repro.sim.results import StageTimer
from repro.vec.hier import DirtyReplay
from repro.vec.kernels import loaded_addresses
from repro.vm.pattmalloc import PattAllocator

#: Accesses evaluated at a time when recomputing C. A slice's lane and
#: gather arrays take up to about 200 B per access (the GS kernel), so
#: 2**15 keeps the recompute under 7 MB (2**18 took 37 MB).
_SLICE = 1 << 15


def _read(matrix, image: np.ndarray, addresses: np.ndarray) -> np.ndarray:
    """The values of ``image`` (``matrix`` in memory order) at ``addresses``."""
    offsets = addresses - matrix.base
    if offsets.size and (int(offsets.min()) < 0
                         or int(offsets.max()) >= image.size * ELEM
                         or (offsets % ELEM).any()):
        raise WorkloadError("loaded value addresses escaped the matrix")
    return image[offsets // ELEM]


def _product(kernel: Kernel, stream: AccessStream, matrices, values,
             config: SystemConfig) -> np.ndarray:
    """C as the stream computes it, in slices of whole passes.

    A pass ends at its store. Each step loaded ``lanes`` A lanes, then
    ``lanes`` B lanes; their products sum per pass, and the passes sum
    per C cell.
    """
    (a, b, c), (a_vals, b_vals) = matrices, values
    a_image, b_image = a.storage(a_vals), b.storage(b_vals)
    bounds = np.concatenate(([0], np.flatnonzero(stream.writes) + 1)).tolist()
    passes = len(bounds) - 1
    per_slice = max(1, _SLICE // bounds[1])
    product = np.zeros(c.n * c.n, dtype=np.int64)
    for first in range(0, passes, per_slice):
        part = slice(bounds[first], bounds[min(first + per_slice, passes)])
        writes = stream.writes[part]
        # A reload brings back a partial sum; here each pass's sum is
        # added to its C cell instead.
        operands = ~writes & (stream.pcs[part] != kernel.reload_pc)
        counts = stream.sizes[part][operands] // ELEM
        firsts = np.cumsum(counts) - counts
        lanes = (np.repeat(stream.addresses[part][operands], counts)
                 + (np.arange(int(counts.sum())) - np.repeat(firsts, counts))
                 * ELEM)
        loaded = loaded_addresses(
            lanes, np.repeat(stream.patterns[part][operands], counts), config
        ).reshape(-1, 2, kernel.lanes)
        products = (_read(a, a_image, loaded[:, 0])
                    * _read(b, b_image, loaded[:, 1]))
        cells = (stream.addresses[part][writes] - c.base) // ELEM
        np.add.at(product, cells, products.reshape(cells.size, -1).sum(axis=1))
    return product.reshape(c.n, c.n)


def fast_gemm(kernel: Kernel, n: int, tile: int | None, seed: int = 3,
              overrides: dict | None = None) -> GemmRun:
    """Vectorized twin of the event driver behind ``run_naive``,
    ``run_tiled`` and ``run_gs``."""
    timer = StageTimer()
    with timer.stage("setup"):
        config = gemm_config(kernel, overrides)
        geometry = config.geometry
        matrices = kernel.matrices(PattAllocator(
            capacity_bytes=geometry.capacity_bytes,
            line_bytes=geometry.line_bytes,
            row_bytes=geometry.row_bytes,
        ), n)
    with timer.stage("generate"):
        values = random_matrix(n, seed), random_matrix(n, seed + 1)
    with timer.stage("run"):
        stream = kernel.stream(*matrices, tile or n)
        replay = DirtyReplay(config)
        replay.run(stream.line_addresses(geometry.line_bytes), stream.patterns,
                   stream.alts, stream.writes, stream.shuffled)
        # One store per pass; the bookkeeping and the steps' computes
        # are the instructions besides the accesses.
        passes = int(stream.writes.sum())
        steps = (tile or n) // kernel.lanes
        result = replay.collect_result(
            instructions=len(stream) + passes * (
                LOOP_OVERHEAD + steps * kernel.step_computes),
            loads=len(stream) - passes,
            stores=passes,
        )
        replay.attach_session(result)
    with timer.stage("verify"):
        product = _product(kernel, stream, matrices, values, config)
        verified = bool(np.array_equal(product, values[0] @ values[1]))
    timer.attach(result)
    return GemmRun(kernel.label, n, tile, result, verified,
                   replay.component_stats())
