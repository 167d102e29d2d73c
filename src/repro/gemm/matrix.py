"""Matrices in simulated memory (paper Section 5.2).

Three layouts are used by the GEMM kernels:

- **row-major** — the naive layout for A, C, and the non-tiled B.
- **blocked** — B reorganised into contiguous row-major 8x8 blocks
  (512 bytes = 8 cache lines each). Tiled kernels copy-optimise into
  this layout; it is also what makes GS-DRAM gathers work: the column
  of an 8x8 block is exactly a stride-8 value pattern, i.e. pattern 7.
- **blocked + GS attributes** — the same blocked layout allocated with
  ``pattmalloc(shuffle=True, pattern=7)`` so each block column is one
  gathered cache line.

Values are int64 (small magnitudes), so functional answers are exact
and checked against a numpy oracle.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.sim.system import System

#: Values per block edge: one gathered line covers one block column.
BLOCK = 8
#: Bytes per matrix element.
ELEM = 8


class DenseMatrix:
    """Row-major n x n matrix in simulated memory."""

    def __init__(self, system: System, n: int, shuffle: bool = False,
                 pattern: int = 0) -> None:
        if n % BLOCK != 0:
            raise WorkloadError(f"matrix size {n} must be a multiple of {BLOCK}")
        self.system = system
        self.n = n
        self.base = system.pattmalloc(n * n * ELEM, shuffle=shuffle, pattern=pattern)

    def address(self, row: int, col: int) -> int:
        return self.base + (row * self.n + col) * ELEM

    def load(self, values: np.ndarray) -> None:
        if values.shape != (self.n, self.n):
            raise WorkloadError(f"expected {self.n}x{self.n}, got {values.shape}")
        flat = values.astype("<i8").tobytes()
        self.system.mem_write(self.base, flat)

    def read(self) -> np.ndarray:
        raw = self.system.mem_read(self.base, self.n * self.n * ELEM)
        return np.frombuffer(raw, dtype="<i8").reshape(self.n, self.n).copy()


class BlockedMatrix:
    """n x n matrix stored as contiguous row-major 8x8 blocks.

    Block (bi, bj) occupies 8 consecutive cache lines; element
    (row, col) lives at block (row // 8, col // 8), position
    (row % 8, col % 8).
    """

    def __init__(self, system: System, n: int, gs: bool = False) -> None:
        if n % BLOCK != 0:
            raise WorkloadError(f"matrix size {n} must be a multiple of {BLOCK}")
        self.system = system
        self.n = n
        self.gs = gs
        self.blocks_per_side = n // BLOCK
        pattern = BLOCK - 1 if gs else 0
        self.base = system.pattmalloc(
            n * n * ELEM, shuffle=gs, pattern=pattern
        )
        self.pattern = pattern

    def _block_line(self, block_row: int, block_col: int) -> int:
        """Index of the block's first cache line within the matrix."""
        return (block_row * self.blocks_per_side + block_col) * BLOCK

    def address(self, row: int, col: int) -> int:
        """Element address in the blocked layout."""
        line = self._block_line(row // BLOCK, col // BLOCK) + (row % BLOCK)
        return self.base + line * BLOCK * ELEM + (col % BLOCK) * ELEM

    def gather_address(self, block_row: int, block_col: int, col_in_block: int,
                       position: int) -> int:
        """Address of the ``position``-th value of a block-column gather.

        The gathered cache line for issued column
        ``block_line + col_in_block`` (pattern 7) holds
        ``B[block_row*8 + 0..7][block_col*8 + col_in_block]`` in order.
        """
        if not self.gs:
            raise WorkloadError("gather addressing requires a GS-allocated matrix")
        line = self._block_line(block_row, block_col) + col_in_block
        return self.base + line * BLOCK * ELEM + position * ELEM

    def load(self, values: np.ndarray) -> None:
        if values.shape != (self.n, self.n):
            raise WorkloadError(f"expected {self.n}x{self.n}, got {values.shape}")
        nb = self.blocks_per_side
        # (n, n) -> (nb, BLOCK, nb, BLOCK) -> block-major order: one
        # reshape/transpose replaces the per-block copy loop.
        blocked = (
            values.reshape(nb, BLOCK, nb, BLOCK)
            .transpose(0, 2, 1, 3)
            .astype("<i8")
        )
        self.system.mem_write(self.base, blocked.tobytes())

    def read(self) -> np.ndarray:
        raw = self.system.mem_read(self.base, self.n * self.n * ELEM)
        nb = self.blocks_per_side
        return (
            np.frombuffer(raw, dtype="<i8")
            .reshape(nb, nb, BLOCK, BLOCK)
            .transpose(0, 2, 1, 3)
            .reshape(self.n, self.n)
            .copy()
        )


def random_matrix(n: int, seed: int, low: int = 0, high: int = 16) -> np.ndarray:
    """Small-magnitude random int64 matrix (products stay exact)."""
    rng = np.random.default_rng(seed)
    return rng.integers(low, high, size=(n, n), dtype=np.int64)
