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

A matrix allocates through a :class:`System` or through the bare
:class:`PattAllocator` a System wraps, as
:meth:`repro.db.layouts.StorageLayout.attach` does: the fast path builds
no machine but places the matrices at the same addresses. The address
arithmetic is written once, over arrays; the scalar forms wrap it.

Values are int64 (small magnitudes), so functional answers are exact
and checked against a numpy oracle.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.sim.system import System
from repro.vm.pattmalloc import PattAllocator

#: Values per block edge: one gathered line covers one block column.
BLOCK = 8
#: Bytes per matrix element.
ELEM = 8


class _Matrix:
    """An n x n int64 matrix in simulated memory; a subclass lays it out."""

    #: Alternate pattern of the allocation's pages; non-zero shuffles them.
    pattern = 0

    def __init__(self, memory: System | PattAllocator, n: int) -> None:
        if n % BLOCK != 0:
            raise WorkloadError(f"matrix size {n} must be a multiple of {BLOCK}")
        self.system = memory if isinstance(memory, System) else None
        self.n = n
        self.shuffled = self.pattern != 0
        self.base = memory.pattmalloc(n * n * ELEM, shuffle=self.shuffled,
                                      pattern=self.pattern)

    def addresses(self, rows, cols) -> np.ndarray:
        """Byte address of each (row, col) element; arrays broadcast."""
        raise NotImplementedError

    def address(self, row: int, col: int) -> int:
        return int(self.addresses(row, col))

    def storage(self, values: np.ndarray) -> np.ndarray:
        """``values`` in memory order, one int64 per 8-byte slot."""
        if values.shape != (self.n, self.n):
            raise WorkloadError(f"expected {self.n}x{self.n}, got {values.shape}")
        return values.reshape(-1)

    def load(self, values: np.ndarray) -> None:
        self._require_system().mem_write(
            self.base, self.storage(values).astype("<i8").tobytes()
        )

    def read(self) -> np.ndarray:
        raw = self._require_system().mem_read(self.base, self.n * self.n * ELEM)
        values = np.empty(self.n * self.n, dtype=np.int64)
        # Memory slot m holds the element whose flat index is order[m].
        order = self.storage(np.arange(values.size).reshape(self.n, self.n))
        values[order] = np.frombuffer(raw, dtype="<i8")
        return values.reshape(self.n, self.n)

    def _require_system(self) -> System:
        if self.system is None:
            raise WorkloadError("allocate through a System to move data")
        return self.system


class DenseMatrix(_Matrix):
    """Row-major n x n matrix in simulated memory."""

    def addresses(self, rows, cols) -> np.ndarray:
        return self.base + (np.asarray(rows, dtype=np.int64) * self.n
                            + cols) * ELEM


class BlockedMatrix(_Matrix):
    """n x n matrix stored as contiguous row-major 8x8 blocks.

    Block (bi, bj) occupies 8 consecutive cache lines; element
    (row, col) lives at block (row // 8, col // 8), position
    (row % 8, col % 8).
    """

    def __init__(self, memory: System | PattAllocator, n: int,
                 gs: bool = False) -> None:
        self.gs = gs
        self.pattern = BLOCK - 1 if gs else 0
        super().__init__(memory, n)
        self.blocks_per_side = n // BLOCK

    def _line_addresses(self, block_rows, block_cols, lines_in_block):
        """Address of line ``lines_in_block`` of each block."""
        block = (np.asarray(block_rows, dtype=np.int64) * self.blocks_per_side
                 + block_cols)
        return self.base + (block * BLOCK + lines_in_block) * BLOCK * ELEM

    def addresses(self, rows, cols) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        return (self._line_addresses(rows >> 3, cols >> 3, rows & 7)
                + (cols & 7) * ELEM)

    def gather_addresses(self, block_rows, block_cols, cols_in_block,
                         positions) -> np.ndarray:
        """Address of each ``position``-th value of a block-column gather.

        The gathered cache line for issued column
        ``block_line + col_in_block`` (pattern 7) holds
        ``B[block_row*8 + 0..7][block_col*8 + col_in_block]`` in order.
        """
        if not self.gs:
            raise WorkloadError("gather addressing requires a GS-allocated matrix")
        return (self._line_addresses(block_rows, block_cols, cols_in_block)
                + np.asarray(positions, dtype=np.int64) * ELEM)

    def gather_address(self, block_row: int, block_col: int, col_in_block: int,
                       position: int) -> int:
        return int(self.gather_addresses(block_row, block_col, col_in_block,
                                         position))

    def storage(self, values: np.ndarray) -> np.ndarray:
        # (n, n) -> (nb, BLOCK, nb, BLOCK) -> block-major order.
        nb = self.blocks_per_side
        return (super().storage(values).reshape(nb, BLOCK, nb, BLOCK)
                .transpose(0, 2, 1, 3).reshape(-1))


def random_matrix(n: int, seed: int, low: int = 0, high: int = 16) -> np.ndarray:
    """Small-magnitude random int64 matrix (products stay exact)."""
    rng = np.random.default_rng(seed)
    return rng.integers(low, high, size=(n, n), dtype=np.int64)
