"""GEMM application (paper Section 5.2)."""

from repro.gemm.autotune import (
    DEFAULT_TILES,
    GEMM_CACHE_OVERRIDES,
    GemmRun,
    best_gs,
    best_tiled,
    run_gs,
    run_naive,
    run_tiled,
)
from repro.gemm.matrix import BLOCK, BlockedMatrix, DenseMatrix, random_matrix

__all__ = [
    "BLOCK",
    "BlockedMatrix",
    "DEFAULT_TILES",
    "DenseMatrix",
    "GEMM_CACHE_OVERRIDES",
    "GemmRun",
    "best_gs",
    "best_tiled",
    "random_matrix",
    "run_gs",
    "run_naive",
    "run_tiled",
]
