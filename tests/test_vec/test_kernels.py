"""Vectorized kernels vs their scalar reference implementations.

Every kernel in :mod:`repro.vec.kernels` has a scalar form elsewhere in
the tree; these tests replay both over dense grids and seeded random
batches and require element-wise agreement.
"""

import numpy as np
import pytest

from repro.check.oracle import MemoryOracle
from repro.core.ctl import ColumnTranslationLogic
from repro.dram.address import AddressMapping, Geometry, MappingPolicy
from repro.errors import AddressError, PatternError
from repro.sim.config import table1_config
from repro.utils import bitops
from repro.vec import kernels


class TestCTLKernels:
    @pytest.mark.parametrize(
        "num_chips,pattern_bits", [(8, 3), (4, 2), (8, 6), (2, 1)]
    )
    def test_effective_ids_match_ctl(self, num_chips, pattern_bits):
        expected = [
            ColumnTranslationLogic(c, num_chips, pattern_bits).effective_chip_id
            for c in range(num_chips)
        ]
        computed = kernels.effective_chip_ids(
            np.arange(num_chips), bitops.ilog2(num_chips), pattern_bits
        )
        assert computed.tolist() == expected

    def test_translate_matches_ctl_grid(self):
        num_chips, pattern_bits, columns_per_row = 8, 3, 32
        ctls = [
            ColumnTranslationLogic(c, num_chips, pattern_bits)
            for c in range(num_chips)
        ]
        patterns = np.arange(1 << pattern_bits)
        columns = np.arange(columns_per_row)
        grid = kernels.ctl_translate(
            np.arange(num_chips)[None, None, :],
            patterns[:, None, None],
            columns[None, :, None],
            num_chips=num_chips,
            pattern_bits=pattern_bits,
            columns_per_row=columns_per_row,
        )
        for p in patterns:
            for c in columns:
                expected = [ctl.translate(int(c), int(p)) for ctl in ctls]
                assert grid[p, c].tolist() == expected

    def test_wide_pattern_translate(self):
        # Section 6.2: pattern wider than the chip ID.
        num_chips, pattern_bits = 8, 6
        ctls = [
            ColumnTranslationLogic(c, num_chips, pattern_bits)
            for c in range(num_chips)
        ]
        out = kernels.ctl_translate(
            np.arange(num_chips),
            np.full(num_chips, 0b101101),
            np.full(num_chips, 9),
            num_chips=num_chips,
            pattern_bits=pattern_bits,
        )
        assert out.tolist() == [ctl.translate(9, 0b101101) for ctl in ctls]

    def test_pattern_overflow_rejected(self):
        with pytest.raises(PatternError):
            kernels.ctl_translate(
                [0], [8], [0], num_chips=8, pattern_bits=3
            )

    def test_column_overflow_rejected(self):
        with pytest.raises(AddressError):
            kernels.ctl_translate(
                [0], [0], [128], num_chips=8, pattern_bits=3,
                columns_per_row=128,
            )


GEOMETRIES = [
    Geometry(),
    Geometry(chips=4, banks=4, rows_per_bank=64, columns_per_row=16),
    Geometry(chips=2, banks=2, rows_per_bank=32, columns_per_row=8),
]


class TestGatherAddressesBatch:
    @pytest.mark.parametrize(
        "geometry,shuffle_stages,pattern_bits",
        [
            (GEOMETRIES[0], 3, 3),
            (GEOMETRIES[1], 2, 2),
            (GEOMETRIES[0], 2, 3),  # partial shuffle
            (GEOMETRIES[2], 1, 1),
        ],
    )
    def test_matches_oracle(self, geometry, shuffle_stages, pattern_bits):
        rng = np.random.default_rng(19)
        lines = rng.integers(
            0, geometry.lines, size=64, dtype=np.int64
        ) * geometry.line_bytes
        patterns = rng.integers(0, 1 << pattern_bits, size=64, dtype=np.int64)
        for policy in MappingPolicy:
            oracle = MemoryOracle(
                chips=geometry.chips,
                banks=geometry.banks,
                rows_per_bank=geometry.rows_per_bank,
                columns_per_row=geometry.columns_per_row,
                column_bytes=geometry.column_bytes,
                shuffle_stages=shuffle_stages,
                pattern_bits=pattern_bits,
                bank_interleaved=policy is MappingPolicy.BANK_INTERLEAVED,
            )
            batch = kernels.gather_addresses_batch(
                lines, patterns, AddressMapping(geometry, policy),
                shuffle_stages=shuffle_stages,
                pattern_bits=pattern_bits,
            )
            for i in range(lines.shape[0]):
                assert batch[i].tolist() == oracle.gather_addresses(
                    int(lines[i]), int(patterns[i])
                ), (policy, i)

    def test_pattern_overflow_rejected(self):
        with pytest.raises(PatternError):
            kernels.gather_addresses_batch(
                [0], [8], AddressMapping(GEOMETRIES[0]),
                shuffle_stages=3,
                pattern_bits=3,
            )


class TestLoadedAddresses:
    def test_pattern0_reads_itself_pattload_reads_its_slot(self):
        config = table1_config()
        oracle = MemoryOracle.from_config(config)
        accesses = [(0, 0, 0), (3 * 64, 7, 5), (3 * 64, 7, 6),
                    (70 * 64, 3, 1), (8192 + 9 * 64, 1, 2)]
        addresses = [line + position * 8 for line, _, position in accesses]
        patterns = [pattern for _, pattern, _ in accesses]
        loaded = kernels.loaded_addresses(addresses, patterns, config)
        assert loaded.tolist() == [
            oracle.gather_addresses(line, pattern)[position] if pattern
            else line + position * 8
            for line, pattern, position in accesses
        ]
