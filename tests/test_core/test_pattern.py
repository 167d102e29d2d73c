"""Tests for pattern-ID algebra — including the paper's Figure 7."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.pattern import (
    GatherSpec,
    chip_conflicts,
    gather_spec,
    gathered_values,
    pattern_for_stride,
    pattern_table,
    stride_for_pattern,
    supported_strides,
    validate_pattern,
)
from repro.errors import PatternError


class TestStridePatternMap:
    def test_paper_examples(self):
        assert pattern_for_stride(2) == 1
        assert pattern_for_stride(4) == 3
        assert pattern_for_stride(8) == 7

    def test_non_power_of_two_rejected(self):
        with pytest.raises(PatternError):
            pattern_for_stride(3)

    def test_stride_for_pattern(self):
        assert stride_for_pattern(0) == 1
        assert stride_for_pattern(1) == 2
        assert stride_for_pattern(7) == 8

    def test_mixed_pattern_has_no_uniform_stride(self):
        assert stride_for_pattern(2) is None
        assert stride_for_pattern(5) is None

    def test_negative_rejected(self):
        with pytest.raises(PatternError):
            stride_for_pattern(-1)

    @given(st.integers(min_value=1, max_value=6))
    def test_round_trip(self, k):
        stride = 1 << k
        assert stride_for_pattern(pattern_for_stride(stride)) == stride


class TestValidatePattern:
    def test_in_range(self):
        validate_pattern(7, 3)

    def test_out_of_range(self):
        with pytest.raises(PatternError):
            validate_pattern(8, 3)
        with pytest.raises(PatternError):
            validate_pattern(-1, 3)


class TestFigure7:
    """The full pattern table of the paper's Figure 7 (4 chips)."""

    PAPER = {
        0: {(0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11), (12, 13, 14, 15)},
        1: {(0, 2, 4, 6), (1, 3, 5, 7), (8, 10, 12, 14), (9, 11, 13, 15)},
        2: {(0, 1, 8, 9), (2, 3, 10, 11), (4, 5, 12, 13), (6, 7, 14, 15)},
        3: {(0, 4, 8, 12), (1, 5, 9, 13), (2, 6, 10, 14), (3, 7, 11, 15)},
    }

    def test_families_match_paper(self):
        table = pattern_table(chips=4, columns=4, pattern_bits=2)
        for pattern, families in self.PAPER.items():
            assert set(table[pattern]) == families

    def test_pattern0_column_order_exact(self):
        table = pattern_table(chips=4, columns=4, pattern_bits=2)
        assert table[0] == [(0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11),
                            (12, 13, 14, 15)]

    def test_pattern3_column_order_exact(self):
        table = pattern_table(chips=4, columns=4, pattern_bits=2)
        assert table[3] == [(0, 4, 8, 12), (1, 5, 9, 13), (2, 6, 10, 14),
                            (3, 7, 11, 15)]


class TestGatherSpec:
    def test_contiguous_default(self):
        spec = gather_spec(8, 0, 3)
        assert spec.is_contiguous
        assert spec.indices == tuple(range(24, 32))

    def test_stride8_gather(self):
        spec = gather_spec(8, 7, 0)
        assert spec.indices == tuple(range(0, 64, 8))
        assert spec.uniform_stride == 8

    def test_dual_stride_pattern(self):
        spec = gather_spec(4, 2, 0)
        assert spec.uniform_stride is None
        assert spec.indices == (0, 1, 8, 9)

    @given(
        pattern=st.integers(min_value=0, max_value=7),
        column=st.integers(min_value=0, max_value=63),
    )
    def test_indices_distinct_and_one_per_chip(self, pattern, column):
        spec = gather_spec(8, pattern, column)
        assert len(set(spec.indices)) == 8
        # One value per chip: the chip of index i is (i % 8) ^ (line & 7).
        chips = {(i % 8) ^ ((i // 8) & 7) for i in spec.indices}
        assert chips == set(range(8))

    @given(k=st.integers(min_value=1, max_value=3),
           column=st.integers(min_value=0, max_value=63))
    def test_full_stride_patterns_are_uniform(self, k, column):
        stride = 1 << k
        spec = gather_spec(8, stride - 1, column)
        assert spec.uniform_stride == stride

    def test_rejects_non_power_of_two_chips(self):
        with pytest.raises(PatternError):
            gather_spec(6, 1, 0)


class TestGatheredValues:
    def test_ctl_formula(self):
        for chip_id, chip_column, value in gathered_values(8, 7, 5):
            assert chip_column == (chip_id & 7) ^ 5
            assert value == chip_id ^ (chip_column & 7)

    def test_partial_shuffle_mask(self):
        for chip_id, chip_column, value in gathered_values(
            8, 3, 5, shuffle_mask=0b01
        ):
            assert chip_column == (chip_id & 3) ^ 5
            assert value == chip_id ^ (chip_column & 0b01)


class TestChipConflicts:
    def test_full_shuffle_no_conflicts(self):
        for stride in (1, 2, 4, 8):
            assert chip_conflicts(8, stride, shuffle_mask=7) == 1

    def test_no_shuffle_stride8_serialises(self):
        assert chip_conflicts(8, 8, shuffle_mask=0) == 8

    def test_no_shuffle_stride2(self):
        assert chip_conflicts(8, 2, shuffle_mask=0) == 2

    def test_partial_shuffle(self):
        assert chip_conflicts(8, 8, shuffle_mask=0b001) == 4

    def test_large_stride_conflicts_even_with_shuffle(self):
        # Stride 16 with 8 chips: values 2 rows-of-mask apart collide.
        assert chip_conflicts(8, 16, shuffle_mask=7) == 2


class TestSupportedStrides:
    def test_paper_configuration(self):
        assert supported_strides(8, 3, 3) == [2, 4, 8]

    def test_four_chip_configuration(self):
        assert supported_strides(4, 2, 2) == [2, 4]

    def test_fewer_shuffle_stages_lose_strides(self):
        assert supported_strides(8, 1, 3) == [2]

    def test_wide_pattern_bits_do_not_add_strides_beyond_shuffle(self):
        assert supported_strides(8, 3, 6) == [2, 4, 8]
