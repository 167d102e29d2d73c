"""Unit + property tests for the bit-manipulation helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import AddressError
from repro.utils import bitops


class TestIsPowerOfTwo:
    def test_powers(self):
        for k in range(20):
            assert bitops.is_power_of_two(1 << k)

    def test_non_powers(self):
        for value in (0, -1, -8, 3, 6, 12, 1023):
            assert not bitops.is_power_of_two(value)


class TestIlog2:
    def test_round_trip(self):
        for k in range(30):
            assert bitops.ilog2(1 << k) == k

    def test_rejects_non_power(self):
        with pytest.raises(AddressError):
            bitops.ilog2(12)

    def test_rejects_zero(self):
        with pytest.raises(AddressError):
            bitops.ilog2(0)


class TestMask:
    def test_values(self):
        assert bitops.mask(0) == 0
        assert bitops.mask(3) == 0b111
        assert bitops.mask(8) == 0xFF

    def test_negative_rejected(self):
        with pytest.raises(AddressError):
            bitops.mask(-1)


class TestExtractInsert:
    def test_extract(self):
        assert bitops.extract_bits(0b1101_0110, 4, 4) == 0b1101

    def test_insert(self):
        assert bitops.insert_bits(0, 4, 4, 0b1101) == 0b1101_0000

    def test_insert_overwrites(self):
        assert bitops.insert_bits(0xFF, 0, 4, 0) == 0xF0

    def test_insert_field_too_wide(self):
        with pytest.raises(AddressError):
            bitops.insert_bits(0, 0, 2, 4)

    @given(
        value=st.integers(min_value=0, max_value=(1 << 32) - 1),
        low=st.integers(min_value=0, max_value=24),
        count=st.integers(min_value=1, max_value=8),
    )
    def test_insert_then_extract(self, value, low, count):
        field = value & bitops.mask(count)
        combined = bitops.insert_bits(value, low, count, field)
        assert bitops.extract_bits(combined, low, count) == field


def _reverse_bits_loop(value: int, width: int) -> int:
    """The pre-byte-table implementation, pinned here as the reference."""
    result = 0
    for i in range(width):
        if value >> i & 1:
            result |= 1 << (width - 1 - i)
    return result


class TestReverseBits:
    def test_known(self):
        assert bitops.reverse_bits(0b001, 3) == 0b100

    def test_zero_width_is_zero(self):
        assert bitops.reverse_bits(0b101, 0) == 0

    @given(
        value=st.integers(min_value=0, max_value=255),
        width=st.integers(min_value=8, max_value=12),
    )
    def test_involution(self, value, width):
        assert bitops.reverse_bits(bitops.reverse_bits(value, width), width) == value

    def test_matches_original_loop_dense(self):
        for width in (1, 3, 7, 8, 9, 16):
            for value in range(1 << min(width, 10)):
                assert bitops.reverse_bits(value, width) == _reverse_bits_loop(
                    value, width
                )

    @given(
        value=st.integers(min_value=0, max_value=(1 << 40) - 1),
        width=st.integers(min_value=1, max_value=40),
    )
    def test_matches_original_loop(self, value, width):
        value &= bitops.mask(width)
        assert bitops.reverse_bits(value, width) == _reverse_bits_loop(
            value, width
        )


class TestPopcount:
    def test_known(self):
        assert bitops.popcount(0) == 0
        assert bitops.popcount(0b1011) == 3

    def test_negative_rejected(self):
        with pytest.raises(AddressError):
            bitops.popcount(-1)


class TestXorFold:
    def test_identity_when_fits(self):
        assert bitops.xor_fold(0b101, 3) == 0b101

    def test_folds_high_bits(self):
        # 0b101_010 folded to 3 bits: 010 ^ 101 = 111
        assert bitops.xor_fold(0b101010, 3) == 0b111

    def test_zero_width_rejected(self):
        with pytest.raises(AddressError):
            bitops.xor_fold(5, 0)

    def test_negative_value_rejected(self):
        with pytest.raises(AddressError):
            bitops.xor_fold(-1, 3)

    @given(value=st.integers(min_value=0, max_value=(1 << 24) - 1))
    def test_result_fits_width(self, value):
        assert 0 <= bitops.xor_fold(value, 4) < 16


class TestRepeatToWidth:
    def test_paper_example(self):
        # Section 6.2: chip 3 (011) with a 6-bit pattern uses 011-011.
        assert bitops.repeat_to_width(0b011, 3, 6) == 0b011011

    def test_truncates_partial_repeat(self):
        assert bitops.repeat_to_width(0b11, 2, 3) == 0b111

    def test_value_too_wide_rejected(self):
        with pytest.raises(AddressError):
            bitops.repeat_to_width(4, 2, 6)

    @given(
        value=st.integers(min_value=0, max_value=7),
        copies=st.integers(min_value=1, max_value=4),
    )
    def test_every_slice_is_value(self, value, copies):
        width = 3 * copies
        repeated = bitops.repeat_to_width(value, 3, width)
        for i in range(copies):
            assert (repeated >> (3 * i)) & 0b111 == value
