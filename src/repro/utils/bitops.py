"""Bit-manipulation helpers used across the DRAM and GS-DRAM models.

The paper's mechanisms are defined in terms of small bitwise operations
(the shuffle is an XOR butterfly, the column translation logic is an
AND + XOR). Centralising the helpers keeps those definitions readable
and uniformly validated.
"""

from __future__ import annotations

from repro.errors import AddressError


def is_power_of_two(value: int) -> bool:
    """Return True if ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def ilog2(value: int) -> int:
    """Return log2 of ``value``, requiring it to be a power of two.

    >>> ilog2(8)
    3
    """
    if not is_power_of_two(value):
        raise AddressError(f"{value} is not a positive power of two")
    return value.bit_length() - 1


def mask(bits: int) -> int:
    """Return a mask of ``bits`` low-order ones. ``mask(3) == 0b111``."""
    if bits < 0:
        raise AddressError(f"negative bit count: {bits}")
    return (1 << bits) - 1


def extract_bits(value: int, low: int, count: int) -> int:
    """Extract ``count`` bits of ``value`` starting at bit ``low``."""
    if low < 0 or count < 0:
        raise AddressError(f"invalid bit slice low={low} count={count}")
    return (value >> low) & mask(count)


def insert_bits(value: int, low: int, count: int, field: int) -> int:
    """Return ``value`` with bits ``[low, low+count)`` replaced by ``field``."""
    if field < 0 or field > mask(count):
        raise AddressError(f"field {field} does not fit in {count} bits")
    cleared = value & ~(mask(count) << low)
    return cleared | (field << low)


#: Bit-reversal of every 8-bit value, built once at import. Reversing a
#: wide value is then byte-table lookups + shifts instead of a Python
#: loop over individual bits.
_REVERSED_BYTE = bytes(
    sum(((byte >> bit) & 1) << (7 - bit) for bit in range(8))
    for byte in range(256)
)


def reverse_bits(value: int, width: int) -> int:
    """Reverse the low ``width`` bits of ``value``.

    >>> reverse_bits(0b001, 3)
    4
    """
    if width <= 0:
        return 0
    # Reverse whole bytes via the table, then drop the padding that
    # rounding ``width`` up to a byte boundary introduced at the bottom.
    value &= mask(width)
    padded = (width + 7) & ~7
    result = 0
    for low in range(0, padded, 8):
        result = (result << 8) | _REVERSED_BYTE[(value >> low) & 0xFF]
    return result >> (padded - width)


def popcount(value: int) -> int:
    """Number of set bits in ``value`` (non-negative)."""
    if value < 0:
        raise AddressError(f"popcount of negative value: {value}")
    return bin(value).count("1")


def xor_fold(value: int, width: int) -> int:
    """XOR-fold ``value`` down to ``width`` bits.

    Used by the programmable shuffle functions of Section 6.1, which may
    combine multiple column-ID bit groups via XOR.
    """
    if width <= 0:
        raise AddressError(f"xor_fold width must be positive, got {width}")
    if value < 0:
        raise AddressError(f"xor_fold of negative value: {value}")
    folded = 0
    while value:
        folded ^= value & mask(width)
        value >>= width
    return folded


def repeat_to_width(value: int, value_width: int, target_width: int) -> int:
    """Repeat a ``value_width``-bit value until it fills ``target_width`` bits.

    Section 6.2 widens the chip ID used by the CTL by repeating the
    physical chip ID: with 8 chips and a 6-bit pattern ID, chip 3 uses
    ``011-011``.
    """
    if value_width <= 0:
        raise AddressError("value_width must be positive")
    if value < 0 or value > mask(value_width):
        raise AddressError(f"{value} does not fit in {value_width} bits")
    result = 0
    filled = 0
    while filled < target_width:
        result |= value << filled
        filled += value_width
    return result & mask(target_width)


def split_span(address: int, length: int, block: int):
    """Cut ``length`` bytes from ``address`` at every multiple of ``block``.

    Yields ``(start, size)`` per piece; ``block`` is a page or a row.
    """
    while length > 0:
        size = min(length, block - address % block)
        yield address, size
        address += size
        length -= size
