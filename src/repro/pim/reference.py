"""Numpy reference semantics for the in-DRAM compute primitives.

The device model (:meth:`repro.dram.rank.Rank.mra`,
:meth:`repro.dram.rank.Rank.shift_row`) operates on the real byte
arrays; this module states the same semantics independently in numpy.
Tests and the ``repro check pim`` stage hold the two byte-identical
across seeded random row contents — the reference is the spec, the
device code is the implementation.

Bit order: a row is one little-endian bit vector. Bit (lane) ``t``
lives in byte ``t // 8`` of the row's logical line order (column 0's
line first, chip 0's lanes first within a line), at bit position
``t % 8`` — numpy's ``bitorder="little"``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError


def combine_reference(rows: list[bytes], op: str) -> bytes:
    """Bitwise AND/OR over 2-3 equal-length rows, or MAJ over exactly 3."""
    if not 2 <= len(rows) <= 3:
        raise ConfigError(f"MRA reference needs 2-3 rows, got {len(rows)}")
    if len({len(r) for r in rows}) != 1:
        raise ConfigError("MRA reference rows must be equal length")
    arrs = [np.frombuffer(r, dtype=np.uint8) for r in rows]
    if op == "AND":
        out = arrs[0] & arrs[1]
        if len(arrs) == 3:
            out = out & arrs[2]
    elif op == "OR":
        out = arrs[0] | arrs[1]
        if len(arrs) == 3:
            out = out | arrs[2]
    elif op == "MAJ":
        if len(arrs) != 3:
            raise ConfigError("MAJ reference requires exactly 3 rows")
        a, b, c = arrs
        out = (a & b) | (a & c) | (b & c)
    else:
        raise ConfigError(f"unknown MRA reference op {op!r}")
    return out.tobytes()


def shift_reference(row: bytes, amount: int, direction: str = "left") -> bytes:
    """Shift a row as one little-endian bit vector, zero-filling."""
    if amount <= 0:
        raise ConfigError(f"shift reference needs a positive amount, got {amount}")
    bits = np.unpackbits(np.frombuffer(row, dtype=np.uint8), bitorder="little")
    out = np.zeros_like(bits)
    if amount < bits.size:
        if direction == "left":
            # Left = toward higher bit indices (multiply by 2**amount).
            out[amount:] = bits[: bits.size - amount]
        elif direction == "right":
            out[: bits.size - amount] = bits[amount:]
        else:
            raise ConfigError(f"unknown shift direction {direction!r}")
    elif direction not in ("left", "right"):
        raise ConfigError(f"unknown shift direction {direction!r}")
    return np.packbits(out, bitorder="little").tobytes()


def bit_slice_rows(values: np.ndarray, width: int, row_bytes: int) -> np.ndarray:
    """Pack ``values`` into bit-slice rows: slice ``w``'s lane ``t`` is
    bit ``w`` of ``values[t]``.

    Returns a ``(width, row_bytes)`` uint8 array; lanes beyond
    ``len(values)`` are zero (which dual-rail encoding reads as the
    value 0).
    """
    lanes = values.shape[0]
    if lanes > row_bytes * 8:
        raise ConfigError(
            f"{lanes} lanes exceed the {row_bytes * 8}-lane row")
    vals = values.astype(np.uint64, copy=False)
    rows = np.zeros((width, row_bytes), dtype=np.uint8)
    for w in range(width):
        bits = ((vals >> np.uint64(w)) & np.uint64(1)).astype(np.uint8)
        packed = np.packbits(bits, bitorder="little")
        rows[w, : packed.size] = packed
    return rows
