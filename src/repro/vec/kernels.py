"""Vectorized GS-DRAM math over whole numpy int64 arrays.

Each kernel is the batch form of a scalar function elsewhere in the
tree, which stays the reference implementation:

==============================  =========================================
kernel                          scalar reference
==============================  =========================================
:func:`effective_chip_ids`      ``repro.core.ctl._effective`` widening
:func:`ctl_translate`           :meth:`repro.core.ctl.ColumnTranslationLogic.translate`
:func:`gather_addresses_batch`  :meth:`repro.check.oracle.MemoryOracle.gather_addresses`
==============================  =========================================

DRAM addresses are split and joined by
:class:`~repro.dram.address.AddressMapping` (``decode_array``,
``encode_array``), whose one bit arithmetic serves ints and arrays.

:func:`loaded_addresses` applies :func:`gather_addresses_batch` to an
access stream: it is the one place a
:class:`~repro.sim.config.SystemConfig` is unpacked into the gather
geometry, so every fast consumer recovers gathered values the same way.

All kernels validate their inputs with the same exception types as the
scalar forms (:class:`PatternError` / :class:`AddressError`), raised
once per batch rather than per element.
"""

from __future__ import annotations

import numpy as np

from repro.dram.address import AddressMapping
from repro.errors import AddressError, ConfigError, PatternError
from repro.utils.bitops import ilog2, mask


def _as_array(values) -> np.ndarray:
    array = np.asarray(values, dtype=np.int64)
    return array


# ----------------------------------------------------------------------
# Column translation logic (Section 3.3 / 6.2)
# ----------------------------------------------------------------------
def effective_chip_ids(chip_ids, chip_bits: int, pattern_bits: int) -> np.ndarray:
    """CTL-effective chip IDs: repeat-to-width when the pattern is wider
    than the chip ID (Section 6.2), else truncate to ``pattern_bits``."""
    if chip_bits <= 0:
        raise ConfigError(f"chip_bits must be positive, got {chip_bits}")
    chip_ids = _as_array(chip_ids)
    if pattern_bits <= chip_bits:
        return chip_ids & mask(pattern_bits)
    wide = np.zeros_like(chip_ids)
    filled = 0
    while filled < pattern_bits:
        wide |= chip_ids << filled
        filled += chip_bits
    return wide & mask(pattern_bits)


def ctl_translate(
    chip_ids,
    patterns,
    columns,
    *,
    num_chips: int,
    pattern_bits: int,
    columns_per_row: int | None = None,
) -> np.ndarray:
    """Batch CTL: ``(effective_chip_id & pattern) ^ column``.

    Inputs broadcast against each other, so one call can translate a
    whole ``(N, chips)`` grid of (access, chip) pairs.
    """
    patterns = _as_array(patterns)
    if patterns.size and (
        int(patterns.min()) < 0 or int(patterns.max()) > mask(pattern_bits)
    ):
        raise PatternError(
            f"pattern batch does not fit in {pattern_bits} pattern bits"
        )
    effective = effective_chip_ids(chip_ids, ilog2(num_chips), pattern_bits)
    translated = (effective & patterns) ^ _as_array(columns)
    if columns_per_row is not None and translated.size and (
        int(translated.max()) >= columns_per_row
    ):
        raise AddressError("translated column exceeds row width")
    return translated


def gather_addresses_batch(
    line_addresses,
    patterns,
    mapping: AddressMapping,
    *,
    shuffle_stages: int,
    pattern_bits: int,
) -> np.ndarray:
    """Flat byte address of every gathered value, for a batch of lines.

    Batch form of :meth:`repro.check.oracle.MemoryOracle.gather_addresses`:
    row ``i`` of the result lists where the ``chips`` values of gathered
    line ``i`` live, in ascending row-buffer order.
    """
    line_addresses = _as_array(line_addresses)
    patterns = _as_array(patterns)
    if patterns.size and (
        int(patterns.min()) < 0 or int(patterns.max()) >= (1 << pattern_bits)
    ):
        raise PatternError(f"pattern batch does not fit in {pattern_bits} bits")
    geometry = mapping.geometry
    chips = geometry.chips
    bank, row, column, _ = mapping.decode_array(line_addresses)
    chip_columns = ctl_translate(
        np.arange(chips, dtype=np.int64)[None, :],
        patterns[:, None],
        column[:, None],
        num_chips=chips,
        pattern_bits=pattern_bits,
        columns_per_row=geometry.columns_per_row,
    )
    value_indices = np.arange(chips, dtype=np.int64)[None, :] ^ (
        chip_columns & mask(shuffle_stages)
    )
    # Assemble in ascending row-buffer order (row_index = column*chips
    # + value_index), exactly as the controller fills the gathered line.
    row_indices = chip_columns * chips + value_indices
    order = np.argsort(row_indices, axis=1, kind="stable")
    chip_columns = np.take_along_axis(chip_columns, order, axis=1)
    value_indices = np.take_along_axis(value_indices, order, axis=1)
    bases = mapping.encode_array(bank[:, None], row[:, None], chip_columns)
    return bases + value_indices * geometry.column_bytes


def loaded_addresses(addresses, patterns, config) -> np.ndarray:
    """Byte address of the value each aligned 8-byte access reads.

    A pattern-0 access reads its own address. A ``pattload`` reads the
    slot of its gathered line that its offset in the line selects.
    Consecutive accesses to one gathered line share one gather.
    """
    addresses = _as_array(addresses)
    patterns = np.broadcast_to(_as_array(patterns), addresses.shape)
    loaded = addresses.copy()
    gathered = np.flatnonzero(patterns)
    geometry = config.geometry
    line_bytes = geometry.line_bytes
    accessed = addresses[gathered]
    lines = accessed & ~np.int64(line_bytes - 1)
    line_patterns = patterns[gathered]
    head = np.ones(gathered.size, dtype=bool)
    head[1:] = (lines[1:] != lines[:-1]) | (
        line_patterns[1:] != line_patterns[:-1]
    )
    slots = gather_addresses_batch(
        lines[head],
        line_patterns[head],
        AddressMapping(geometry, config.mapping_policy),
        shuffle_stages=config.shuffle_stages,
        pattern_bits=config.pattern_bits,
    )
    positions = (accessed & (line_bytes - 1)) // geometry.column_bytes
    loaded[gathered] = slots[np.cumsum(head) - 1, positions]
    return loaded
