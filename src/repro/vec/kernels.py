"""Vectorized GS-DRAM math over whole numpy int64 arrays.

Each kernel is the batch form of a scalar function elsewhere in the
tree, which stays the reference implementation:

==============================  =========================================
kernel                          scalar reference
==============================  =========================================
:func:`effective_chip_ids`      ``repro.core.ctl._effective`` widening
:func:`ctl_translate`           :meth:`repro.core.ctl.ColumnTranslationLogic.translate`
:func:`gather_addresses_batch`  :meth:`repro.check.oracle.MemoryOracle.gather_addresses`
:func:`decompose_addresses`     :meth:`repro.dram.address.AddressMapping.decode`
:func:`encode_addresses`        :meth:`repro.dram.address.AddressMapping.encode`
==============================  =========================================

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

from repro.dram.address import MappingPolicy
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


# ----------------------------------------------------------------------
# DRAM address (de)composition
# ----------------------------------------------------------------------
def decompose_addresses(
    addresses,
    *,
    banks: int,
    rows_per_bank: int,
    columns_per_row: int,
    line_bytes: int = 64,
    policy: MappingPolicy = MappingPolicy.ROW_BANK_COLUMN,
    channels: int = 1,
) -> dict[str, np.ndarray]:
    """Split physical byte addresses into DRAM coordinate arrays.

    Returns ``channel`` / ``rank`` / ``bank`` / ``row`` / ``column`` /
    ``offset`` int64 arrays. Multi-channel systems interleave at row
    granularity (see :mod:`repro.mem.channels`); ``bank`` is globalised
    as ``channel * banks + local_bank`` to match
    :class:`~repro.mem.channels.MultiChannelModule`. The modelled module
    is single-rank, so ``rank`` is always zero — the field exists so
    trace consumers get the full channel/rank/bank/row/column tuple.
    """
    addresses = _as_array(addresses)
    row_bytes = columns_per_row * line_bytes
    capacity = channels * banks * rows_per_bank * row_bytes
    if addresses.size and (
        int(addresses.min()) < 0 or int(addresses.max()) >= capacity
    ):
        raise AddressError("address batch outside module capacity")
    if channels > 1:
        global_rows = addresses // row_bytes
        channel = global_rows % channels
        local = (global_rows // channels) * row_bytes + addresses % row_bytes
    else:
        channel = np.zeros_like(addresses)
        local = addresses
    offset = local & (line_bytes - 1)
    line = local >> ilog2(line_bytes)
    if policy is MappingPolicy.ROW_BANK_COLUMN:
        column = line & (columns_per_row - 1)
        bank = (line >> ilog2(columns_per_row)) & (banks - 1)
        row = line >> (ilog2(columns_per_row) + ilog2(banks))
    else:
        bank = line & (banks - 1)
        column = (line >> ilog2(banks)) & (columns_per_row - 1)
        row = line >> (ilog2(banks) + ilog2(columns_per_row))
    return {
        "channel": channel,
        "rank": np.zeros_like(addresses),
        "bank": channel * banks + bank,
        "row": row,
        "column": column,
        "offset": offset,
    }


def encode_addresses(
    banks_, rows, columns,
    *,
    banks: int,
    rows_per_bank: int,
    columns_per_row: int,
    line_bytes: int = 64,
    policy: MappingPolicy = MappingPolicy.ROW_BANK_COLUMN,
) -> np.ndarray:
    """Inverse of :func:`decompose_addresses` for a single channel."""
    banks_ = _as_array(banks_)
    rows = _as_array(rows)
    columns = _as_array(columns)
    for name, values, limit in (
        ("bank", banks_, banks),
        ("row", rows, rows_per_bank),
        ("column", columns, columns_per_row),
    ):
        if values.size and (int(values.min()) < 0 or int(values.max()) >= limit):
            raise AddressError(f"{name} batch out of range")
    if policy is MappingPolicy.ROW_BANK_COLUMN:
        line = ((rows << ilog2(banks)) | banks_) << ilog2(columns_per_row) | columns
    else:
        line = ((rows << ilog2(columns_per_row)) | columns) << ilog2(banks) | banks_
    return line << ilog2(line_bytes)


def gather_addresses_batch(
    line_addresses,
    patterns,
    *,
    chips: int,
    banks: int,
    rows_per_bank: int,
    columns_per_row: int,
    column_bytes: int = 8,
    shuffle_stages: int,
    pattern_bits: int,
    bank_interleaved: bool = False,
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
    line_bytes = chips * column_bytes
    policy = (
        MappingPolicy.BANK_INTERLEAVED if bank_interleaved
        else MappingPolicy.ROW_BANK_COLUMN
    )
    fields = decompose_addresses(
        line_addresses,
        banks=banks,
        rows_per_bank=rows_per_bank,
        columns_per_row=columns_per_row,
        line_bytes=line_bytes,
        policy=policy,
    )
    chip_columns = ctl_translate(
        np.arange(chips, dtype=np.int64)[None, :],
        patterns[:, None],
        fields["column"][:, None],
        num_chips=chips,
        pattern_bits=pattern_bits,
        columns_per_row=columns_per_row,
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
    n = line_addresses.shape[0]
    bases = encode_addresses(
        np.broadcast_to(fields["bank"][:, None], (n, chips)),
        np.broadcast_to(fields["row"][:, None], (n, chips)),
        chip_columns,
        banks=banks,
        rows_per_bank=rows_per_bank,
        columns_per_row=columns_per_row,
        line_bytes=line_bytes,
        policy=policy,
    )
    return bases + value_indices * column_bytes


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
        chips=geometry.chips,
        banks=geometry.banks,
        rows_per_bank=geometry.rows_per_bank,
        columns_per_row=geometry.columns_per_row,
        column_bytes=geometry.column_bytes,
        shuffle_stages=config.shuffle_stages,
        pattern_bits=config.pattern_bits,
        bank_interleaved=(
            config.mapping_policy is MappingPolicy.BANK_INTERLEAVED
        ),
    )
    positions = (accessed & (line_bytes - 1)) // geometry.column_bytes
    loaded[gathered] = slots[np.cumsum(head) - 1, positions]
    return loaded
