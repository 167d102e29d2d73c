"""Vectorized DB query engines (fig9/fig10/fig11 fast path, phase 2).

The event drivers in :mod:`repro.db.engine` execute every field access
as an interpreted instruction against real simulated bytes. For the
three standard layouts the access *stream* is pure address arithmetic
over the workload arrays, and the functional answers are pure numpy:

- the txn/scan addresses come from the layouts' closed-form address
  functions, vectorized over (tuple_id, field) arrays;
- the allocation is replayed byte-for-byte with the same
  :class:`~repro.vm.pattmalloc.PattAllocator` the system uses, so
  bank/row coordinates match the event machine exactly;
- cache/DBI/controller accounting is replayed by
  :class:`~repro.vec.hier.DirtyReplay` (stat-exact by construction,
  verified stat-by-stat by :mod:`repro.check.fastpath`);
- read values and the final table state come from a vectorized
  last-write-wins pass over the flattened cell stream; gathered scan
  values are recovered through
  :func:`~repro.vec.kernels.gather_addresses_batch`, so a bug in the
  gather math breaks verification instead of hiding.

Only the exact layout classes are supported. ``PartialGatherStore``
subclasses ``GSDRAMStore`` but scans with different patterns/PCs, so
the engine dispatch rejects it in fast mode with a ``ConfigError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.db.layouts import (
    FIELD_COMPUTE_CYCLES,
    SCAN_COMPUTE_CYCLES,
    TXN_OVERHEAD_CYCLES,
    ColumnStore,
    GSDRAMStore,
    RowStore,
    StorageLayout,
)
from repro.db.workload import AnalyticsQuery, Transaction, TransactionArrays
from repro.dram.address import MappingPolicy
from repro.errors import WorkloadError
from repro.sim.config import Mechanism, SystemConfig
from repro.sim.results import RunResult
from repro.vec.hier import DirtyReplay
from repro.vec.kernels import gather_addresses_batch
from repro.vm.pattmalloc import PattAllocator

_EXACT_LAYOUTS = (RowStore, ColumnStore, GSDRAMStore)


def fast_layout_supported(layout: StorageLayout) -> bool:
    """True when the vectorized engines model this layout exactly."""
    return type(layout) in _EXACT_LAYOUTS


@dataclass
class FastDbOutcome:
    """What a vectorized DB driver hands back to the engine dispatch.

    ``observed`` and ``final_rows`` are int64 ndarrays (phase 3): the
    engine verifies them against the vectorized oracle with
    ``np.array_equal``, so nothing is ever materialized to Python
    lists on the fast path.
    """

    result: RunResult
    component_stats: dict
    observed: np.ndarray | None = None
    final_rows: np.ndarray | None = None
    answer: int | None = None


class _FastTable:
    """Allocation replay + address arithmetic for one attached table."""

    def __init__(
        self,
        layout: StorageLayout,
        num_tuples: int,
        config: SystemConfig,
        rows: list[list[int]],
    ) -> None:
        if not fast_layout_supported(layout):
            raise WorkloadError(
                f"no vectorized engine for layout {type(layout).__name__}"
            )
        schema = layout.schema
        self.schema = schema
        self.num_tuples = num_tuples
        self.config = config
        self.is_column = type(layout) is ColumnStore
        self.is_gs = type(layout) is GSDRAMStore
        geometry = config.geometry
        allocator = PattAllocator(
            capacity_bytes=geometry.capacity_bytes,
            line_bytes=geometry.line_bytes,
            row_bytes=geometry.row_bytes,
        )
        if self.is_gs:
            # Mirror GSDRAMStore.attach (including its input checks).
            if num_tuples % schema.num_fields != 0:
                raise WorkloadError(
                    "GS-DRAM store needs tuple count divisible by the gather "
                    f"group size ({schema.num_fields})"
                )
            if config.mechanism is not Mechanism.GS_DRAM:
                raise WorkloadError("GSDRAMStore requires a GS-DRAM system")
            self.pattern = schema.gather_pattern
            self.base = allocator.pattmalloc(
                num_tuples * schema.tuple_bytes, shuffle=True,
                pattern=self.pattern,
            )
            self.column_bases = None
        elif self.is_column:
            self.pattern = 0
            self.base = None
            self.column_bases = np.array(
                [
                    allocator.malloc(num_tuples * schema.field_bytes)
                    for _ in range(schema.num_fields)
                ],
                dtype=np.int64,
            )
        else:
            self.pattern = 0
            self.base = allocator.malloc(num_tuples * schema.tuple_bytes)
            self.column_bases = None
        self.flat = np.asarray(rows, dtype=np.int64).reshape(-1)
        if self.flat.size != num_tuples * schema.num_fields:
            raise WorkloadError(
                f"expected {num_tuples}x{schema.num_fields} table contents"
            )

    # -- address arithmetic ------------------------------------------------
    def field_addresses(self, tuple_ids: np.ndarray, fields: np.ndarray):
        if self.is_column:
            return (
                self.column_bases[fields]
                + tuple_ids * self.schema.field_bytes
            )
        return (
            self.base
            + tuple_ids * self.schema.tuple_bytes
            + fields * self.schema.field_bytes
        )

    def stream_attributes(self, count: int):
        """(patterns, alt_patterns, shuffled) for ``count`` txn accesses."""
        patterns = np.zeros(count, dtype=np.int64)
        if self.is_gs:
            alts = np.full(count, self.pattern, dtype=np.int64)
            shuffled = np.ones(count, dtype=bool)
        else:
            alts = patterns
            shuffled = np.zeros(count, dtype=bool)
        return patterns, alts, shuffled


def _flatten_transactions(table: _FastTable, txns):
    """(tuple_ids, fields, writes, values) arrays, in program order.

    Accepts :class:`~repro.db.workload.TransactionArrays` (already
    flat; validated in batch) or a ``list[Transaction]``.
    """
    schema = table.schema
    num_tuples = table.num_tuples
    if isinstance(txns, TransactionArrays):
        tuple_ids = txns.tuple_ids
        fields = txns.fields
        if tuple_ids.size and not (
            0 <= int(tuple_ids.min()) and int(tuple_ids.max()) < num_tuples
        ):
            raise WorkloadError("tuple id out of range")
        if fields.size and not (
            0 <= int(fields.min()) and int(fields.max()) < schema.num_fields
        ):
            raise WorkloadError("field out of range")
        return tuple_ids, fields, txns.writes, txns.values
    tuple_id_list: list[int] = []
    field_list: list[int] = []
    write_list: list[bool] = []
    value_list: list[int] = []
    for txn in txns:
        if not 0 <= txn.tuple_id < num_tuples:
            raise WorkloadError(f"tuple {txn.tuple_id} out of range")
        for op in txn.ops:
            schema.validate_field(op.field)
            tuple_id_list.append(txn.tuple_id)
            field_list.append(op.field)
            write_list.append(op.write)
            value_list.append(op.value)
    return (
        np.array(tuple_id_list, dtype=np.int64),
        np.array(field_list, dtype=np.int64),
        np.array(write_list, dtype=bool),
        np.array(value_list, dtype=np.int64),
    )


def _last_write_wins(
    flat: np.ndarray, cells: np.ndarray, writes: np.ndarray, values: np.ndarray
):
    """Vectorized transaction semantics over flattened table cells.

    For each operation, the value it observes is the value of the last
    *write* to the same cell at an earlier stream position (or the
    initial cell contents). Returns ``(observed_reads, final_flat)``.

    The trick: sort stable by cell, encode each op as
    ``cell * (N + 1) + key`` with ``key = position + 1`` for writes and
    ``0`` for reads, and take a running max — within one cell's group
    the running max always decodes to the latest write seen so far.
    """
    total = int(cells.size)
    if total == 0:
        return np.array([], dtype=np.int64), flat.copy()
    order = np.argsort(cells, kind="stable")
    sorted_cells = cells[order]
    keys = np.where(writes, np.arange(total, dtype=np.int64) + 1, 0)
    combined = sorted_cells * np.int64(total + 1) + keys[order]
    running = np.maximum.accumulate(combined)
    last_write = running % np.int64(total + 1) - 1  # -1: no write yet
    seen = np.where(
        last_write >= 0,
        values[np.maximum(last_write, 0)],
        flat[sorted_cells],
    )
    observed_sorted = np.empty(total, dtype=np.int64)
    observed_sorted[order] = seen
    observed = observed_sorted[~writes]

    final_flat = flat.copy()
    group_end = np.ones(total, dtype=bool)
    group_end[:-1] = sorted_cells[1:] != sorted_cells[:-1]
    end_writes = last_write[group_end]
    end_cells = sorted_cells[group_end]
    written = end_writes >= 0
    final_flat[end_cells[written]] = values[end_writes[written]]
    return observed, final_flat


def _transaction_stream(table: _FastTable, txns):
    """Access stream + functional outcome of a transaction batch."""
    tuple_ids, fields, writes, values = _flatten_transactions(table, txns)
    addresses = table.field_addresses(tuple_ids, fields)
    line_bytes = table.config.geometry.line_bytes
    lines = addresses & ~np.int64(line_bytes - 1)
    patterns, alts, shuffled = table.stream_attributes(int(lines.size))
    cells = tuple_ids * np.int64(table.schema.num_fields) + fields
    return lines, patterns, alts, shuffled, writes, values, cells


def _analytics_stream(
    table: _FastTable, query: AnalyticsQuery, flat: np.ndarray
):
    """Access stream + per-value data of one analytics query.

    ``flat`` is the table contents the scan reads (the *current* state,
    which differs from the initial state mid-HTAP). Values are derived
    from the generated addresses — for GS-DRAM through the batched
    gather-address kernel — so address/gather bugs surface as
    verification failures, not silently-correct sums.
    """
    schema = table.schema
    config = table.config
    geometry = config.geometry
    line_bytes = geometry.line_bytes
    num_tuples = table.num_tuples
    group = schema.num_fields
    line_chunks: list[np.ndarray] = []
    value_chunks: list[np.ndarray] = []
    for field in query.fields:
        schema.validate_field(field)
        if table.is_gs:
            group_starts = np.arange(0, num_tuples, group, dtype=np.int64)
            columns = group_starts + field
            gathered_lines = table.base + columns * line_bytes
            slots = gather_addresses_batch(
                gathered_lines,
                np.full(columns.size, table.pattern, dtype=np.int64),
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
            source = slots - table.base
            if source.size and (
                int(source.min()) < 0
                or int(source.max()) >= num_tuples * schema.tuple_bytes
                or (source % schema.field_bytes).any()
            ):
                raise WorkloadError(
                    "gathered value addresses escaped the table"
                )
            values = flat[source // schema.field_bytes]
            # Each gathered line is pattload-ed once per position, all
            # hitting the same (line, pattern) cache entry.
            line_chunks.append(np.repeat(gathered_lines, group))
            value_chunks.append(values.reshape(-1))
        else:
            tuple_ids = np.arange(num_tuples, dtype=np.int64)
            fields = np.full(num_tuples, field, dtype=np.int64)
            addresses = table.field_addresses(tuple_ids, fields)
            if table.is_column:
                derived_tuples = (
                    addresses - table.column_bases[field]
                ) // schema.field_bytes
            else:
                derived_tuples = (
                    addresses - table.base
                ) // schema.tuple_bytes
            cells = derived_tuples * np.int64(group) + field
            value_chunks.append(flat[cells])
            line_chunks.append(addresses & ~np.int64(line_bytes - 1))
    lines = (
        np.concatenate(line_chunks)
        if line_chunks
        else np.array([], dtype=np.int64)
    )
    if table.is_gs:
        patterns = np.full(lines.size, table.pattern, dtype=np.int64)
        alts = patterns
        shuffled = np.ones(lines.size, dtype=bool)
    else:
        patterns = np.zeros(lines.size, dtype=np.int64)
        alts = patterns
        shuffled = np.zeros(lines.size, dtype=bool)
    answer = sum(int(chunk.sum()) for chunk in value_chunks)
    return lines, patterns, alts, shuffled, answer


def fast_transactions(
    layout: StorageLayout,
    txns: TransactionArrays | list[Transaction],
    rows,
    num_tuples: int,
    config: SystemConfig,
) -> FastDbOutcome:
    """Vectorized twin of the event transaction driver."""
    table = _FastTable(layout, num_tuples, config, rows)
    lines, patterns, alts, shuffled, writes, values, cells = (
        _transaction_stream(table, txns)
    )
    replay = DirtyReplay(config)
    replay.run(lines, patterns, alts, writes, shuffled)

    observed, final_flat = _last_write_wins(table.flat, cells, writes, values)
    stores = int(writes.sum())
    loads = int(writes.size) - stores
    instructions = (
        TXN_OVERHEAD_CYCLES * len(txns)
        + (FIELD_COMPUTE_CYCLES + 1) * int(writes.size)
    )
    result = replay.collect_result(
        instructions=instructions, loads=loads, stores=stores
    )
    replay.attach_session(result)
    return FastDbOutcome(
        result=result,
        component_stats=replay.component_stats(),
        observed=observed,
        final_rows=final_flat.reshape(num_tuples, table.schema.num_fields),
    )


def fast_analytics(
    layout: StorageLayout,
    query: AnalyticsQuery,
    rows,
    num_tuples: int,
    config: SystemConfig,
) -> FastDbOutcome:
    """Vectorized twin of the event analytics driver."""
    table = _FastTable(layout, num_tuples, config, rows)
    lines, patterns, alts, shuffled, answer = _analytics_stream(
        table, query, table.flat
    )
    replay = DirtyReplay(config)
    replay.run(
        lines, patterns, alts, np.zeros(lines.size, dtype=bool), shuffled
    )
    total_values = int(lines.size)
    instructions = (1 + SCAN_COMPUTE_CYCLES) * total_values
    result = replay.collect_result(
        instructions=instructions, loads=total_values, stores=0
    )
    replay.attach_session(result)
    return FastDbOutcome(
        result=result,
        component_stats=replay.component_stats(),
        answer=answer,
    )


def fast_htap_phased(
    layout: StorageLayout,
    txns_a: TransactionArrays | list[Transaction],
    txns_b: TransactionArrays | list[Transaction],
    query: AnalyticsQuery,
    rows,
    num_tuples: int,
    config: SystemConfig,
) -> FastDbOutcome:
    """Vectorized twin of the phased (fixed-txn-count) HTAP driver.

    Replays one single-core program — transaction batch A, the
    analytics scan over the mid-run table state, transaction batch B —
    exactly as the event driver executes it.
    """
    table = _FastTable(layout, num_tuples, config, rows)
    a = _transaction_stream(table, txns_a)
    _, mid_flat = _last_write_wins(table.flat, a[6], a[4], a[5])
    scan = _analytics_stream(table, query, mid_flat)
    b = _transaction_stream(table, txns_b)
    _, final_flat = _last_write_wins(mid_flat, b[6], b[4], b[5])

    scan_count = int(scan[0].size)
    lines = np.concatenate([a[0], scan[0], b[0]])
    patterns = np.concatenate([a[1], scan[1], b[1]])
    alts = np.concatenate([a[2], scan[2], b[2]])
    shuffled = np.concatenate([a[3], scan[3], b[3]])
    writes = np.concatenate(
        [a[4], np.zeros(scan_count, dtype=bool), b[4]]
    )
    replay = DirtyReplay(config)
    replay.run(lines, patterns, alts, writes, shuffled)

    txn_ops = int(a[4].size) + int(b[4].size)
    stores = int(a[4].sum()) + int(b[4].sum())
    loads = (txn_ops - stores) + scan_count
    instructions = (
        TXN_OVERHEAD_CYCLES * (len(txns_a) + len(txns_b))
        + (FIELD_COMPUTE_CYCLES + 1) * txn_ops
        + (1 + SCAN_COMPUTE_CYCLES) * scan_count
    )
    result = replay.collect_result(
        instructions=instructions, loads=loads, stores=stores
    )
    replay.attach_session(result)
    return FastDbOutcome(
        result=result,
        component_stats=replay.component_stats(),
        answer=scan[4],
        final_rows=final_flat.reshape(num_tuples, table.schema.num_fields),
    )
