"""Fast paths of the DB query engines (fig9/fig10/fig11, phase 2).

The event drivers in :mod:`repro.db.engine` run a layout's access
stream through its op adapters, executing every field access as an
interpreted instruction against real simulated bytes. These drivers
replay the *same* stream with no machine:

- the layout is attached to a bare
  :class:`~repro.vm.pattmalloc.PattAllocator` with the System's
  geometry, so the allocation, and with it every bank/row coordinate,
  matches the event machine exactly;
- cache/DBI/controller accounting is replayed by
  :class:`~repro.vec.hier.DirtyReplay` (stat-exact by construction,
  verified stat-by-stat by :mod:`repro.check.fastpath`);
- read values and the final table state come from a vectorized
  last-write-wins pass over the cells the stream's addresses name
  (:meth:`~repro.db.layouts.StorageLayout.cells`). Scan values are
  read at :func:`~repro.vec.kernels.loaded_addresses`, so a bug in the
  gather math breaks verification instead of hiding.

The table is never copied. Its state is the read-only master the
caller passes (:func:`~repro.db.workload.make_rows`) plus an
overlay: the sorted, unique cells the transactions wrote and their
final values. Everything is read through master-plus-overlay, and the
overlay is the run's final table state.

The engine dispatch offers fast mode for the three standard layouts
only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cpu.stream import SCAN_COMPUTE_CYCLES, AccessStream
from repro.db.layouts import (
    FIELD_COMPUTE_CYCLES,
    TXN_OVERHEAD_CYCLES,
    StorageLayout,
)
from repro.db.workload import AnalyticsQuery, TransactionArrays
from repro.errors import WorkloadError
from repro.sim.config import Mechanism, SystemConfig
from repro.sim.results import RunResult
from repro.vec.hier import DirtyReplay
from repro.vec.kernels import loaded_addresses
from repro.vm.pattmalloc import PattAllocator


#: Written cells and their values: two int64 arrays, the cells sorted
#: and unique.
Overlay = tuple[np.ndarray, np.ndarray]

_NO_WRITES: Overlay = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))


@dataclass
class FastDbOutcome:
    """What a vectorized DB driver hands back to the engine dispatch.

    ``observed`` is an int64 ndarray of the values the reads saw, and
    ``written`` the overlay of the run's final table state: the sorted
    cells its transactions wrote and each one's final value. The
    engine verifies both against the vectorized oracle with
    ``np.array_equal``. Both sides start from the same read-only
    master, so equal overlays mean equal final tables.
    """

    result: RunResult
    component_stats: dict
    observed: np.ndarray | None = None
    written: Overlay | None = None
    answer: int | None = None


def _attach(layout: StorageLayout, num_tuples: int, config: SystemConfig,
            rows) -> np.ndarray:
    """Attach ``layout`` as ``config``'s System would place it; returns
    the table contents flattened to cells (a view of a read-only int64
    master, not a copy)."""
    geometry = config.geometry
    layout.attach(
        PattAllocator(
            capacity_bytes=geometry.capacity_bytes,
            line_bytes=geometry.line_bytes,
            row_bytes=geometry.row_bytes,
        ),
        num_tuples,
    )
    if layout.shuffled and config.mechanism is not Mechanism.GS_DRAM:
        raise WorkloadError(f"{type(layout).__name__} requires a GS-DRAM system")
    flat = np.asarray(rows, dtype=np.int64).reshape(-1)
    if flat.size != num_tuples * layout.schema.num_fields:
        raise WorkloadError(
            f"expected {num_tuples}x{layout.schema.num_fields} table contents"
        )
    return flat


def _last_write_wins(flat: np.ndarray, overlay: Overlay, cells: np.ndarray,
                     writes: np.ndarray, values: np.ndarray):
    """Vectorized transaction semantics over ``flat`` with ``overlay``
    laid over it.

    For each operation, the value it observes is the value of the last
    *write* to the same cell at an earlier stream position, or else the
    cell's value in the overlay, or else in ``flat``. Returns
    ``(observed_reads, overlay)``, the second the input overlay with
    this stream's final writes laid over it.

    The overlay enters as writes ahead of the stream. Then: sort stable
    by cell, encode each op as ``cell * (N + 1) + key`` with
    ``key = position + 1`` for writes and ``0`` for reads, and take a
    running max — within one cell's group the running max always
    decodes to the latest write seen so far.
    """
    base_cells, base_values = overlay
    cells = np.concatenate((base_cells, cells))
    writes = np.concatenate((np.ones(base_cells.size, dtype=bool), writes))
    values = np.concatenate((base_values, values))
    total = int(cells.size)
    if total == 0:
        return np.empty(0, dtype=np.int64), overlay
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

    group_end = np.ones(total, dtype=bool)
    group_end[:-1] = sorted_cells[1:] != sorted_cells[:-1]
    end_writes = last_write[group_end]
    written = end_writes >= 0
    return observed, (sorted_cells[group_end][written],
                      values[end_writes[written]])


def _apply(layout: StorageLayout, flat: np.ndarray, overlay: Overlay,
           stream: AccessStream):
    """(observed reads, overlay after it) of a transaction stream."""
    return _last_write_wins(flat, overlay, layout.cells(stream.addresses),
                            stream.writes, stream.values)


def _scan_answer(layout: StorageLayout, stream: AccessStream,
                 flat: np.ndarray, overlay: Overlay,
                 config: SystemConfig) -> int:
    """The sum of the values a scan stream reads through ``overlay``."""
    cells = layout.cells(
        loaded_addresses(stream.addresses, stream.patterns, config)
    )
    values = flat[cells]
    touched = np.isin(cells, overlay[0])
    if touched.any():
        reads = cells[touched]
        seen, _ = _last_write_wins(flat, overlay, reads,
                                   np.zeros(reads.size, dtype=bool),
                                   np.zeros(reads.size, dtype=np.int64))
        values[touched] = seen
    return int(values.sum())


def _replay(config: SystemConfig, *streams: AccessStream,
            instructions: int, **outcome) -> FastDbOutcome:
    """Replay ``streams`` in order through one :class:`DirtyReplay`."""
    replay = DirtyReplay(config)
    line_bytes = config.geometry.line_bytes
    for stream in streams:
        replay.run(stream.line_addresses(line_bytes), stream.patterns,
                   stream.alts, stream.writes, stream.shuffled)
    accesses = sum(len(stream) for stream in streams)
    stores = sum(int(stream.writes.sum()) for stream in streams)
    result = replay.collect_result(
        instructions=instructions, loads=accesses - stores, stores=stores
    )
    replay.attach_session(result)
    return FastDbOutcome(result=result,
                         component_stats=replay.component_stats(), **outcome)


def _txn_instructions(stream: AccessStream, txns: TransactionArrays) -> int:
    return (TXN_OVERHEAD_CYCLES * len(txns)
            + (FIELD_COMPUTE_CYCLES + 1) * len(stream))


def fast_transactions(
    layout: StorageLayout,
    txns: TransactionArrays,
    rows,
    num_tuples: int,
    config: SystemConfig,
) -> FastDbOutcome:
    """Vectorized twin of the event transaction driver."""
    flat = _attach(layout, num_tuples, config, rows)
    stream = layout.transaction_stream(txns)
    observed, written = _apply(layout, flat, _NO_WRITES, stream)
    return _replay(
        config, stream,
        instructions=_txn_instructions(stream, txns),
        observed=observed,
        written=written,
    )


def fast_analytics(
    layout: StorageLayout,
    query: AnalyticsQuery,
    rows,
    num_tuples: int,
    config: SystemConfig,
) -> FastDbOutcome:
    """Vectorized twin of the event analytics driver."""
    flat = _attach(layout, num_tuples, config, rows)
    stream = layout.scan_stream(query)
    return _replay(
        config, stream,
        instructions=(1 + SCAN_COMPUTE_CYCLES) * len(stream),
        answer=_scan_answer(layout, stream, flat, _NO_WRITES, config),
    )


def fast_htap_phased(
    layout: StorageLayout,
    txns_a: TransactionArrays,
    txns_b: TransactionArrays,
    query: AnalyticsQuery,
    rows,
    num_tuples: int,
    config: SystemConfig,
) -> FastDbOutcome:
    """Vectorized twin of the phased (fixed-txn-count) HTAP driver.

    Replays one single-core program — transaction batch A, the
    analytics scan over the mid-run table state, transaction batch B —
    exactly as the event driver executes it. Batch A's writes are an
    overlay on the master, read by the scan and by batch B.
    """
    flat = _attach(layout, num_tuples, config, rows)
    a = layout.transaction_stream(txns_a)
    scan = layout.scan_stream(query)
    b = layout.transaction_stream(txns_b)
    _, mid = _apply(layout, flat, _NO_WRITES, a)
    answer = _scan_answer(layout, scan, flat, mid, config)
    _, written = _apply(layout, flat, mid, b)
    return _replay(
        config, a, scan, b,
        instructions=(
            _txn_instructions(a, txns_a) + _txn_instructions(b, txns_b)
            + (1 + SCAN_COMPUTE_CYCLES) * len(scan)
        ),
        answer=answer,
        written=written,
    )
