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


def _attach(layout: StorageLayout, num_tuples: int, config: SystemConfig,
            rows) -> np.ndarray:
    """Attach ``layout`` as ``config``'s System would place it; returns
    the table contents flattened to cells."""
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


def _apply(layout: StorageLayout, flat: np.ndarray, stream: AccessStream):
    """(observed reads, final cells) of a transaction stream over ``flat``."""
    return _last_write_wins(flat, layout.cells(stream.addresses),
                            stream.writes, stream.values)


def _scan_answer(layout: StorageLayout, stream: AccessStream,
                 flat: np.ndarray, config: SystemConfig) -> int:
    """The sum of the values a scan stream reads from ``flat``."""
    loaded = loaded_addresses(stream.addresses, stream.patterns, config)
    return int(flat[layout.cells(loaded)].sum())


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
    observed, final_flat = _apply(layout, flat, stream)
    return _replay(
        config, stream,
        instructions=_txn_instructions(stream, txns),
        observed=observed,
        final_rows=final_flat.reshape(num_tuples, layout.schema.num_fields),
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
        answer=_scan_answer(layout, stream, flat, config),
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
    exactly as the event driver executes it.
    """
    flat = _attach(layout, num_tuples, config, rows)
    a = layout.transaction_stream(txns_a)
    scan = layout.scan_stream(query)
    b = layout.transaction_stream(txns_b)
    _, mid_flat = _apply(layout, flat, a)
    answer = _scan_answer(layout, scan, mid_flat, config)
    _, final_flat = _apply(layout, mid_flat, b)
    return _replay(
        config, a, scan, b,
        instructions=(
            _txn_instructions(a, txns_a) + _txn_instructions(b, txns_b)
            + (1 + SCAN_COMPUTE_CYCLES) * len(scan)
        ),
        answer=answer,
        final_rows=final_flat.reshape(num_tuples, layout.schema.num_fields),
    )
