"""Storage layouts: row store, column store, and the GS-DRAM store.

Each layout knows how to (a) allocate and load the table and (b) turn
a workload into one :class:`~repro.cpu.stream.AccessStream` of numpy
arrays in program order:

- :class:`RowStore` — tuples contiguous; a transaction touches one
  cache line, a column scan strides by the tuple size.
- :class:`ColumnStore` — one array per field; a column scan is
  contiguous, a transaction touches one line *per field*.
- :class:`GSDRAMStore` — physically a row store allocated with
  ``pattmalloc(shuffle=True, pattern=7)``; transactions use ordinary
  (pattern-0) accesses, column scans use ``pattload`` with pattern 7
  exactly like the paper's Figure 8 loop.

The streams, and the op adapters the event machine runs them through
(:meth:`StorageLayout.transaction_ops`,
:meth:`StorageLayout.analytics_ops`), are written once in the base
class; a layout supplies its allocation, its address arithmetic and
its PC bases. The fast path (:mod:`repro.vec.db`) attaches the same
layout to a bare allocator and replays the same streams.

All layouts move real data, so query answers are checked against an
oracle by the experiment drivers.
"""

from __future__ import annotations

import itertools
import struct
from typing import Callable, Iterator

import numpy as np

from repro.core.pattern import gather_spec
from repro.cpu.isa import Compute, Load, Store
from repro.cpu.stream import AccessStream, scan_ops
from repro.db.schema import TableSchema
from repro.db.workload import AnalyticsQuery, TransactionArrays
from repro.errors import WorkloadError
from repro.sim.system import System
from repro.vm.pattmalloc import PattAllocator

#: Per-transaction bookkeeping cost (begin/commit, index lookup), cycles.
TXN_OVERHEAD_CYCLES = 60
#: Per-field-access address computation cost, cycles.
FIELD_COMPUTE_CYCLES = 2

ValueSink = Callable[[int], None]


def _u64(data: bytes) -> int:
    return struct.unpack("<Q", data)[0]


def _u64_table(rows, num_fields: int) -> np.ndarray:
    """``rows`` (lists or an array) as a little-endian u64 table.

    An int64 array, such as the read-only master, is viewed, not
    copied.
    """
    if isinstance(rows, np.ndarray) and rows.dtype == np.int64:
        rows = rows.view("<u8")
    return np.asarray(rows, dtype="<u8").reshape(-1, num_fields)


def _raw(array: np.ndarray) -> np.ndarray:
    """A 1-D array's bytes as a uint8 view (copied only when the
    array is strided, as one column of a row-major table is)."""
    return np.ascontiguousarray(array).view(np.uint8)


class StorageLayout:
    """Common interface of the layouts.

    A subclass supplies :meth:`_allocate`, :meth:`field_addresses`,
    :meth:`cells` and the PC bases below; the streams and the op
    adapters are shared.
    """

    name = "base"
    mechanism_label = "base"
    #: PC bases of transaction loads, transaction stores and scan loads;
    #: each access adds its field.
    txn_load_pc = 0
    txn_store_pc = 0
    scan_pc = 0
    #: Page attributes of the table's allocation.
    shuffled = False
    pattern = 0

    def __init__(self, schema: TableSchema | None = None) -> None:
        self.schema = schema or TableSchema()
        self.memory: System | PattAllocator | None = None
        self.system: System | None = None
        self.num_tuples = 0

    # -- setup ----------------------------------------------------------
    def attach(self, memory: System | PattAllocator, num_tuples: int) -> None:
        """Allocate the table's storage through ``memory``.

        ``memory`` is a :class:`System` or a bare :class:`PattAllocator`,
        the allocator a System wraps: the fast path builds no machine
        but places the table at the same addresses.
        """
        self.memory = memory
        self.system = memory if isinstance(memory, System) else None
        self.num_tuples = num_tuples
        self._allocate(memory)

    def _allocate(self, memory: System | PattAllocator) -> None:
        raise NotImplementedError

    def load_rows(self, rows) -> None:
        """Functionally load table contents (no simulated time)."""
        raise NotImplementedError

    def read_rows(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Functionally read tuples ``start`` to ``stop`` back (the whole
        table by default) as a ``(tuples, num_fields)`` int64 array."""
        raise NotImplementedError

    def _span(self, start: int, stop: int | None) -> tuple[int, int]:
        """``[start, stop)`` clipped to the table."""
        stop = self.num_tuples if stop is None else min(stop, self.num_tuples)
        return start, max(stop, start)

    # -- address arithmetic ---------------------------------------------
    def field_addresses(self, tuple_ids, fields) -> np.ndarray:
        """Byte address of each (tuple, field) cell; arrays broadcast."""
        raise NotImplementedError

    def cells(self, addresses) -> np.ndarray:
        """Inverse of :meth:`field_addresses`: ``tuple * fields + field``.

        Raises :class:`WorkloadError` for an address outside the table.
        """
        raise NotImplementedError

    def field_address(self, tuple_id: int, field: int) -> int:
        return int(self.field_addresses(tuple_id, field))

    # -- workloads -> streams -------------------------------------------
    def _stream(self, addresses, patterns, pcs, **accesses) -> AccessStream:
        return AccessStream.build(addresses, patterns, pcs, alt=self.pattern,
                                  shuffled=self.shuffled, **accesses)

    def transaction_stream(self, txns: TransactionArrays) -> AccessStream:
        """Every field access of a transaction batch, pattern 0."""
        self._require_attached()
        tuple_ids, fields, writes = txns.tuple_ids, txns.fields, txns.writes
        for name, ids, limit in (("tuple id", tuple_ids, self.num_tuples),
                                 ("field", fields, self.schema.num_fields)):
            if ids.size and not (0 <= int(ids.min()) and int(ids.max()) < limit):
                raise WorkloadError(f"{name} out of range")
        pcs = np.where(writes, self.txn_store_pc, self.txn_load_pc) + fields
        return self._stream(self.field_addresses(tuple_ids, fields), 0, pcs,
                            writes=writes, values=txns.values)

    def scan_stream(self, query: AnalyticsQuery) -> AccessStream:
        """The queried columns, one after another, tuple by tuple."""
        fields = self._scan_fields(query)
        tuple_ids = np.arange(self.num_tuples, dtype=np.int64)
        addresses = self.field_addresses(tuple_ids[None, :], fields[:, None])
        pcs = np.repeat(self.scan_pc + fields, self.num_tuples)
        return self._stream(addresses.reshape(-1), 0, pcs)

    def _scan_fields(self, query: AnalyticsQuery) -> np.ndarray:
        self._require_attached()
        for field in query.fields:
            self.schema.validate_field(field)
        return np.array(query.fields, dtype=np.int64)

    # -- streams -> ops ---------------------------------------------------
    def transaction_ops(
        self, txns: TransactionArrays, on_read: ValueSink | None = None
    ) -> Iterator:
        """Ops for a transaction batch, in order.

        Per transaction: its bookkeeping, then per field access an
        address computation and the load or store.
        """
        stream = self.transaction_stream(txns)
        sink = (lambda data: on_read(_u64(data))) if on_read else None
        accesses = zip(stream.addresses.tolist(), stream.patterns.tolist(),
                       stream.writes.tolist(), stream.values.tolist(),
                       stream.pcs.tolist())
        per_txn = txns.mix.ops_per_txn
        for _ in range(len(txns)):
            yield Compute(TXN_OVERHEAD_CYCLES)
            for address, pattern, write, value, pc in itertools.islice(
                accesses, per_txn
            ):
                yield Compute(FIELD_COMPUTE_CYCLES)
                if write:
                    yield Store(address, struct.pack("<Q", value),
                                pattern=pattern, pc=pc)
                else:
                    yield Load(address, pattern=pattern, pc=pc, on_value=sink)

    def analytics_ops(self, query: AnalyticsQuery, on_value: ValueSink) -> Iterator:
        """Ops for a full-column-sum analytics query."""
        return scan_ops(self.scan_stream(query),
                        lambda data: on_value(_u64(data)))

    # -- helpers ----------------------------------------------------------
    def _require_attached(self) -> None:
        if self.memory is None:
            raise WorkloadError(f"{self.name}: attach() before generating ops")

    def _require_system(self) -> System:
        if self.system is None:
            raise WorkloadError(f"{self.name}: attach() to a System to move data")
        return self.system

    def _check_offsets(self, offsets: np.ndarray, size: int) -> None:
        if offsets.size and (
            int(offsets.min()) < 0
            or int(offsets.max()) >= size
            or (offsets % self.schema.field_bytes).any()
        ):
            raise WorkloadError(f"{self.name}: address outside the table")


class RowStore(StorageLayout):
    """Tuple-major layout on commodity DRAM."""

    name = "Row Store"
    mechanism_label = "row"
    txn_load_pc = 0x1000
    txn_store_pc = 0x1100
    scan_pc = 0x2000

    def _allocate(self, memory) -> None:
        self.base = memory.malloc(self.num_tuples * self.schema.tuple_bytes)

    def field_addresses(self, tuple_ids, fields) -> np.ndarray:
        return (self.base + tuple_ids * self.schema.tuple_bytes
                + fields * self.schema.field_bytes)

    def cells(self, addresses) -> np.ndarray:
        offsets = np.asarray(addresses, dtype=np.int64) - self.base
        self._check_offsets(offsets, self.num_tuples * self.schema.tuple_bytes)
        # A tuple is exactly ``num_fields`` fields wide.
        return offsets // self.schema.field_bytes

    def load_rows(self, rows) -> None:
        table = _u64_table(rows, self.schema.num_fields)
        self._require_system().mem_write(self.base, _raw(table.reshape(-1)))

    def read_rows(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        system = self._require_system()
        start, stop = self._span(start, stop)
        tuple_bytes = self.schema.tuple_bytes
        raw = system.mem_read(self.base + start * tuple_bytes,
                              (stop - start) * tuple_bytes)
        return np.frombuffer(raw, dtype="<i8").reshape(-1, self.schema.num_fields)


class ColumnStore(StorageLayout):
    """Field-major (DSM) layout on commodity DRAM."""

    name = "Column Store"
    mechanism_label = "column"
    txn_load_pc = 0x1200
    txn_store_pc = 0x1300
    scan_pc = 0x2100

    def _allocate(self, memory) -> None:
        size = self.num_tuples * self.schema.field_bytes
        self.column_bases = np.array(
            [memory.malloc(size) for _ in range(self.schema.num_fields)],
            dtype=np.int64,
        )

    def field_addresses(self, tuple_ids, fields) -> np.ndarray:
        return self.column_bases[fields] + tuple_ids * self.schema.field_bytes

    def cells(self, addresses) -> np.ndarray:
        addresses = np.asarray(addresses, dtype=np.int64)
        # The bump allocator hands out ascending column bases.
        fields = np.searchsorted(self.column_bases, addresses, side="right") - 1
        offsets = np.where(
            fields < 0, -1, addresses - self.column_bases[np.maximum(fields, 0)]
        )
        self._check_offsets(offsets, self.num_tuples * self.schema.field_bytes)
        return offsets // self.schema.field_bytes * self.schema.num_fields + fields

    def load_rows(self, rows) -> None:
        system = self._require_system()
        table = _u64_table(rows, self.schema.num_fields)
        for field, base in enumerate(self.column_bases.tolist()):
            system.mem_write(base, _raw(table[:, field]))

    def read_rows(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        system = self._require_system()
        start, stop = self._span(start, stop)
        field_bytes = self.schema.field_bytes
        columns = [
            np.frombuffer(system.mem_read(base + start * field_bytes,
                                          (stop - start) * field_bytes),
                          dtype="<i8")
            for base in self.column_bases.tolist()
        ]
        return np.stack(columns, axis=1)


class GSDRAMStore(RowStore):
    """Row-store layout on GS-DRAM: pattern 0 for tuples, pattern 7 for
    field scans (with 8 fields per tuple)."""

    name = "GS-DRAM"
    mechanism_label = "gs-dram"
    txn_load_pc = 0x1400
    txn_store_pc = 0x1500
    #: PCs of the first pattload of each gathered line and of the
    #: remaining (cache-hitting) pattloads.
    lead_pc = 0x2200
    body_pc = 0x2280
    shuffled = True

    def __init__(self, schema: TableSchema | None = None) -> None:
        super().__init__(schema)
        self.pattern = self.schema.gather_pattern

    def attach(self, memory: System | PattAllocator, num_tuples: int) -> None:
        if num_tuples % self.schema.num_fields != 0:
            raise WorkloadError(
                "GS-DRAM store needs tuple count divisible by the gather "
                f"group size ({self.schema.num_fields})"
            )
        if isinstance(memory, System) and not memory.module.supports_patterns:
            raise WorkloadError("GSDRAMStore requires a GS-DRAM system")
        super().attach(memory, num_tuples)

    def _allocate(self, memory) -> None:
        self.base = memory.pattmalloc(
            self.num_tuples * self.schema.tuple_bytes, shuffle=True,
            pattern=self.pattern,
        )

    def gather_addresses(self, group_starts, fields, positions) -> np.ndarray:
        """Address of the ``positions``-th value in a gathered line.

        The gathered line whose issued column is ``group_start + field``
        holds field ``field`` of the 8 tuples starting at the (aligned)
        ``group_start``; offsets walk the gathered values, exactly like
        the paper's Figure 8 loop. Arrays broadcast.
        """
        return (self.base + (group_starts + fields) * self.schema.tuple_bytes
                + positions * self.schema.field_bytes)

    def gather_address(self, group_start: int, field: int, position: int) -> int:
        return int(self.gather_addresses(group_start, field, position))

    def scan_stream(self, query: AnalyticsQuery) -> AccessStream:
        """Per group of 8 tuples, the 8 pattloads of one gathered line."""
        fields = self._scan_fields(query)[:, None, None]
        group = self.schema.num_fields
        starts = np.arange(0, self.num_tuples, group, dtype=np.int64)
        positions = np.arange(group, dtype=np.int64)
        addresses = self.gather_addresses(
            starts[None, :, None], fields, positions[None, None, :]
        )
        pcs = np.where(positions == 0, self.lead_pc, self.body_pc) + fields
        pcs = np.broadcast_to(pcs, addresses.shape)
        return self._stream(addresses.reshape(-1), self.pattern,
                            pcs.reshape(-1))


class PartialGatherStore(GSDRAMStore):
    """A GS store that scans with a smaller-stride pattern.

    With pattern ``p = 2^s - 1`` (s < 3), one gathered line holds field
    ``f`` for only ``2^s`` tuples (the other chips return other
    fields), so a field scan needs ``8 / 2^s`` gathers per 8-tuple
    group, touching proportionally more lines. The useful positions
    within each gathered line are computed from the gather geometry —
    the same mapping knowledge pattern-aware software always needs.

    Used by the shuffle-stage sweep; registered with the run-spec
    layout registry as ``partial-gather-<pattern>``.
    """

    name = "Partial Gather"
    lead_pc = 0x7300
    body_pc = 0x7380

    def __init__(self, pattern: int) -> None:
        super().__init__()
        self.pattern = pattern

    def scan_stream(self, query: AnalyticsQuery) -> AccessStream:
        """Per window of ``pattern + 1`` tuples, the positions of one
        gathered line that hold the queried field."""
        fields = self._scan_fields(query)
        pattern = self.pattern
        group = pattern + 1
        chips = self.schema.num_fields
        columns_per_row = 128
        addresses: list[int] = []
        pcs: list[int] = []
        for field in fields.tolist():
            for window in range(0, self.num_tuples, group):
                # The gathered line holding field `field` of tuples
                # window..window+group-1 is issued at this column:
                column = window + (field & pattern)
                spec = gather_spec(chips, pattern, column % columns_per_row)
                # Positions whose gathered value is field `field` of a
                # window tuple (value index == field).
                positions = [i for i, idx in enumerate(spec.indices)
                             if idx % chips == field]
                for rank, position in enumerate(positions):
                    addresses.append(
                        self.gather_address(window, field & pattern, position)
                    )
                    pcs.append((self.body_pc if rank else self.lead_pc) + field)
        return self._stream(addresses, pattern, pcs)


def all_layouts(schema: TableSchema | None = None) -> list[StorageLayout]:
    """Fresh instances of the three layouts (one experiment each)."""
    return [RowStore(schema), ColumnStore(schema), GSDRAMStore(schema)]
