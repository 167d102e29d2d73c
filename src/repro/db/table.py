"""Functional table oracles.

The simulator moves real bytes; :class:`OracleTable` is the plain-
Python ground truth the experiment drivers compare against. It applies
the same workload specifications (transactions, column sums) directly
to the table, one operation at a time, independent of any layout or
timing model. It never writes its master: the rows transactions touch
are copied into a dict of Python lists, so a paper-scale event run
verifies over the read-only master without a whole-table list.

:class:`VecOracleTable` is its columnar numpy twin (phase 3): the same
semantics over a read-only ``(num_tuples, num_fields)`` int64 master
plus the cells written since, with batch ``apply_all`` and vectorized
analytics, so oracle verification no longer dominates paper-scale
fast-mode runs and never copies a paper-scale table. The two implementations
deliberately share **no** code with each other or with the fast
engines in :mod:`repro.vec.db` — the scalar table stays the reference,
the vectorized table uses sort/searchsorted algorithms, and the fast
engine uses a running-max kernel, so agreement between any two is a
real check, not an identity (see ``repro check oracles``).
"""

from __future__ import annotations

import hashlib
from typing import Iterator

import numpy as np

from repro.cpu.stream import per_access
from repro.db.queries import FilterQuery, FilterResult, GroupByQuery
from repro.db.schema import TableSchema
from repro.db.workload import AnalyticsQuery, Transaction, TransactionArrays
from repro.errors import WorkloadError

#: Rows of an array master turned into lists at a time.
_SLICE = 4096


class OracleTable:
    """Ground-truth table contents and query semantics.

    The contents are a master the table never writes plus a
    copy-on-touch overlay: the first transaction to touch a tuple
    copies its row into a Python list, and every later read and write
    of that tuple goes to the copy. A read-only array master, such as
    :func:`~repro.db.workload.make_rows`', is used as is; any other
    input is copied once. :attr:`rows` and :meth:`snapshot` build the
    list-of-lists form only when asked.
    """

    def __init__(self, schema: TableSchema, rows) -> None:
        self.schema = schema
        if isinstance(rows, np.ndarray):
            if rows.flags.writeable:
                rows = rows.copy()
                rows.setflags(write=False)
            self._master = rows
        else:
            self._master = [list(row) for row in rows]
        self._touched: dict[int, list[int]] = {}

    @property
    def num_tuples(self) -> int:
        return len(self._master)

    def _row(self, tuple_id: int) -> list[int]:
        """The tuple's row in the overlay, copied on its first touch."""
        row = self._touched.get(tuple_id)
        if row is None:
            if not 0 <= tuple_id < len(self._master):
                raise WorkloadError(f"tuple {tuple_id} outside the table")
            row = self._master[tuple_id]
            row = row.tolist() if isinstance(row, np.ndarray) else list(row)
            self._touched[tuple_id] = row
        return row

    def apply_transaction(self, txn: Transaction) -> list[int]:
        """Apply one transaction; returns the values its reads observed."""
        observed = []
        row = self._row(txn.tuple_id)
        for op in txn.ops:
            if op.write:
                row[op.field] = op.value
            else:
                observed.append(row[op.field])
        return observed

    def apply_all(self, txns) -> list[int]:
        """Apply transactions in order; returns all observed read values.

        Accepts a ``list[Transaction]`` or a
        :class:`~repro.db.workload.TransactionArrays`, walked one
        operation at a time without building transaction objects.
        """
        if not isinstance(txns, TransactionArrays):
            observed = []
            for txn in txns:
                observed.extend(self.apply_transaction(txn))
            return observed
        observed = []
        last, row = None, None
        for tuple_id, field, write, value in per_access(
            txns.tuple_ids, txns.fields, txns.writes, txns.values
        ):
            if tuple_id != last:
                row = self._row(tuple_id)
                last = tuple_id
            if write:
                row[field] = value
            else:
                observed.append(row[field])
        return observed

    def _current_rows(self) -> Iterator[list[int]]:
        """Every row's current contents in tuple order; untouched rows
        come from the master, a slice at a time."""
        touched = self._touched
        master = self._master
        for start in range(0, len(master), _SLICE):
            part = master[start : start + _SLICE]
            if isinstance(part, np.ndarray):
                part = part.tolist()
            for tuple_id, row in enumerate(part, start):
                yield touched.get(tuple_id, row)

    @property
    def rows(self) -> list[list[int]]:
        """The current contents as a new list-of-lists."""
        return [list(row) for row in self._current_rows()]

    def column_sum(self, query: AnalyticsQuery) -> int:
        """The analytics answer: sum of the queried columns."""
        for field in query.fields:
            self.schema.validate_field(field)
        return sum(row[field] for row in self._current_rows()
                   for field in query.fields)

    def matches(self, block: np.ndarray, start: int = 0) -> bool:
        """True when ``block``, the table's rows from ``start`` on as a
        2-D array, equals the current contents there.

        Untouched rows are compared with the master, touched rows with
        the overlay; no expected table is built.
        """
        stop = start + len(block)
        master = np.asarray(self._master[start:stop], dtype=np.int64)
        master = master.reshape(-1, self.schema.num_fields)
        if block.shape != master.shape:
            return False
        differ = np.flatnonzero((block != master).any(axis=1)) + start
        touched = self._touched
        if any(tuple_id not in touched for tuple_id in differ.tolist()):
            return False
        return all(block[tuple_id - start].tolist() == row
                   for tuple_id, row in touched.items()
                   if start <= tuple_id < stop)

    def snapshot(self) -> list[list[int]]:
        """Deep copy of the current contents."""
        return self.rows


def _exact_sum(values: np.ndarray) -> int:
    """Sum an int64 array exactly, immune to int64 accumulator overflow.

    Split each value into its high and low 32-bit halves (the identity
    ``v == (v >> 32) << 32 | (v & 0xFFFFFFFF)`` holds for negatives
    under arithmetic shift), sum the halves — each partial sum stays
    far below 2**63 for any array under ~2**30 elements — and
    recombine in Python's unbounded integers.
    """
    if values.size == 0:
        return 0
    hi = int((values >> np.int64(32)).sum(dtype=np.int64))
    lo = int((values & np.int64(0xFFFFFFFF)).sum(dtype=np.int64))
    return (hi << 32) + lo


def table_digest(rows) -> str:
    """Stable sha256 of table contents (list-of-lists or ndarray)."""
    array = np.ascontiguousarray(np.asarray(rows, dtype=np.int64))
    if array.size == 0:
        # An empty list and a (0, num_fields) array are the same empty
        # table; normalise so their digests agree.
        array = array.reshape(0)
    digest = hashlib.sha256()
    digest.update(str(array.shape).encode())
    digest.update(array.tobytes())
    return digest.hexdigest()


class VecOracleTable:
    """Columnar ground truth: :class:`OracleTable` semantics in numpy.

    The contents are a read-only ``(num_tuples, num_fields)`` int64
    master plus the cells written since, kept sorted and unique with
    their current values (:attr:`written`). A read-only int64 array,
    such as :func:`~repro.db.workload.make_rows`' master, is used as
    is; any other input is copied once.

    :meth:`apply_all` consumes a whole transaction batch at once.
    Observed reads are resolved by sorting the batch's writes by (cell,
    program position) and binary-searching each read for the latest
    earlier write to its cell, then the written cells, then the master
    — an algorithm with nothing in common with either the scalar
    oracle's sequential replay or the fast engine's running-max kernel.
    :meth:`apply_all` and :meth:`column_sum` never build the full
    table; :attr:`rows`, :meth:`snapshot`, :meth:`digest`,
    :meth:`filter` and :meth:`groupby` build it on demand.
    """

    def __init__(self, schema: TableSchema, rows) -> None:
        self.schema = schema
        if (isinstance(rows, np.ndarray) and rows.dtype == np.int64
                and not rows.flags.writeable):
            master = rows
        else:
            master = np.array(rows, dtype=np.int64)
        if master.size == 0:
            master = master.reshape(0, schema.num_fields)
        if master.ndim != 2 or master.shape[1] != schema.num_fields:
            raise WorkloadError(
                f"rows shape {master.shape} does not match "
                f"{schema.num_fields}-field schema"
            )
        self._master = master
        self._flat = master.reshape(-1)
        self._cells = np.empty(0, dtype=np.int64)
        self._values = np.empty(0, dtype=np.int64)

    @property
    def num_tuples(self) -> int:
        return int(self._master.shape[0])

    @property
    def written(self) -> tuple[np.ndarray, np.ndarray]:
        """The cells written so far (``tuple * num_fields + field``,
        sorted and unique) and their current values."""
        return self._cells, self._values

    @property
    def rows(self) -> np.ndarray:
        """The current contents as a new ``(num_tuples, num_fields)``
        array."""
        table = self._master.copy()
        table.reshape(-1)[self._cells] = self._values
        return table

    def _current(self, cells: np.ndarray) -> np.ndarray:
        """The current value of each cell: its written value, else the
        master's."""
        values = self._flat[cells]
        if self._cells.size:
            at = np.minimum(np.searchsorted(self._cells, cells),
                            self._cells.size - 1)
            hit = self._cells[at] == cells
            values[hit] = self._values[at[hit]]
        return values

    def _write(self, cells: np.ndarray, values: np.ndarray) -> None:
        """Record the final values of a batch's written ``cells`` (sorted,
        unique) over the cells written before it."""
        at = np.minimum(np.searchsorted(cells, self._cells), cells.size - 1)
        kept = cells[at] != self._cells
        merged_cells = np.concatenate((self._cells[kept], cells))
        merged_values = np.concatenate((self._values[kept], values))
        order = np.argsort(merged_cells, kind="stable")
        self._cells = merged_cells[order]
        self._values = merged_values[order]

    def apply_all(self, txns) -> np.ndarray:
        """Apply a transaction batch; returns observed reads as int64.

        Accepts :class:`~repro.db.workload.TransactionArrays` (the
        batch form) or a ``list[Transaction]`` (flattened here, for
        tests and differential checks). Raises :class:`WorkloadError`
        for a tuple or field outside the table.
        """
        if isinstance(txns, TransactionArrays):
            tuple_ids = txns.tuple_ids
            fields = txns.fields
            writes = txns.writes
            values = txns.values
        else:
            flat = [
                (txn.tuple_id, op.field, op.write, op.value)
                for txn in txns
                for op in txn.ops
            ]
            if not flat:
                return np.empty(0, dtype=np.int64)
            ids, flds, wrs, vals = zip(*flat)
            tuple_ids = np.array(ids, dtype=np.int64)
            fields = np.array(flds, dtype=np.int64)
            writes = np.array(wrs, dtype=bool)
            values = np.array(vals, dtype=np.int64)
        if tuple_ids.size == 0:
            return np.empty(0, dtype=np.int64)

        num_fields = self.schema.num_fields
        for name, ids, limit in (("tuple", tuple_ids, self.num_tuples),
                                 ("field", fields, num_fields)):
            if int(ids.min()) < 0 or int(ids.max()) >= limit:
                raise WorkloadError(f"transaction {name} outside the table")
        cells = tuple_ids * num_fields + fields
        positions = np.arange(cells.size, dtype=np.int64)

        write_pos = positions[writes]
        write_cells = cells[writes]
        write_values = values[writes]
        # Stable sort by cell keeps program order within each cell, so
        # write runs are (cell, ascending position).
        order = np.argsort(write_cells, kind="stable")
        sorted_cells = write_cells[order]
        sorted_pos = write_pos[order]
        sorted_values = write_values[order]

        read_mask = ~writes
        read_cells = cells[read_mask]
        read_pos = positions[read_mask]
        observed = self._current(read_cells)
        if sorted_cells.size and read_cells.size:
            # Encode (cell, position) as one sortable key; position is
            # bounded by the batch length, so the encoding is exact.
            span = np.int64(cells.size + 1)
            write_keys = sorted_cells * span + sorted_pos
            read_keys = read_cells * span + read_pos
            prev = np.searchsorted(write_keys, read_keys, side="left") - 1
            hit = (prev >= 0) & (sorted_cells[np.maximum(prev, 0)] == read_cells)
            observed[hit] = sorted_values[prev[hit]]

        if sorted_cells.size:
            # Final state: the last write per cell is the last element
            # of each run in the (cell, position)-sorted order.
            last = np.flatnonzero(
                np.append(sorted_cells[1:] != sorted_cells[:-1], True)
            )
            self._write(sorted_cells[last], sorted_values[last])
        return observed

    def column_sum(self, query: AnalyticsQuery) -> int:
        """The analytics answer: exact sum of the queried columns, the
        master's corrected by the written cells."""
        num_fields = self.schema.num_fields
        total = 0
        for field in query.fields:
            self.schema.validate_field(field)
            mine = self._cells % num_fields == field
            total += (_exact_sum(self._master[:, field])
                      + _exact_sum(self._values[mine])
                      - _exact_sum(self._flat[self._cells[mine]]))
        return total

    def filter(self, query: FilterQuery) -> FilterResult:
        """Vectorized :func:`~repro.db.queries.oracle_filter` semantics."""
        self.schema.validate_field(query.predicate_field)
        table = self.rows
        predicate = table[:, query.predicate_field]
        threshold = np.int64(query.threshold)
        if query.op.value == "<":
            mask = predicate < threshold
        elif query.op.value == ">=":
            mask = predicate >= threshold
        else:
            mask = predicate == threshold
        matches = int(mask.sum())
        if query.value_field is None:
            return FilterResult(matches=matches, aggregate=matches)
        self.schema.validate_field(query.value_field)
        aggregate = _exact_sum(table[mask, query.value_field])
        return FilterResult(matches=matches, aggregate=aggregate)

    def groupby(self, query: GroupByQuery) -> dict[int, int]:
        """Vectorized :func:`~repro.db.queries.oracle_groupby` semantics."""
        self.schema.validate_field(query.key_field)
        self.schema.validate_field(query.value_field)
        table = self.rows
        keys = table[:, query.key_field]
        values = table[:, query.value_field]
        uniques, inverse = np.unique(keys, return_inverse=True)
        # Exact grouped sums via the same hi/lo split as _exact_sum;
        # np.add.at is unbuffered, so duplicate keys accumulate.
        hi = np.zeros(uniques.size, dtype=np.int64)
        lo = np.zeros(uniques.size, dtype=np.int64)
        np.add.at(hi, inverse, values >> np.int64(32))
        np.add.at(lo, inverse, values & np.int64(0xFFFFFFFF))
        return {
            int(key): (int(h) << 32) + int(l)
            for key, h, l in zip(uniques.tolist(), hi.tolist(), lo.tolist())
        }

    def digest(self) -> str:
        """Stable sha256 of the current contents."""
        return table_digest(self.rows)

    def snapshot(self) -> list[list[int]]:
        """Deep copy of the current contents, in scalar-oracle form."""
        return self.rows.tolist()
