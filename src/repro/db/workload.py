"""Workload generators for the database evaluation (Section 5.1).

Three workload families, matching the paper:

- **Transactions**: each transaction touches one randomly-chosen tuple,
  reading ``i`` fields, writing ``j`` fields, and reading+writing ``k``
  fields (the x-axis labels of Figure 9 are "i-j-k").
- **Analytics**: sum ``k`` full columns of the table (Figure 10 uses
  k = 1 and k = 2).
- **HTAP**: one analytics thread plus one transactions thread running
  concurrently on the same table (Figure 11; transactions use one
  read-only and one write-only field).

Workloads are layout-independent *specifications*; the layouts in
:mod:`repro.db.layouts` translate them into instruction streams.

Generation is vectorized (phase 3): the canonical transaction stream
for a (schema, num_tuples, mix, count, seed) tuple is drawn in batch
with numpy (:func:`generate_transaction_arrays`), and the table master
copy is a memoized read-only numpy array (:func:`make_rows_array`).
:func:`generate_transactions` / :func:`make_rows` derive the
object/list forms the event drivers consume from the same draws, so
both execution modes always see the same workload.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field

import numpy as np

from repro.db.schema import TableSchema
from repro.errors import WorkloadError

#: Write values are drawn below 2**40 (distinguishable from the
#: initial table contents, which are drawn below 2**32).
VALUE_BITS = 40


@dataclass(frozen=True)
class FieldOp:
    """One field access within a transaction."""

    field: int
    write: bool
    value: int = 0  # value stored when write is True


@dataclass(frozen=True)
class Transaction:
    """One transaction: an ordered list of field accesses to one tuple."""

    tuple_id: int
    ops: tuple[FieldOp, ...]


@dataclass(frozen=True)
class TransactionMix:
    """The paper's i-j-k workload label."""

    read_only: int
    write_only: int
    read_write: int

    @property
    def label(self) -> str:
        return f"{self.read_only}-{self.write_only}-{self.read_write}"

    @property
    def total_fields(self) -> int:
        return self.read_only + self.write_only + self.read_write

    @property
    def ops_per_txn(self) -> int:
        """Field accesses per transaction (read-write fields cost two)."""
        return self.read_only + self.write_only + 2 * self.read_write


#: The eight mixes on Figure 9's x-axis, sorted by total fields accessed.
FIGURE9_MIXES = (
    TransactionMix(1, 0, 1),
    TransactionMix(2, 1, 0),
    TransactionMix(0, 2, 2),
    TransactionMix(2, 4, 0),
    TransactionMix(5, 0, 1),
    TransactionMix(2, 0, 4),
    TransactionMix(6, 1, 0),
    TransactionMix(4, 2, 2),
)


@dataclass(frozen=True)
class TransactionArrays:
    """A transaction batch as flat per-operation arrays, program order.

    The columnar twin of ``list[Transaction]``: operation ``p`` touches
    field ``fields[p]`` of tuple ``tuple_ids[p]``; ``writes[p]`` marks
    stores and ``values[p]`` carries the stored value (0 for reads).
    The vectorized engines (:mod:`repro.vec.db`) and the vectorized
    oracle (:class:`~repro.db.table.VecOracleTable`) consume this form
    directly; :meth:`to_transactions` materializes the object form for
    the event drivers. All arrays are read-only views.
    """

    mix: TransactionMix
    count: int
    tuple_ids: np.ndarray
    fields: np.ndarray
    writes: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return self.count

    def to_transactions(self) -> list[Transaction]:
        """The equivalent ``list[Transaction]`` (event-driver form)."""
        per = self.mix.ops_per_txn
        tuple_ids = self.tuple_ids[::per].tolist() if per else []
        fields = self.fields.tolist()
        writes = self.writes.tolist()
        values = self.values.tolist()
        txns = []
        for t in range(self.count):
            base = t * per
            ops = tuple(
                FieldOp(fields[base + o], writes[base + o],
                        values[base + o])
                for o in range(per)
            )
            txns.append(Transaction(tuple_id=tuple_ids[t] if per else 0,
                                    ops=ops))
        return txns


def _check_mix(schema: TableSchema, mix: TransactionMix) -> None:
    if mix.total_fields > schema.num_fields:
        raise WorkloadError(
            f"mix {mix.label} touches {mix.total_fields} fields, "
            f"schema has {schema.num_fields}"
        )


def generate_transaction_arrays(
    schema: TableSchema,
    num_tuples: int,
    mix: TransactionMix,
    count: int,
    seed: int = 42,
) -> TransactionArrays:
    """Deterministic transaction stream for one i-j-k mix, in batch.

    Each transaction picks a random tuple and ``i + j + k`` distinct
    random fields; read-write fields produce a read op followed by a
    write op (a read-modify-write). All draws are batched numpy RNG
    calls — no per-transaction Python loop — and this function defines
    the canonical stream: :func:`generate_transactions` is a view of
    the same draws.
    """
    _check_mix(schema, mix)
    i, j, k = mix.read_only, mix.write_only, mix.read_write
    per = mix.ops_per_txn
    rng = np.random.default_rng(seed)
    if count <= 0 or per == 0:
        empty = np.empty(0, dtype=np.int64)
        empty.setflags(write=False)
        empty_b = np.empty(0, dtype=bool)
        empty_b.setflags(write=False)
        return TransactionArrays(mix, max(count, 0), empty, empty,
                                 empty_b, empty)

    txn_tuples = rng.integers(num_tuples, size=count, dtype=np.int64)
    # Distinct fields per transaction: an independent permutation of
    # the schema's field ids per row, truncated to the mix width.
    perms = rng.permuted(
        np.broadcast_to(
            np.arange(schema.num_fields, dtype=np.int64),
            (count, schema.num_fields),
        ),
        axis=1,
    )[:, : mix.total_fields]
    draws = rng.integers(1 << VALUE_BITS, size=(count, j + k),
                         dtype=np.int64)

    fields = np.empty((count, per), dtype=np.int64)
    writes = np.zeros(per, dtype=bool)
    values = np.zeros((count, per), dtype=np.int64)
    fields[:, : i + j] = perms[:, : i + j]
    writes[i : i + j] = True
    values[:, i : i + j] = draws[:, :j]
    if k:
        # Read-modify-write: each field appears twice, read then write.
        fields[:, i + j :] = np.repeat(perms[:, i + j :], 2, axis=1)
        writes[i + j + 1 :: 2] = True
        values[:, i + j + 1 :: 2] = draws[:, j:]

    out = TransactionArrays(
        mix=mix,
        count=count,
        tuple_ids=np.repeat(txn_tuples, per),
        fields=fields.reshape(-1),
        writes=np.tile(writes, count),
        values=values.reshape(-1),
    )
    for array in (out.tuple_ids, out.fields, out.writes, out.values):
        array.setflags(write=False)
    return out


def generate_transactions(
    schema: TableSchema,
    num_tuples: int,
    mix: TransactionMix,
    count: int,
    seed: int = 42,
) -> list[Transaction]:
    """Deterministic transaction stream for one i-j-k mix.

    The object form of :func:`generate_transaction_arrays` — same
    draws, same program order — consumed by the event drivers and any
    caller that wants per-transaction objects.
    """
    return generate_transaction_arrays(
        schema, num_tuples, mix, count, seed
    ).to_transactions()


@dataclass(frozen=True)
class AnalyticsQuery:
    """Sum one or more full columns."""

    fields: tuple[int, ...]

    @property
    def label(self) -> str:
        n = len(self.fields)
        return f"{n} Column" + ("s" if n != 1 else "")


@dataclass(frozen=True)
class HTAPWorkload:
    """Figure 11: analytics on one column + open-ended transactions.

    The transaction thread reads one field and writes another
    (mix 1-1-0), running until the analytics thread completes.
    """

    analytics: AnalyticsQuery = field(default_factory=lambda: AnalyticsQuery((0,)))
    txn_mix: TransactionMix = field(default_factory=lambda: TransactionMix(1, 1, 0))
    txn_seed: int = 7


@functools.lru_cache(maxsize=4)
def _rows_master(schema: TableSchema, num_tuples: int, seed: int) -> np.ndarray:
    """Immutable master copy of one seeded table, as a numpy array.

    A figure sweep generates the *same* table once per layout (and the
    fast path once more for its event twin); at paper scale (1M x 8)
    the seeded generation dwarfs a copy, so memoise one batched RNG
    draw and let :func:`make_rows` / :func:`make_rows_array` hand out
    the views each caller needs. The array is marked read-only — every
    mutable consumer copies.
    """
    rng = np.random.default_rng(seed)
    rows = rng.integers(1 << 32, size=(num_tuples, schema.num_fields),
                        dtype=np.int64)
    rows.setflags(write=False)
    return rows


def make_rows_array(
    schema: TableSchema, num_tuples: int, seed: int = 1
) -> np.ndarray:
    """Deterministic table contents as a read-only (n, fields) array."""
    return _rows_master(schema, num_tuples, seed)


def make_rows(schema: TableSchema, num_tuples: int, seed: int = 1) -> list[list[int]]:
    """Deterministic table contents (the functional oracle's source)."""
    return _rows_master(schema, num_tuples, seed).tolist()


def clear_workload_caches() -> None:
    """Drop the memoized master tables (cold-timing benchmarks)."""
    _rows_master.cache_clear()


# Kept for callers that need a seeded scalar RNG compatible with the
# pre-phase-3 generator (none in-tree; the vectorized draws above are
# the canonical stream).
_SCALAR_RNG = random.Random
