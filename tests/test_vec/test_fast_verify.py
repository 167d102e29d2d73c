"""Fast DB verification keeps its teeth, and the fast path stays lean.

The fast transaction and phased-HTAP drivers verify the cells their
transactions wrote, not whole tables. These tests hand the fast engine
a batch that differs from the oracle's only in its final write, under
a write-only mix so that no observed read can catch the fault: the
written-cell comparison alone must fail the run.

The memory guards pin that a fast DB run holds no copy of the table,
that :meth:`DirtyReplay.run` holds no per-access Python lists, and
that its overlap memo stays bounded without changing a count.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import repro.vec.db as vec_db
import repro.vec.hier as vec_hier
from repro.db.engine import layout_config, run_htap, run_transactions
from repro.db.layouts import ColumnStore, GSDRAMStore, RowStore
from repro.db.schema import TableSchema
from repro.db.workload import (
    AnalyticsQuery,
    HTAPWorkload,
    TransactionMix,
    generate_transaction_arrays,
    make_rows,
)
from repro.vec.hier import DirtyReplay
from repro.vm.pattmalloc import PattAllocator

LAYOUTS = (RowStore, ColumnStore, GSDRAMStore)
WRITE_ONLY = TransactionMix(0, 2, 0)
NUM_TUPLES = 512


def _faulty(txns, fault: str, num_tuples: int):
    """``txns`` with its final write's value bumped, or the write moved
    to a tuple no other write touches."""
    last = int(np.flatnonzero(txns.writes)[-1])
    tuple_ids = txns.tuple_ids.copy()
    values = txns.values.copy()
    if fault == "value":
        values[last] += 1
    else:
        untouched = np.setdiff1d(np.arange(num_tuples),
                                 txns.tuple_ids[txns.writes])
        tuple_ids[last] = untouched[0]
    return dataclasses.replace(txns, tuple_ids=tuple_ids, values=values)


@pytest.fixture
def fault_in_fast_batch(monkeypatch):
    """Install a fault in what the fast engines receive (batch B for
    phased HTAP); the oracle still sees the unaltered batches."""

    def install(fault: str | None) -> None:
        if fault is None:
            return
        transactions = vec_db.fast_transactions
        htap = vec_db.fast_htap_phased

        def fast_transactions(layout, txns, rows, num_tuples, config):
            return transactions(layout, _faulty(txns, fault, num_tuples),
                                rows, num_tuples, config)

        def fast_htap_phased(layout, txns_a, txns_b, query, rows,
                             num_tuples, config):
            return htap(layout, txns_a, _faulty(txns_b, fault, num_tuples),
                        query, rows, num_tuples, config)

        monkeypatch.setattr(vec_db, "fast_transactions", fast_transactions)
        monkeypatch.setattr(vec_db, "fast_htap_phased", fast_htap_phased)

    return install


@pytest.mark.parametrize("fault", [None, "value", "move"])
@pytest.mark.parametrize("layout_cls", LAYOUTS)
class TestVerificationCatchesFinalWriteFaults:
    def test_transactions(self, layout_cls, fault, fault_in_fast_batch):
        fault_in_fast_batch(fault)
        run = run_transactions(layout_cls(), WRITE_ONLY,
                               num_tuples=NUM_TUPLES, count=50, seed=5,
                               mode="fast")
        assert run.verified is (fault is None)

    def test_phased_htap(self, layout_cls, fault, fault_in_fast_batch):
        fault_in_fast_batch(fault)
        run = run_htap(layout_cls(), HTAPWorkload(txn_mix=WRITE_ONLY),
                       num_tuples=NUM_TUPLES, txn_count=40, mode="fast")
        assert run.verified is (fault is None)


def _traced_peak(run) -> tuple[object, int]:
    tracemalloc.start()
    try:
        result = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("layout_cls", LAYOUTS)
def test_fast_transactions_copy_no_table(layout_cls):
    # An 8 MB table; the master is built (and memoised) before tracing,
    # so the traced peak is the run's own state. Two whole-table copies
    # traced about 17.6 MB.
    num_tuples = 131_072
    table_bytes = make_rows(TableSchema(), num_tuples).nbytes
    run, peak = _traced_peak(lambda: run_transactions(
        layout_cls(), TransactionMix(4, 2, 2), num_tuples=num_tuples,
        count=1_000, mode="fast",
    ))
    assert run.verified
    assert peak < table_bytes / 2


def test_replay_holds_no_per_access_lists():
    # One repeated line away from address 0, so each key is a fresh
    # Python int: per-access lists of all four columns traced 64 B per
    # access, the slice-at-a-time walk about 12 B.
    accesses = 1 << 16
    replay = DirtyReplay(layout_config(RowStore()))
    lines = np.full(accesses, 1 << 20, dtype=np.int64)
    zeros = np.zeros(accesses, dtype=np.int64)
    flags = np.zeros(accesses, dtype=bool)
    _, peak = _traced_peak(
        lambda: replay.run(lines, zeros, zeros, flags, flags)
    )
    assert replay.counts["l1_hits"] == accesses - 1
    assert peak / accesses < 32


def _gs_replay(memo_sizes: list[int]) -> DirtyReplay:
    """A GS-DRAM replay of transactions, a two-column gathered scan and
    more transactions; ``memo_sizes`` gets the overlap memo's size
    after every lookup."""
    layout = GSDRAMStore()
    config = layout_config(layout)
    geometry = config.geometry
    layout.attach(PattAllocator(capacity_bytes=geometry.capacity_bytes,
                                line_bytes=geometry.line_bytes,
                                row_bytes=geometry.row_bytes), 1024)
    txns = generate_transaction_arrays(layout.schema, 1024,
                                       TransactionMix(1, 1, 1), 200, seed=3)
    replay = DirtyReplay(config)
    lookup = replay._overlap_keys

    def overlap_keys(*key):
        got = lookup(*key)
        memo_sizes.append(len(replay._overlaps))
        return got

    replay._overlap_keys = overlap_keys
    for stream in (layout.transaction_stream(txns),
                   layout.scan_stream(AnalyticsQuery((0, 1))),
                   layout.transaction_stream(txns)):
        replay.run(stream.line_addresses(geometry.line_bytes),
                   stream.patterns, stream.alts, stream.writes,
                   stream.shuffled)
    return replay


def test_overlap_memo_bound_keeps_counts(monkeypatch):
    unbounded: list[int] = []
    reference = _gs_replay(unbounded)
    assert max(unbounded) > 2  # the memo outgrows the small bound below
    monkeypatch.setattr(vec_hier, "_OVERLAP_MEMO_ENTRIES", 2)
    bounded: list[int] = []
    replay = _gs_replay(bounded)
    assert len(bounded) == len(unbounded)
    assert max(bounded) <= 2
    assert replay.counts == reference.counts
    assert replay.component_stats() == reference.component_stats()
