"""Event DB verification keeps its teeth over the read-only master.

The event transaction and phased-HTAP drivers compare the machine's
read-back table with :class:`OracleTable`, a copy-on-touch overlay over
the master: untouched rows against the master, touched rows against
the overlay. These tests damage the machine's final table in three
ways, under a write-only mix so that no observed read can catch the
fault: the table comparison alone must fail the run.

The oracle tests pin that the overlay agrees with a list-of-lists
table, never writes its inputs, and copies no table.
"""

import struct
import tracemalloc

import numpy as np
import pytest

from repro.cpu.isa import Store
from repro.db.engine import run_htap, run_transactions
from repro.db.layouts import ColumnStore, GSDRAMStore, RowStore
from repro.db.schema import TableSchema
from repro.db.table import OracleTable
from repro.db.workload import (
    FIGURE9_MIXES,
    AnalyticsQuery,
    HTAPWorkload,
    TransactionMix,
    generate_transaction_arrays,
    make_rows,
)
from repro.sim.system import System

LAYOUTS = (RowStore, ColumnStore, GSDRAMStore)
WRITE_ONLY = TransactionMix(0, 2, 0)
NUM_TUPLES = 512
SCHEMA = TableSchema()


def _without_last_store(ops, stores: int):
    """``ops`` minus the last of its ``stores`` stores."""
    seen = 0
    for op in ops:
        if isinstance(op, Store):
            seen += 1
            if seen == stores:
                continue
        yield op


def _poke(layout, tuple_id: int, field: int, value: int) -> None:
    """Store ``value`` in one cell of the machine's final table."""
    system = layout.system
    system.hierarchy.drain_dirty()
    system.mem_write(layout.field_address(tuple_id, field),
                     struct.pack("<Q", value))


@pytest.fixture
def damage(monkeypatch):
    """Damage the layout's final table.

    ``"value"`` stores a wrong value in the cell of the last write after
    the run, ``"untouched"`` stores into a tuple no transaction touched
    after the run, and ``"dropped"`` removes the last store of batch
    ``last_batch`` (the program's last batch) from the machine's ops.
    """

    def install(layout, fault: str | None, last_batch: int) -> None:
        if fault is None:
            return
        batches = []
        transaction_ops = layout.transaction_ops

        def recording_ops(txns, on_read=None):
            batches.append(txns)
            ops = transaction_ops(txns, on_read)
            if fault == "dropped" and len(batches) - 1 == last_batch:
                return _without_last_store(
                    ops, int(np.count_nonzero(txns.writes)))
            return ops

        layout.transaction_ops = recording_ops
        if fault == "dropped":
            return
        run = System.run

        def damaging_run(self, *args, **kwargs):
            result = run(self, *args, **kwargs)
            if fault == "value":
                txns = batches[-1]
                last = int(np.flatnonzero(txns.writes)[-1])
                _poke(layout, int(txns.tuple_ids[last]),
                      int(txns.fields[last]), int(txns.values[last]) + 1)
            else:
                touched = np.concatenate([b.tuple_ids for b in batches])
                tuple_id = int(np.setdiff1d(
                    np.arange(layout.num_tuples), touched)[0])
                master = make_rows(layout.schema, layout.num_tuples)
                _poke(layout, tuple_id, 0, int(master[tuple_id, 0]) + 1)
            return result

        monkeypatch.setattr(System, "run", damaging_run)

    return install


@pytest.mark.parametrize("fault", [None, "value", "untouched", "dropped"])
@pytest.mark.parametrize("layout_cls", LAYOUTS)
class TestEventVerificationCatchesTableFaults:
    def test_transactions(self, layout_cls, fault, damage):
        layout = layout_cls()
        damage(layout, fault, last_batch=0)
        run = run_transactions(layout, WRITE_ONLY, num_tuples=NUM_TUPLES,
                               count=50, seed=5)
        assert run.verified is (fault is None)

    def test_phased_htap(self, layout_cls, fault, damage):
        layout = layout_cls()
        damage(layout, fault, last_batch=1)
        run = run_htap(layout, HTAPWorkload(txn_mix=WRITE_ONLY),
                       num_tuples=NUM_TUPLES, txn_count=40)
        assert run.verified is (fault is None)


class TestOracleOverMaster:
    def test_master_and_lists_agree(self):
        master = make_rows(SCHEMA, 64, seed=9)
        master_before = master.copy()
        lists = master.tolist()
        before = [list(row) for row in lists]
        over_master = OracleTable(SCHEMA, master)
        over_lists = OracleTable(SCHEMA, lists)
        for seed, mix in enumerate(FIGURE9_MIXES):
            txns = generate_transaction_arrays(SCHEMA, 64, mix, 20, seed=seed)
            assert (over_master.apply_all(txns)
                    == over_lists.apply_all(txns.to_transactions()))
            assert over_master.rows == over_lists.rows
            for field in range(SCHEMA.num_fields):
                query = AnalyticsQuery((field,))
                assert (over_master.column_sum(query)
                        == over_lists.column_sum(query))
        assert over_master.rows != before  # the transactions wrote
        assert np.array_equal(master, master_before)
        assert not master.flags.writeable
        assert lists == before

    def test_matches_checks_untouched_and_touched_rows(self):
        master = make_rows(SCHEMA, 16, seed=2)
        oracle = OracleTable(SCHEMA, master)
        txns = generate_transaction_arrays(SCHEMA, 16, WRITE_ONLY, 3, seed=4)
        oracle.apply_all(txns)
        table = np.array(oracle.rows, dtype=np.int64)
        assert oracle.matches(table)
        assert oracle.matches(table[8:], start=8)
        assert not oracle.matches(table[:8], start=8)
        touched = int(txns.tuple_ids[0])
        untouched = int(np.setdiff1d(np.arange(16), txns.tuple_ids)[0])
        for tuple_id in (touched, untouched):
            damaged = table.copy()
            damaged[tuple_id, 0] += 1
            assert not oracle.matches(damaged)

    def test_apply_all_copies_no_table(self):
        # An 8 MB master built (and memoised) before tracing; a list copy
        # of the table alone would trace several times its size.
        num_tuples = 131_072
        master = make_rows(SCHEMA, num_tuples)
        txns = generate_transaction_arrays(SCHEMA, num_tuples,
                                           TransactionMix(4, 2, 2), 1_000)
        oracle = OracleTable(SCHEMA, master)
        tracemalloc.start()
        try:
            observed = oracle.apply_all(txns)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(observed) == 6_000
        assert peak < master.nbytes / 10
