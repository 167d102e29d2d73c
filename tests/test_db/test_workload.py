"""Tests for workload generators."""

import numpy as np
import pytest

from repro.db.schema import TableSchema
from repro.db.table import OracleTable
from repro.db.workload import (
    FIGURE9_MIXES,
    AnalyticsQuery,
    TransactionMix,
    clear_workload_caches,
    generate_transactions,
    make_rows,
)
from repro.errors import WorkloadError

SCHEMA = TableSchema()


class TestMixes:
    def test_figure9_labels(self):
        labels = [mix.label for mix in FIGURE9_MIXES]
        assert labels == ["1-0-1", "2-1-0", "0-2-2", "2-4-0",
                          "5-0-1", "2-0-4", "6-1-0", "4-2-2"]

    def test_sorted_by_total_fields(self):
        totals = [mix.total_fields for mix in FIGURE9_MIXES]
        assert totals == sorted(totals)


class TestGeneration:
    def test_deterministic(self):
        a = generate_transactions(SCHEMA, 100, TransactionMix(1, 1, 1), 50, seed=9)
        b = generate_transactions(SCHEMA, 100, TransactionMix(1, 1, 1), 50, seed=9)
        assert a == b

    def test_seed_changes_stream(self):
        a = generate_transactions(SCHEMA, 100, TransactionMix(1, 1, 1), 50, seed=1)
        b = generate_transactions(SCHEMA, 100, TransactionMix(1, 1, 1), 50, seed=2)
        assert a != b

    def test_op_structure(self):
        mix = TransactionMix(2, 1, 1)
        txns = generate_transactions(SCHEMA, 100, mix, 20)
        for txn in txns:
            reads = [op for op in txn.ops if not op.write]
            writes = [op for op in txn.ops if op.write]
            # 2 pure reads + 1 rw read; 1 pure write + 1 rw write.
            assert len(reads) == 3
            assert len(writes) == 2
            assert 0 <= txn.tuple_id < 100

    def test_fields_distinct_within_transaction(self):
        txns = generate_transactions(SCHEMA, 10, TransactionMix(4, 2, 2), 30)
        for txn in txns:
            fields = {op.field for op in txn.ops}
            assert len(fields) == 8

    def test_too_many_fields_rejected(self):
        with pytest.raises(WorkloadError):
            generate_transactions(SCHEMA, 10, TransactionMix(5, 3, 2), 1)


class TestOracle:
    def test_apply_transaction_reads_then_writes(self):
        rows = make_rows(SCHEMA, 4, seed=1)
        oracle = OracleTable(SCHEMA, rows)
        txns = generate_transactions(SCHEMA, 4, TransactionMix(1, 1, 0), 10)
        before = oracle.snapshot()
        observed = oracle.apply_all(txns)
        assert len(observed) == 10  # one read per txn
        assert oracle.rows != before  # writes happened

    def test_column_sum(self):
        oracle = OracleTable(SCHEMA, [[1] * 8, [2] * 8, [3] * 8])
        assert oracle.column_sum(AnalyticsQuery((0,))) == 6
        assert oracle.column_sum(AnalyticsQuery((0, 1))) == 12

    def test_rows_are_copied(self):
        rows = [[0] * 8]
        oracle = OracleTable(SCHEMA, rows)
        rows[0][0] = 99
        assert oracle.rows[0][0] == 0

    def test_make_rows_deterministic(self):
        first = make_rows(SCHEMA, 10, seed=5)
        clear_workload_caches()
        assert np.array_equal(first, make_rows(SCHEMA, 10, seed=5))
