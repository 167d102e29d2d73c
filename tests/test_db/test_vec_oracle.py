"""VecOracleTable and the vectorized workload generators (phase 3)."""

import numpy as np
import pytest

from repro.db.queries import (
    Comparison,
    FilterQuery,
    GroupByQuery,
    oracle_filter,
    oracle_groupby,
)
from repro.db.schema import TableSchema
from repro.db.table import OracleTable, VecOracleTable, table_digest
from repro.db.workload import (
    FIGURE9_MIXES,
    AnalyticsQuery,
    FieldOp,
    Transaction,
    TransactionMix,
    clear_workload_caches,
    generate_transaction_arrays,
    generate_transactions,
    make_rows,
)
from repro.errors import WorkloadError

SCHEMA = TableSchema()


def _tables(num_tuples=64, seed=9):
    rows = make_rows(SCHEMA, num_tuples, seed=seed)
    return (OracleTable(SCHEMA, rows), VecOracleTable(SCHEMA, rows))


class TestTransactionArrays:
    def test_object_form_is_a_view_of_the_arrays(self):
        mix = FIGURE9_MIXES[7]  # 4-2-2
        arrays = generate_transaction_arrays(SCHEMA, 64, mix, 12, seed=5)
        txns = generate_transactions(SCHEMA, 64, mix, 12, seed=5)
        assert len(arrays) == len(txns) == 12
        per = mix.ops_per_txn
        for t, txn in enumerate(txns):
            base = t * per
            assert txn.tuple_id == arrays.tuple_ids[base]
            for p, op in enumerate(txn.ops):
                assert op.field == arrays.fields[base + p]
                assert op.write == bool(arrays.writes[base + p])
                if op.write:
                    assert op.value == arrays.values[base + p]

    def test_read_write_fields_read_then_write_same_field(self):
        mix = TransactionMix(0, 0, 2)
        arrays = generate_transaction_arrays(SCHEMA, 32, mix, 8, seed=1)
        fields = arrays.fields.reshape(8, 4)
        writes = arrays.writes.reshape(8, 4)
        assert (fields[:, 0] == fields[:, 1]).all()
        assert (fields[:, 2] == fields[:, 3]).all()
        assert (writes == [False, True, False, True]).all()

    def test_fields_distinct_within_transaction(self):
        mix = FIGURE9_MIXES[6]  # 6-1-0: seven of eight fields
        arrays = generate_transaction_arrays(SCHEMA, 32, mix, 50, seed=3)
        fields = arrays.fields.reshape(50, 7)
        for row in fields:
            assert len(set(row.tolist())) == 7

    def test_arrays_are_read_only(self):
        arrays = generate_transaction_arrays(
            SCHEMA, 16, FIGURE9_MIXES[0], 4, seed=2
        )
        with pytest.raises(ValueError):
            arrays.tuple_ids[0] = 99

    def test_empty_batch(self):
        arrays = generate_transaction_arrays(
            SCHEMA, 16, FIGURE9_MIXES[0], 0, seed=2
        )
        assert len(arrays) == 0
        assert arrays.to_transactions() == []


class TestRowMaster:
    def test_master_shape_and_seed(self):
        clear_workload_caches()
        rows = make_rows(SCHEMA, 24, seed=4)
        assert rows.shape == (24, SCHEMA.num_fields)
        assert rows.dtype == np.int64
        assert not np.array_equal(rows, make_rows(SCHEMA, 24, seed=5))

    def test_master_is_read_only_and_memoized(self):
        clear_workload_caches()
        first = make_rows(SCHEMA, 16, seed=4)
        assert first is make_rows(SCHEMA, 16, seed=4)
        with pytest.raises(ValueError):
            first[0, 0] = 1
        clear_workload_caches()
        again = make_rows(SCHEMA, 16, seed=4)
        assert again is not first
        assert np.array_equal(again, first)


class TestVecOracleTable:
    def test_observed_and_final_match_scalar(self):
        for mix in FIGURE9_MIXES:
            scalar, vec = _tables()
            arrays = generate_transaction_arrays(SCHEMA, 64, mix, 40, seed=11)
            observed = scalar.apply_all(arrays.to_transactions())
            vec_observed = vec.apply_all(arrays)
            assert observed == vec_observed.tolist(), mix.label
            assert scalar.rows == vec.snapshot(), mix.label
            assert table_digest(scalar.rows) == vec.digest(), mix.label

    def test_accepts_object_transactions(self):
        scalar, vec = _tables(num_tuples=8)
        txns = [
            Transaction(3, (FieldOp(0, write=False),
                            FieldOp(0, write=True, value=77),
                            FieldOp(0, write=False))),
            Transaction(3, (FieldOp(0, write=False),)),
        ]
        assert vec.apply_all(txns).tolist() == scalar.apply_all(txns)
        assert vec.snapshot() == scalar.rows
        assert vec.snapshot()[3][0] == 77

    def test_duplicate_writes_last_wins(self):
        _, vec = _tables(num_tuples=4)
        txns = [Transaction(1, tuple(
            FieldOp(2, write=True, value=v) for v in (10, 20, 30)
        ))]
        vec.apply_all(txns)
        assert vec.snapshot()[1][2] == 30

    def test_empty_table_and_empty_batch(self):
        vec = VecOracleTable(SCHEMA, [])
        assert vec.num_tuples == 0
        assert vec.apply_all([]).size == 0
        assert vec.snapshot() == []

    def test_out_of_range_tuple_rejected(self):
        _, vec = _tables(num_tuples=4)
        with pytest.raises((WorkloadError, IndexError)):
            vec.apply_all([Transaction(9, (FieldOp(0, write=False),))])

    def test_column_sum_is_exact_at_extremes(self):
        big = (1 << 62) + 7
        rows = [[big, -big] * 4, [big, big] * 4]
        vec = VecOracleTable(SCHEMA, rows)
        assert vec.column_sum(AnalyticsQuery((0,))) == 2 * big
        assert vec.column_sum(AnalyticsQuery((1,))) == 0
        scalar = OracleTable(SCHEMA, rows)
        for k in range(SCHEMA.num_fields):
            query = AnalyticsQuery((k,))
            assert vec.column_sum(query) == scalar.column_sum(query)

    def test_filter_and_groupby_match_oracles(self):
        scalar, vec = _tables(num_tuples=128, seed=6)
        threshold = 1 << 31
        for op in Comparison:
            for value_field in (None, 3):
                query = FilterQuery(0, op, threshold, value_field)
                expected = oracle_filter(scalar.rows, query)
                got = vec.filter(query)
                assert (got.matches, got.aggregate) == (
                    expected.matches, expected.aggregate), query.label
        group = GroupByQuery(key_field=2, value_field=5)
        assert vec.groupby(group) == oracle_groupby(scalar.rows, group)

    def test_bad_shape_rejected(self):
        with pytest.raises(WorkloadError):
            VecOracleTable(SCHEMA, [[1, 2, 3]])
