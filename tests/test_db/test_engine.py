"""Tests for the DB experiment drivers (small-scale end-to-end)."""

import itertools

import pytest

from repro.db.engine import run_analytics, run_htap, run_transactions
from repro.db.layouts import ColumnStore, GSDRAMStore, RowStore
from repro.db.workload import AnalyticsQuery, TransactionMix
from repro.dram.address import MappingPolicy
from repro.errors import ConfigError

TUPLES = 512
TXNS = 40


class TestTransactions:
    @pytest.mark.parametrize("layout_cls", [RowStore, ColumnStore, GSDRAMStore])
    def test_verified(self, layout_cls):
        run = run_transactions(
            layout_cls(), TransactionMix(2, 1, 1), num_tuples=TUPLES, count=TXNS
        )
        assert run.verified
        assert run.result.cycles > 0

    def test_row_store_one_line_per_transaction(self):
        run = run_transactions(
            RowStore(), TransactionMix(4, 2, 2), num_tuples=TUPLES, count=TXNS
        )
        # Each transaction touches one cache line (plus cold noise).
        assert run.result.dram_reads <= TXNS + 5

    def test_column_store_line_per_field(self):
        run = run_transactions(
            ColumnStore(), TransactionMix(4, 2, 2), num_tuples=TUPLES, count=TXNS
        )
        # 8 distinct fields -> ~8 lines per transaction.
        assert run.result.dram_reads > 4 * TXNS

    def test_gs_matches_row_store_traffic(self):
        gs = run_transactions(
            GSDRAMStore(), TransactionMix(4, 2, 2), num_tuples=TUPLES, count=TXNS
        )
        row = run_transactions(
            RowStore(), TransactionMix(4, 2, 2), num_tuples=TUPLES, count=TXNS
        )
        assert gs.result.dram_reads == row.result.dram_reads


class TestAnalytics:
    @pytest.mark.parametrize("layout_cls", [RowStore, ColumnStore, GSDRAMStore])
    def test_answer_verified(self, layout_cls):
        run = run_analytics(layout_cls(), AnalyticsQuery((0,)), num_tuples=TUPLES)
        assert run.verified

    def test_gs_fetches_8x_fewer_lines_than_row(self):
        gs = run_analytics(GSDRAMStore(), AnalyticsQuery((0,)), num_tuples=TUPLES)
        row = run_analytics(RowStore(), AnalyticsQuery((0,)), num_tuples=TUPLES)
        assert row.result.dram_reads == 8 * gs.result.dram_reads

    def test_gs_matches_column_store_traffic(self):
        gs = run_analytics(GSDRAMStore(), AnalyticsQuery((0,)), num_tuples=TUPLES)
        col = run_analytics(ColumnStore(), AnalyticsQuery((0,)), num_tuples=TUPLES)
        assert gs.result.dram_reads == col.result.dram_reads

    def test_two_column_query(self):
        run = run_analytics(GSDRAMStore(), AnalyticsQuery((0, 3)), num_tuples=TUPLES)
        assert run.verified

    def test_prefetch_speeds_up_scan(self):
        slow = run_analytics(ColumnStore(), AnalyticsQuery((0,)),
                             num_tuples=2048, prefetch=False)
        fast = run_analytics(ColumnStore(), AnalyticsQuery((0,)),
                             num_tuples=2048, prefetch=True)
        assert fast.result.cycles < slow.result.cycles

    @pytest.mark.parametrize("mode", ["event", "fast"])
    def test_gs_store_needs_row_bank_column(self, mode):
        # Bank interleaving spreads a tuple group's lines over banks, so
        # a column gather would return values of other tuples.
        with pytest.raises(ConfigError, match="mapping_policy"):
            run_analytics(
                GSDRAMStore(), AnalyticsQuery((0,)), num_tuples=256,
                config_overrides={
                    "mapping_policy": MappingPolicy.BANK_INTERLEAVED
                },
                mode=mode,
            )


class TestHTAP:
    def test_runs_and_reports(self):
        run = run_htap(GSDRAMStore(), num_tuples=1024,
                       config_overrides={"l2_size": 64 * 1024})
        assert run.analytics_cycles > 0
        assert run.committed_txns > 0
        assert run.txn_throughput_mps > 0

    def test_transaction_thread_stops_with_analytics(self):
        run = run_htap(RowStore(), num_tuples=1024,
                       config_overrides={"l2_size": 64 * 1024})
        # The txn thread was cancelled; committed count is finite and
        # proportional to the analytics runtime.
        assert run.committed_txns < 100_000


class TestOpenEndedHTAPVerification:
    """The open-ended scan is checked value by value: each value must be
    its cell's initial value or one a started transaction wrote there."""

    @staticmethod
    def run(layout):
        return run_htap(layout, num_tuples=512,
                        config_overrides={"l2_size": 64 * 1024})

    @pytest.mark.parametrize("layout_cls", [RowStore, GSDRAMStore])
    def test_clean_scan_verifies(self, layout_cls):
        run = self.run(layout_cls())
        assert run.committed_txns > 0
        assert run.verified is True

    def test_corrupted_scan_value_fails(self):
        layout = GSDRAMStore()
        scan = layout.analytics_ops

        def corrupting(query, on_value):
            seen = itertools.count()
            return scan(query, lambda value: on_value(
                value + 1 if next(seen) == 100 else value))

        layout.analytics_ops = corrupting
        assert self.run(layout).verified is False

    def test_wrong_field_scan_fails(self):
        layout = RowStore()
        scan = layout.analytics_ops
        layout.analytics_ops = (
            lambda query, on_value: scan(AnalyticsQuery((1,)), on_value)
        )
        assert self.run(layout).verified is False
