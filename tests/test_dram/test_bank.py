"""Tests for the per-bank state machine and timing windows."""

import pytest

from repro.dram.bank import Bank
from repro.dram.timing import ddr3_1600
from repro.errors import ProtocolError

TIMING = ddr3_1600().scaled(5)


def make_bank() -> Bank:
    return Bank(0, TIMING)


class TestActivate:
    def test_opens_row(self):
        bank = make_bank()
        bank.issue_activate(7, now=0)
        assert bank.open_row == 7
        assert bank.is_open(7)
        assert not bank.is_open(8)

    def test_act_on_open_bank_rejected(self):
        bank = make_bank()
        bank.issue_activate(1, now=0)
        with pytest.raises(ProtocolError):
            bank.issue_activate(2, now=TIMING.t_rc)

    def test_act_before_window_rejected(self):
        bank = make_bank()
        bank.issue_activate(1, now=0)
        bank.issue_precharge(now=TIMING.t_ras)
        with pytest.raises(ProtocolError):
            bank.issue_activate(2, now=TIMING.t_ras)  # before tRP elapses

    def test_column_window_after_act(self):
        bank = make_bank()
        bank.issue_activate(1, now=100)
        assert bank.next_column == 100 + TIMING.t_rcd


class TestReadWrite:
    def test_read_returns_burst_end(self):
        bank = make_bank()
        bank.issue_activate(1, now=0)
        end = bank.issue_read(1, now=TIMING.t_rcd)
        assert end == TIMING.t_rcd + TIMING.cl + TIMING.t_bl

    def test_read_wrong_row_rejected(self):
        bank = make_bank()
        bank.issue_activate(1, now=0)
        with pytest.raises(ProtocolError):
            bank.issue_read(2, now=TIMING.t_rcd)

    def test_read_closed_bank_rejected(self):
        with pytest.raises(ProtocolError):
            make_bank().issue_read(0, now=100)

    def test_read_before_trcd_rejected(self):
        bank = make_bank()
        bank.issue_activate(1, now=0)
        with pytest.raises(ProtocolError):
            bank.issue_read(1, now=TIMING.t_rcd - 1)

    def test_back_to_back_reads_respect_tccd(self):
        bank = make_bank()
        bank.issue_activate(1, now=0)
        bank.issue_read(1, now=TIMING.t_rcd)
        assert bank.next_column == TIMING.t_rcd + TIMING.t_ccd

    def test_write_recovery_delays_precharge(self):
        bank = make_bank()
        bank.issue_activate(1, now=0)
        burst_end = bank.issue_write(1, now=TIMING.t_rcd)
        assert bank.next_precharge >= burst_end + TIMING.t_wr

    def test_write_to_read_turnaround(self):
        bank = make_bank()
        bank.issue_activate(1, now=0)
        burst_end = bank.issue_write(1, now=TIMING.t_rcd)
        assert bank.next_column >= burst_end + TIMING.t_wtr


class TestPrecharge:
    def test_closes_row(self):
        bank = make_bank()
        bank.issue_activate(1, now=0)
        bank.issue_precharge(now=TIMING.t_ras)
        assert bank.open_row is None

    def test_idempotent_when_closed(self):
        bank = make_bank()
        bank.issue_precharge(now=0)  # no-op, no error
        assert bank.open_row is None

    def test_pre_before_tras_rejected(self):
        bank = make_bank()
        bank.issue_activate(1, now=0)
        with pytest.raises(ProtocolError):
            bank.issue_precharge(now=TIMING.t_ras - 1)

    def test_read_to_precharge_window(self):
        bank = make_bank()
        bank.issue_activate(1, now=0)
        late = TIMING.t_ras + 100  # read late enough that tRTP dominates
        bank.issue_read(1, now=late)
        assert bank.next_precharge >= late + TIMING.t_rtp


class TestEarliestForAccess:
    def test_open_row_hit(self):
        bank = make_bank()
        bank.issue_activate(5, now=0)
        est = bank.earliest_for_access(5, now=TIMING.t_rcd + 50)
        assert est == TIMING.t_rcd + 50

    def test_closed_bank_includes_act(self):
        bank = make_bank()
        assert bank.earliest_for_access(3, now=0) >= TIMING.t_rcd

    def test_conflict_includes_pre_act(self):
        bank = make_bank()
        bank.issue_activate(5, now=0)
        est = bank.earliest_for_access(6, now=TIMING.t_rcd)
        assert est >= TIMING.t_ras + TIMING.t_rp + TIMING.t_rcd


class TestStats:
    def test_counters(self):
        bank = make_bank()
        bank.issue_activate(1, now=0)
        bank.issue_read(1, now=TIMING.t_rcd)
        bank.issue_read(1, now=TIMING.t_rcd + TIMING.t_ccd)
        assert bank.activations == 1

    def test_block_until(self):
        bank = make_bank()
        bank.block_until(1000)
        assert bank.next_activate >= 1000
        assert bank.next_column >= 1000


class TestComputeWindows:
    def test_mra_returns_full_window(self):
        bank = make_bank()
        end = bank.issue_mra((1, 2), now=100)
        assert end == 100 + TIMING.t_mra(2)

    def test_mra_three_rows_takes_longer(self):
        assert make_bank().issue_mra((1, 2, 3), now=0) > make_bank().issue_mra(
            (1, 2), now=0
        )

    def test_mra_is_atomic(self):
        # Precharged in, precharged out: no row is left open.
        bank = make_bank()
        end = bank.issue_mra((1, 2), now=0)
        assert bank.open_row is None
        assert bank.next_activate >= end

    def test_mra_on_open_bank_rejected(self):
        bank = make_bank()
        bank.issue_activate(1, now=0)
        with pytest.raises(ProtocolError):
            bank.issue_mra((2, 3), now=TIMING.t_rc)

    def test_mra_before_window_rejected(self):
        bank = make_bank()
        end = bank.issue_mra((1, 2), now=0)
        with pytest.raises(ProtocolError):
            bank.issue_mra((3, 4), now=end - 1)

    def test_mra_counts_activations(self):
        bank = make_bank()
        bank.issue_mra((1, 2, 3), now=0)
        assert bank.activations == 3

    def test_shift_returns_staged_window(self):
        bank = make_bank()
        end = bank.issue_shift(3, now=50)
        assert end == 50 + TIMING.t_shift(3)

    def test_shift_is_atomic(self):
        bank = make_bank()
        end = bank.issue_shift(1, now=0)
        assert bank.open_row is None
        assert bank.next_activate >= end

    def test_shift_on_open_bank_rejected(self):
        bank = make_bank()
        bank.issue_activate(1, now=0)
        with pytest.raises(ProtocolError):
            bank.issue_shift(1, now=TIMING.t_rc)

    def test_shift_before_window_rejected(self):
        bank = make_bank()
        end = bank.issue_shift(2, now=0)
        with pytest.raises(ProtocolError):
            bank.issue_shift(2, now=end - 1)

    def test_compute_then_activate_respects_window(self):
        bank = make_bank()
        end = bank.issue_mra((1, 2), now=0)
        bank.issue_activate(5, now=end)
        assert bank.open_row == 5
