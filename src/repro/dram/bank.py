"""Per-bank state machine: protocol legality + timing readiness.

Each bank tracks its open row and the earliest cycle at which each
command class may legally be issued to it. The controller consults
:meth:`Bank.earliest` to schedule and calls the ``issue_*`` methods to
commit a command; issuing a command in an illegal state raises
:class:`~repro.errors.ProtocolError` so controller bugs surface as
errors, not as silently wrong timing.
"""

from __future__ import annotations

from repro.dram.timing import DRAMTiming
from repro.errors import ProtocolError


class Bank:
    """One DRAM bank: open-row tracking and command timing windows."""

    def __init__(self, bank_id: int, timing: DRAMTiming) -> None:
        self.bank_id = bank_id
        self.timing = timing
        self.open_row: int | None = None
        # Earliest issue times per command class, in engine cycles.
        self.next_activate = 0
        self.next_column = 0  # READ or WRITE
        self.next_precharge = 0
        # Statistics (row hits and misses are the controller's counters).
        self.activations = 0

    # ------------------------------------------------------------------
    # Scheduling queries
    # ------------------------------------------------------------------
    def is_open(self, row: int) -> bool:
        """True if ``row`` is currently in this bank's row buffer."""
        return self.open_row == row

    def earliest_for_access(self, row: int, now: int) -> int:
        """Earliest cycle a column command for ``row`` could reach data.

        Used by FR-FCFS to rank requests: a row hit only waits for the
        column window, a miss must precharge and activate first. This is
        an estimate for arbitration; actual issue re-validates.
        """
        if self.is_open(row):
            return max(now, self.next_column)
        start = max(now, self.next_precharge)
        after_pre = start + self.timing.t_rp
        after_act = max(after_pre, self.next_activate) + self.timing.t_rcd
        return after_act

    # ------------------------------------------------------------------
    # Command issue
    # ------------------------------------------------------------------
    def issue_activate(self, row: int, now: int) -> None:
        """Open ``row``; bank must be precharged and past its ACT window."""
        if self.open_row is not None:
            raise ProtocolError(
                f"bank {self.bank_id}: ACT while row {self.open_row} is open"
            )
        if now < self.next_activate:
            raise ProtocolError(
                f"bank {self.bank_id}: ACT at {now} before window {self.next_activate}"
            )
        self.open_row = row
        self.activations += 1
        self.next_column = now + self.timing.t_rcd
        self.next_precharge = now + self.timing.t_ras
        self.next_activate = now + self.timing.t_rc

    def issue_precharge(self, now: int) -> None:
        """Close the open row (idempotent on an already-precharged bank)."""
        if self.open_row is None:
            return
        if now < self.next_precharge:
            raise ProtocolError(
                f"bank {self.bank_id}: PRE at {now} before window {self.next_precharge}"
            )
        self.open_row = None
        self.next_activate = max(self.next_activate, now + self.timing.t_rp)

    def issue_read(self, row: int, now: int) -> int:
        """Issue a READ; returns the cycle the data burst completes."""
        self._check_column(row, now, "READ")
        timing = self.timing
        self.next_column = now + timing.t_ccd
        self.next_precharge = max(self.next_precharge, now + timing.t_rtp)
        return now + timing.cl + timing.t_bl

    def issue_write(self, row: int, now: int) -> int:
        """Issue a WRITE; returns the cycle the data burst completes."""
        self._check_column(row, now, "WRITE")
        timing = self.timing
        burst_end = now + timing.cwl + timing.t_bl
        self.next_column = max(now + timing.t_ccd, burst_end + timing.t_wtr)
        self.next_precharge = max(self.next_precharge, burst_end + timing.t_wr)
        return burst_end

    # ------------------------------------------------------------------
    # In-DRAM compute (docs/INDRAM.md)
    # ------------------------------------------------------------------
    def issue_mra(self, rows: tuple[int, ...], now: int) -> int:
        """Issue a multi-row activation; returns its completion cycle.

        MRA is atomic at the bank: it requires a precharged bank (the
        sense amplifiers must start equalised for charge sharing to
        compute the bitwise op) and leaves the bank precharged, so the
        open-row state machine never observes an intermediate state.
        """
        if self.open_row is not None:
            raise ProtocolError(
                f"bank {self.bank_id}: MRA while row {self.open_row} is open"
            )
        if now < self.next_activate:
            raise ProtocolError(
                f"bank {self.bank_id}: MRA at {now} before window {self.next_activate}"
            )
        self.activations += len(rows)
        end = now + self.timing.t_mra(len(rows))
        self.block_until(end)
        return end

    def issue_shift(self, stages: int, now: int) -> int:
        """Issue an in-array shift; returns its completion cycle.

        Like MRA, SHIFT is atomic: precharged bank in, precharged bank
        out, all windows pushed past the internal open/shift/close
        envelope.
        """
        if self.open_row is not None:
            raise ProtocolError(
                f"bank {self.bank_id}: SHIFT while row {self.open_row} is open"
            )
        if now < self.next_activate:
            raise ProtocolError(
                f"bank {self.bank_id}: SHIFT at {now} before window {self.next_activate}"
            )
        self.activations += 1
        end = now + self.timing.t_shift(stages)
        self.block_until(end)
        return end

    def _check_column(self, row: int, now: int, kind: str) -> None:
        if self.open_row != row:
            raise ProtocolError(
                f"bank {self.bank_id}: {kind} to row {row} "
                f"but open row is {self.open_row}"
            )
        if now < self.next_column:
            raise ProtocolError(
                f"bank {self.bank_id}: {kind} at {now} before window {self.next_column}"
            )

    def block_until(self, time: int) -> None:
        """Push all command windows past ``time`` (used for refresh)."""
        self.next_activate = max(self.next_activate, time)
        self.next_column = max(self.next_column, time)
        self.next_precharge = max(self.next_precharge, time)
