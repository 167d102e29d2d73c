"""Timed memory controller over the DRAM module.

The controller owns per-bank request queues and drives each bank's
command sequence (PRE -> ACT -> RD/WR) with an open-row policy: rows
are left open after access and closed only when a conflicting request
or a refresh needs the bank. Scheduling is per-bank FR-FCFS by default
(see :mod:`repro.mem.schedulers`); the shared data bus and command bus
serialize transfers across banks.

GS-DRAM specifics (Section 3.6): reads/writes on shuffled pages pay the
``shuffle_latency`` (3 cycles for GS-DRAM(8,3,3)) to traverse the
controller's shuffle network, and the pattern ID rides with the column
command at no extra timing cost.
"""

from __future__ import annotations

from typing import Callable

from repro.dram.commands import Command, CommandKind
from repro.dram.module import DRAMModule
from repro.errors import ProtocolError, SimulationError
from repro.mem.request import MemoryRequest, Phase, RequestKind
from repro.mem.schedulers import FRFCFS, Scheduler
from repro.utils.events import Engine
from repro.utils.statistics import Histogram, StatGroup

#: Pre-rendered per-kind stat names; ``submit`` is called once per
#: memory request and must not re-format strings on the hot path.
_KIND_STAT = {kind: f"requests_{kind.value}" for kind in RequestKind}
_CMD_STAT = {kind: f"cmd_{kind.value}" for kind in CommandKind}

# Enum members bound once: reading ``Phase.DONE`` off the class runs
# Python-level enum code, and the phase machine compares on every step.
_QUEUED = Phase.QUEUED
_NEED_PRECHARGE = Phase.NEED_PRECHARGE
_NEED_ACTIVATE = Phase.NEED_ACTIVATE
_NEED_COLUMN = Phase.NEED_COLUMN
_DONE = Phase.DONE
_PRECHARGE = CommandKind.PRECHARGE
_ACTIVATE = CommandKind.ACTIVATE
_READ = CommandKind.READ
_WRITE = CommandKind.WRITE


class MemoryController:
    """Queues, schedules, and times requests against one DRAM module."""

    def __init__(
        self,
        engine: Engine,
        module: DRAMModule,
        scheduler: Scheduler | None = None,
        shuffle_latency: int = 3,
        refresh_enabled: bool = False,
        trace_commands: bool = False,
        open_row_policy: bool = True,
    ) -> None:
        self.engine = engine
        self.module = module
        self.scheduler = scheduler or FRFCFS()
        # A scheduler passed explicitly may carry arbitration state from
        # a previous run (e.g. FR-FCFS starvation streaks); a controller
        # must start from a clean slate or back-to-back simulations with
        # the same scheduler instance are not deterministic.
        self.scheduler.reset()
        self.shuffle_latency = shuffle_latency if module.supports_patterns else 0
        self.refresh_enabled = refresh_enabled
        self.trace_commands = trace_commands
        #: Open-row (Table 1) vs closed-page: close the row after each
        #: column command when no queued request wants it.
        self.open_row_policy = open_row_policy
        self.command_trace: list[tuple[int, Command]] = []
        #: Optional structured tracer (:mod:`repro.obs.tracer`); ``None``
        #: keeps every hook to a single identity check on miss paths.
        self.tracer = None

        banks = module.geometry.banks
        self._queues: list[list[MemoryRequest]] = [[] for _ in range(banks)]
        self._active: list[MemoryRequest | None] = [None] * banks
        self._bus_free = 0  # data bus
        self._cmd_free = 0  # command bus (one command per bus cycle)
        self._rank_next_activate = 0  # tRRD across banks
        self._recent_activates: list[int] = []  # tFAW window (last 4 ACTs)

        self.stats = StatGroup("memory_controller")
        self.queue_delay = Histogram(bucket_width=50)
        self._last_refresh = 0

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    def submit(self, request: MemoryRequest) -> None:
        """Queue a request; its callback fires when data is delivered."""
        if request.pattern < 0:
            # The request's one field a column command could reject:
            # bank, row and column come from decode and are never
            # negative. Checked here, once, because a Command record
            # (whose audit would catch it) is built only when traced.
            raise ProtocolError(
                "row/column/pattern must be non-negative",
                address=request.address, pattern=request.pattern,
            )
        if self.refresh_enabled:
            self._maybe_refresh()
        request.arrival_time = self.engine.now
        request.location = self.module.decode(
            self.module.mapping.line_address(request.address)
        )
        request.phase = _QUEUED
        self.stats.add("requests")
        self.stats.add(_KIND_STAT[request.kind])
        if request.pattern:
            self.stats.add("requests_patterned")
        bank_id = request.location.bank
        self._queues[bank_id].append(request)
        if self._active[bank_id] is None:
            self._bank_next(bank_id)

    def pending_requests(self) -> int:
        """Requests queued or in service (drain check for barriers)."""
        queued = sum(len(q) for q in self._queues)
        in_service = sum(1 for r in self._active if r is not None)
        return queued + in_service

    # ------------------------------------------------------------------
    # Per-bank service machinery
    # ------------------------------------------------------------------
    def _bank_next(self, bank_id: int) -> None:
        queue = self._queues[bank_id]
        if not queue or self._active[bank_id] is not None:
            return
        bank = self.module.banks[bank_id]
        request = self.scheduler.choose(queue, bank)
        queue.remove(request)
        self._active[bank_id] = request
        assert request.location is not None
        if bank.is_open(request.location.row):
            request.phase = _NEED_COLUMN
            request.row_hit = True
        elif bank.open_row is None:
            request.phase = _NEED_ACTIVATE
            request.row_hit = False
        else:
            request.phase = _NEED_PRECHARGE
            request.row_hit = False
        self._advance(bank_id)

    def _advance(self, bank_id: int) -> None:
        # Wake-ups may be stale (the request they were scheduled for has
        # completed); the phase machine is idempotent, so a stale wake
        # simply drives whatever request is active now, or returns.
        request = self._active[bank_id]
        if request is None:
            return
        bank = self.module.banks[bank_id]
        now = self.engine.now
        timing = self.module.timing
        phase = request.phase

        # Each phase that issues its command falls through to the next
        # one at the same cycle.
        if phase is _NEED_PRECHARGE:
            earliest = max(bank.next_precharge, self._cmd_free, now)
            if earliest > now:
                self.engine.schedule_at(earliest, self._advance, bank_id)
                return
            bank.issue_precharge(now)
            self._record_command(_PRECHARGE, bank_id)
            self._occupy_cmd_bus(now)
            request.phase = phase = _NEED_ACTIVATE

        if phase is _NEED_ACTIVATE:
            earliest = max(
                bank.next_activate, self._rank_next_activate, self._cmd_free, now
            )
            if len(self._recent_activates) >= 4:
                # Four-activate window: the 5th ACT waits for tFAW after
                # the 1st of the last four.
                earliest = max(
                    earliest, self._recent_activates[-4] + timing.t_faw
                )
            if earliest > now:
                self.engine.schedule_at(earliest, self._advance, bank_id)
                return
            assert request.location is not None
            bank.issue_activate(request.location.row, now)
            self._recent_activates.append(now)
            if len(self._recent_activates) > 4:
                self._recent_activates.pop(0)
            self._record_command(_ACTIVATE, bank_id, request.location.row)
            self._occupy_cmd_bus(now)
            self._rank_next_activate = now + timing.t_rrd
            request.phase = phase = _NEED_COLUMN

        if phase is _NEED_COLUMN:
            cas = timing.cwl if request.kind.is_write else timing.cl
            earliest = max(
                bank.next_column, self._cmd_free, self._bus_free - cas, now
            )
            if earliest > now:
                self.engine.schedule_at(earliest, self._advance, bank_id)
                return
            self._issue_column(bank_id, request, now)
            return

        raise SimulationError(f"request in unexpected phase {request.phase}")

    def _issue_column(self, bank_id: int, request: MemoryRequest, now: int) -> None:
        bank = self.module.banks[bank_id]
        assert request.location is not None
        row = request.location.row
        column = request.location.column
        is_write = request.kind.is_write
        if is_write:
            burst_end = bank.issue_write(row, now)
            self._record_command(_WRITE, bank_id, row, column, request.pattern)
        else:
            burst_end = bank.issue_read(row, now)
            self._record_command(_READ, bank_id, row, column, request.pattern)
        self._occupy_cmd_bus(now)
        self._bus_free = burst_end
        self.stats.add("row_hits" if request.row_hit else "row_misses")
        request.issue_time = now

        # Functional data movement happens with the burst.
        self._move_data(request)

        finish = burst_end + self._data_path_latency(request)
        request.finish_time = finish
        request.phase = _DONE
        if self.tracer is not None:
            self.tracer.complete(
                "controller",
                "write" if is_write else "read",
                request.arrival_time,
                finish - request.arrival_time,
                tid=bank_id,
                args={
                    "row": row,
                    "column": column,
                    "pattern": request.pattern,
                    "row_hit": request.row_hit,
                },
            )
        self.queue_delay.observe(finish - request.arrival_time)
        self._active[bank_id] = None
        self.engine.schedule_at(finish, self._complete, request)
        if not self.open_row_policy:
            self._auto_precharge(bank_id, row)
        self._bank_next(bank_id)

    def _auto_precharge(self, bank_id: int, row: int) -> None:
        """Closed-page policy: close the row unless a queued request
        wants it (a minimal row-hit window)."""
        bank = self.module.banks[bank_id]
        wanted = any(
            req.location is not None and req.location.row == row
            for req in self._queues[bank_id]
        )
        if wanted or bank.open_row is None:
            return
        close_at = max(bank.next_precharge, self.engine.now)
        # Defer the precharge to its legal window via a scheduled close.
        if close_at > self.engine.now:
            self.engine.schedule_at(close_at, self._do_precharge, bank_id, row)
        else:
            self._do_precharge(bank_id, row)

    def _do_precharge(self, bank_id: int, row: int) -> None:
        bank = self.module.banks[bank_id]
        if bank.open_row != row or self._active[bank_id] is not None:
            return  # a newer request reopened or is using the bank
        if self.engine.now < bank.next_precharge:
            return  # superseded; a later close will fire if still idle
        bank.issue_precharge(self.engine.now)
        self._record_command(_PRECHARGE, bank_id)

    def _data_path_latency(self, request: MemoryRequest) -> int:
        """Extra controller-side latency: the GS shuffle network."""
        if self.shuffle_latency and request.shuffled:
            return self.shuffle_latency
        return 0

    def _move_data(self, request: MemoryRequest) -> None:
        if request.annotations.get("no_data"):
            # The cache hierarchy handles functional data movement itself
            # (writes at eviction time, reads at fill-completion time).
            return
        address = self.module.mapping.line_address(request.address)
        if self.module.supports_patterns:
            if request.is_write:
                if request.data is None:
                    raise SimulationError(
                        "write request carries no data",
                        address=request.address,
                        pattern=request.pattern,
                        cycle=self.engine.now,
                    )
                self.module.write_line(
                    address, request.data, request.pattern, request.shuffled
                )
            else:
                request.data = self.module.read_line(
                    address, request.pattern, request.shuffled
                )
        else:
            if request.pattern:
                raise SimulationError(
                    "patterned request sent to a non-GS module",
                    address=request.address,
                    pattern=request.pattern,
                    cycle=self.engine.now,
                )
            if request.is_write:
                if request.data is None:
                    raise SimulationError(
                        "write request carries no data",
                        address=request.address,
                        cycle=self.engine.now,
                    )
                self.module.write_line(address, request.data)
            else:
                request.data = self.module.read_line(address)

    def _complete(self, request: MemoryRequest) -> None:
        if request.callback is not None:
            request.callback(request)

    # ------------------------------------------------------------------
    # Shared buses, refresh, bookkeeping
    # ------------------------------------------------------------------
    def _occupy_cmd_bus(self, now: int) -> None:
        self._cmd_free = now + self.module.cpu_per_bus

    def _record_command(
        self, kind: CommandKind, bank: int, row: int = 0, column: int = 0,
        pattern: int = 0,
    ) -> None:
        """Count one issued command as ``cmd_<kind>``.

        The :class:`Command` record is built only when something reads
        it: the command trace or an attached tracer. Its audit cannot
        fail here, since ``submit`` already rejected the one field a
        request can get wrong.
        """
        self.stats.add(_CMD_STAT[kind])
        if not self.trace_commands and self.tracer is None:
            return
        command = Command(kind, bank=bank, row=row, column=column,
                          pattern=pattern)
        if self.trace_commands:
            self.command_trace.append((self.engine.now, command))
        if self.tracer is not None:
            self.tracer.instant(
                "dram-command",
                kind.value,
                self.engine.now,
                tid=bank,
                args={
                    "bank": bank,
                    "row": row,
                    "column": column,
                    "pattern": pattern,
                },
            )

    def _maybe_refresh(self) -> None:
        """Lazy opportunistic refresh (accounting + bank blocking).

        Rather than a free-running timer (which would keep the event
        queue alive forever), elapsed refresh intervals are settled when
        a request arrives and the controller is idle. Real controllers
        may postpone up to 8 tREFI, so deferring while banks are busy is
        within spec; an all-bank REF then blocks every bank for tRFC.
        """
        timing = self.module.timing
        now = self.engine.now
        intervals = (now - self._last_refresh) // timing.t_refi
        if intervals <= 0:
            return
        if any(active is not None for active in self._active):
            return  # postponed; settled at a later submit
        self._last_refresh += intervals * timing.t_refi
        self.stats.add("cmd_REF", intervals)
        self.stats.add("refreshes", intervals)
        if self.trace_commands:
            from repro.dram.commands import refresh

            self.command_trace.append((now, refresh()))
        if self.tracer is not None:
            self.tracer.instant(
                "dram-command", CommandKind.REFRESH.value, now,
                args={"bank": -1, "intervals": intervals},
            )
        # The most recent refresh is (conservatively) modelled as in
        # progress now: close all rows and block the banks for tRFC.
        end = now + timing.t_rp + timing.t_rfc
        for bank in self.module.banks:
            bank.open_row = None
            bank.block_until(end)
