"""The PIM command executor: functional semantics + timing + counters.

The in-DRAM command stream is strictly sequential per bank (each MRA
consumes the previous one's destination), so its event-accurate timing
model needs no discrete event engine: a per-bank completion cursor
walking the real :class:`repro.dram.bank.Bank` issue windows, plus a
shared command-bus cursor (one command slot per ``cpu_per_bus``
cycles), reproduces exactly what the event controller would do with
these commands. Banks overlap with each other — chunked aggregates
farm one chunk per bank — and ``cycles`` is the latest completion.
"""

from __future__ import annotations

from repro.dram import commands
from repro.errors import ProtocolError
from repro.utils.statistics import StatGroup


class PIMExecutor:
    """Issues MRA / SHIFT / readback streams against one DRAM module."""

    def __init__(self, module, tracer=None) -> None:
        self.module = module
        self.tracer = tracer
        self.stats = StatGroup("pim")
        banks = module.geometry.banks
        self._bank_time = [0] * banks
        self._bus_free = 0

    # ------------------------------------------------------------------
    # Timing helpers
    # ------------------------------------------------------------------
    @property
    def cycles(self) -> int:
        """Completion cycle of the latest command."""
        return max(self._bank_time)

    def _slot(self, bank_id: int) -> int:
        """Earliest cycle the command bus + bank can accept a command."""
        return max(self._bus_free, self._bank_time[bank_id])

    def _took(self, bank_id: int, issue: int, end: int) -> None:
        self._bus_free = issue + self.module.cpu_per_bus
        self._bank_time[bank_id] = end

    def _trace(self, command) -> None:
        if self.tracer is None:
            return
        args = {"bank": command.bank, "row": command.row,
                "column": command.column, "pattern": command.pattern}
        if command.rows:
            args["rows"] = list(command.rows)
        if command.kind is commands.CommandKind.MULTI_ROW_ACTIVATE:
            args["op"] = command.op
        if command.kind is commands.CommandKind.SHIFT:
            args["op"] = command.op
            args["amount"] = command.amount
        self.tracer.instant("dram-command", command.kind.value,
                            self._bank_time[command.bank],
                            tid=command.bank, args=args)

    # ------------------------------------------------------------------
    # In-DRAM compute commands
    # ------------------------------------------------------------------
    def mra(self, bank_id: int, rows: tuple[int, ...], dest: int,
            op: str) -> None:
        """Issue one multi-row activation (validated, functional, timed)."""
        command = commands.mra(bank_id, rows, dest, op)
        self.module.rank.mra(bank_id, command.rows, dest, op)
        self.stats.add(f"cmd_MRA{len(command.rows)}")
        self.stats.add(f"mra_{op.lower()}")
        bank = self.module.banks[bank_id]
        issue = max(self._slot(bank_id), bank.next_activate)
        end = bank.issue_mra(command.rows, issue)
        self._took(bank_id, issue, end)
        self._trace(command)

    def shift(self, bank_id: int, row: int, amount: int,
              direction: str = "left") -> None:
        """Issue one in-array shift (validated, functional, timed)."""
        command = commands.shift(bank_id, row, amount, direction)
        self.module.rank.shift_row(bank_id, row, amount, direction)
        stages = amount.bit_length()
        self.stats.add("cmd_SHIFT")
        self.stats.add("shift_stages", stages)
        bank = self.module.banks[bank_id]
        issue = max(self._slot(bank_id), bank.next_activate)
        end = bank.issue_shift(stages, issue)
        self._took(bank_id, issue, end)
        self._trace(command)

    # ------------------------------------------------------------------
    # Data movement
    # ------------------------------------------------------------------
    def load_row(self, bank_id: int, row: int, data: bytes) -> None:
        """Functionally pre-load one row (untimed, like ``mem_write``).

        Bit-slice layout construction is part of a workload's setup
        phase — symmetric with the GS side loading its table through
        functional writes — so it issues no timed commands.
        """
        self.module.rank.write_row(bank_id, row, data)
        self.stats.add("rows_loaded")

    def read_lines(self, bank_id: int, row: int, columns: int) -> bytes:
        """Read the first ``columns`` lines of a row back to the CPU.

        Timed as the event controller would issue it: ACT, a row-hit
        READ per line, PRE.
        """
        if columns < 1 or columns > self.module.geometry.columns_per_row:
            raise ProtocolError(
                f"readback of {columns} lines from a "
                f"{self.module.geometry.columns_per_row}-column row")
        bank = self.module.banks[bank_id]
        issue = max(self._slot(bank_id), bank.next_activate)
        bank.issue_activate(row, issue)
        self._bus_free = issue + self.module.cpu_per_bus
        burst_end = issue
        for _ in range(columns):
            slot = max(self._bus_free, bank.next_column)
            burst_end = bank.issue_read(row, slot)
            self._bus_free = slot + self.module.cpu_per_bus
        pre = max(self._bus_free, bank.next_precharge, burst_end)
        bank.issue_precharge(pre)
        self._bank_time[bank_id] = pre + self.module.timing.t_rp
        self.stats.add("cmd_ACT")
        self.stats.add("cmd_RD", columns)
        self.stats.add("cmd_PRE")
        parts = [
            self.module.rank.read_line(bank_id, row, column)
            for column in range(columns)
        ]
        return b"".join(parts)
