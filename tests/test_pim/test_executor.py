"""Tests for the PIM executor: counters, timing cursors, readback."""

import pytest

from repro.dram.address import Geometry
from repro.dram.module import DRAMModule
from repro.errors import ProtocolError
from repro.pim.executor import PIMExecutor

SMALL = Geometry(chips=8, banks=2, rows_per_bank=8, columns_per_row=16)


def make_executor() -> PIMExecutor:
    return PIMExecutor(DRAMModule(geometry=SMALL))


def run_program(ex: PIMExecutor) -> bytes:
    row_bytes = ex.module.geometry.row_bytes
    ex.load_row(0, 0, b"\xf0" * row_bytes)
    ex.load_row(0, 1, b"\xff" * row_bytes)
    ex.load_row(0, 2, b"\x0f" * row_bytes)
    ex.mra(0, (0, 1), 3, "AND")
    ex.mra(0, (0, 1, 2), 4, "MAJ")
    ex.mra(0, (3, 4), 5, "OR")
    ex.shift(0, 5, 3, "right")
    return ex.read_lines(0, 5, 2)


class TestCounters:
    def test_command_counts(self):
        ex = make_executor()
        run_program(ex)
        counts = dict(ex.stats.as_dict())
        assert counts["cmd_MRA2"] == 2
        assert counts["cmd_MRA3"] == 1
        assert counts["mra_and"] == 1
        assert counts["mra_maj"] == 1
        assert counts["mra_or"] == 1
        assert counts["cmd_SHIFT"] == 1
        assert counts["shift_stages"] == 2  # 3 = 0b11 -> 2 barrel stages
        assert counts["rows_loaded"] == 3
        assert counts["cmd_ACT"] == 1
        assert counts["cmd_RD"] == 2
        assert counts["cmd_PRE"] == 1

    def test_invalid_commands_are_rejected_before_counting(self):
        ex = make_executor()
        with pytest.raises(ProtocolError):
            ex.mra(0, (1,), 2, "AND")
        with pytest.raises(ProtocolError):
            ex.shift(0, 1, 0)
        assert dict(ex.stats.as_dict()) == {}


class TestTiming:
    def test_timed_cycles_positive_and_monotonic(self):
        ex = make_executor()
        ex.mra(0, (0, 1), 2, "AND")
        first = ex.cycles
        ex.mra(0, (2, 3), 4, "OR")
        assert 0 < first < ex.cycles

    def test_mra_matches_bank_window(self):
        ex = make_executor()
        ex.mra(0, (0, 1), 2, "AND")
        assert ex.cycles == ex.module.timing.t_mra(2)

    def test_banks_overlap(self):
        serial = make_executor()
        serial.mra(0, (0, 1), 2, "AND")
        serial.mra(0, (3, 4), 5, "AND")
        overlapped = make_executor()
        overlapped.mra(0, (0, 1), 2, "AND")
        overlapped.mra(1, (3, 4), 5, "AND")
        # Different banks only serialise on the command bus slot.
        assert overlapped.cycles < serial.cycles
        assert overlapped.cycles == (
            overlapped.module.timing.t_mra(2) + overlapped.module.cpu_per_bus
        )


class TestReadback:
    def test_read_lines_returns_row_prefix(self):
        ex = make_executor()
        data = bytes(range(256)) * (ex.module.geometry.row_bytes // 256)
        ex.load_row(1, 6, data)
        assert ex.read_lines(1, 6, 3) == data[: 3 * ex.module.line_bytes]

    def test_read_lines_validates_columns(self):
        ex = make_executor()
        with pytest.raises(ProtocolError):
            ex.read_lines(0, 0, 0)
        with pytest.raises(ProtocolError):
            ex.read_lines(0, 0, SMALL.columns_per_row + 1)
