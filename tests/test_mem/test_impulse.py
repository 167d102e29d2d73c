"""Tests for the Impulse-style baseline (controller-side gathers)."""

import struct

import pytest

from repro.core.module import GSModule
from repro.dram.address import Geometry
from repro.errors import ProtocolError, SimulationError
from repro.mem.impulse import ImpulseController, ImpulseModule
from repro.mem.request import MemoryRequest, RequestKind
from repro.utils.events import Engine

GEOMETRY = Geometry(chips=8, banks=2, rows_per_bank=8, columns_per_row=16)


def pack(values):
    return struct.pack(f"<{len(values)}Q", *values)


def unpack(data):
    return list(struct.unpack(f"<{len(data) // 8}Q", data))


def make():
    engine = Engine()
    module = ImpulseModule(geometry=GEOMETRY)
    controller = ImpulseController(engine, module)
    return engine, module, controller


def fill_group(module):
    for line in range(8):
        module.write_line(line * 64, pack(range(line * 8, line * 8 + 8)))


class TestFunctionalModule:
    def test_pattern0_round_trip(self):
        module = ImpulseModule(geometry=GEOMETRY)
        module.write_line(64, pack(range(8)))
        assert unpack(module.read_line(64)) == list(range(8))

    def test_gathered_read_matches_gs_semantics(self):
        impulse = ImpulseModule(geometry=GEOMETRY)
        gs = GSModule(geometry=GEOMETRY)
        fill_group(impulse)
        fill_group(gs)
        for pattern in range(8):
            for column in range(8):
                assert unpack(impulse.read_line(column * 64, pattern)) == unpack(
                    gs.read_line(column * 64, pattern)
                )

    def test_scattered_write(self):
        module = ImpulseModule(geometry=GEOMETRY)
        fill_group(module)
        module.write_line(0, pack(range(100, 108)), pattern=7)
        for line in range(8):
            assert unpack(module.read_line(line * 64))[0] == 100 + line

    def test_overlapping_columns(self):
        module = ImpulseModule(geometry=GEOMETRY)
        assert module.overlapping_columns(3, 7) == set(range(8))

    def test_constituents_positions(self):
        module = ImpulseModule(geometry=GEOMETRY)
        fill_group(module)
        gathered = unpack(module.read_line(0, pattern=7))
        for position, (line_address, offset) in enumerate(
            module.constituents(0, pattern=7)
        ):
            line = unpack(module.read_line(line_address))
            assert line[offset // 8] == gathered[position]


class TestTimedGather:
    def test_gather_expands_to_eight_reads(self):
        engine, module, controller = make()
        fill_group(module)
        done = []
        controller.submit(
            MemoryRequest(0, RequestKind.READ, pattern=7,
                          callback=lambda r: done.append(r))
        )
        engine.run()
        assert controller.stats.get("cmd_RD") == 8
        assert controller.stats.get("impulse_gathers") == 1
        assert unpack(done[0].data) == list(range(0, 64, 8))

    def test_stride2_expands_to_two_reads(self):
        engine, module, controller = make()
        fill_group(module)
        done = []
        controller.submit(
            MemoryRequest(0, RequestKind.READ, pattern=1,
                          callback=lambda r: done.append(r))
        )
        engine.run()
        assert controller.stats.get("cmd_RD") == 2
        assert unpack(done[0].data) == list(range(0, 16, 2))

    def test_pattern0_passthrough(self):
        engine, module, controller = make()
        module.write_line(0, pack(range(8)))
        done = []
        controller.submit(
            MemoryRequest(0, RequestKind.READ, callback=lambda r: done.append(r))
        )
        engine.run()
        assert controller.stats.get("cmd_RD") == 1
        assert controller.stats.get("impulse_gathers") == 0

    def test_gather_slower_than_single_read(self):
        engine, module, controller = make()
        fill_group(module)
        done = []
        controller.submit(
            MemoryRequest(0, RequestKind.READ, pattern=7,
                          callback=lambda r: done.append(r))
        )
        engine.run()
        gather_finish = done[0].finish_time

        engine2, module2, controller2 = make()
        module2.write_line(0, pack(range(8)))
        done2 = []
        controller2.submit(
            MemoryRequest(0, RequestKind.READ,
                          callback=lambda r: done2.append(r))
        )
        engine2.run()
        assert gather_finish > done2[0].finish_time


class TestTimedScatter:
    def test_scatter_read_modify_writes(self):
        engine, module, controller = make()
        fill_group(module)
        done = []
        controller.submit(
            MemoryRequest(0, RequestKind.WRITE, pattern=7,
                          data=pack(range(200, 208)),
                          callback=lambda r: done.append(r))
        )
        engine.run()
        assert controller.stats.get("impulse_scatters") == 1
        assert controller.stats.get("cmd_WR") == 8
        for line in range(8):
            assert unpack(module.read_line(line * 64))[0] == 200 + line

    def test_scatter_without_data_rejected(self):
        engine, module, controller = make()
        with pytest.raises(SimulationError):
            controller.submit(MemoryRequest(0, RequestKind.WRITE, pattern=7))


class TestRejection:
    def test_gs_module_rejected(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            ImpulseController(engine, GSModule(geometry=GEOMETRY))

    @pytest.mark.parametrize("kind, data", [
        (RequestKind.READ, None),
        (RequestKind.WRITE, pack(range(8))),
    ], ids=["read", "write"])
    def test_negative_pattern_rejected(self, kind, data):
        engine, module, controller = make()
        with pytest.raises(ProtocolError):
            controller.submit(MemoryRequest(0, kind, pattern=-1, data=data))
        assert controller.stats.get("requests") == 0
