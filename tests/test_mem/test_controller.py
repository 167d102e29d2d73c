"""Tests for the timed memory controller."""

import pytest

from repro.core.module import GSModule
from repro.cpu.isa import Load
from repro.dram.address import Geometry, MappingPolicy
from repro.dram.module import DRAMModule
from repro.errors import ProtocolError, SimulationError
from repro.mem.controller import MemoryController
from repro.mem.request import MemoryRequest, RequestKind
from repro.sim.config import impulse_config, table1_config
from repro.sim.system import System
from repro.utils.events import Engine

GEOMETRY = Geometry(banks=8, rows_per_bank=64, columns_per_row=128)


def make(gs: bool = True, **kwargs):
    engine = Engine()
    module = (GSModule if gs else DRAMModule)(geometry=GEOMETRY)
    controller = MemoryController(engine, module, **kwargs)
    return engine, module, controller


def submit_read(controller, address, done, pattern=0):
    controller.submit(
        MemoryRequest(
            address, RequestKind.READ, pattern=pattern,
            callback=lambda r: done.append(r),
        )
    )


TIMING = None  # filled lazily per-module in tests


class TestLatencies:
    def test_row_miss_latency(self):
        engine, module, controller = make()
        done = []
        submit_read(controller, 0, done)
        engine.run()
        timing = module.timing
        expected = timing.t_rcd + timing.cl + timing.t_bl + 3  # + shuffle
        assert done[0].finish_time == expected
        assert done[0].row_hit is False

    def test_row_hit_latency(self):
        engine, module, controller = make()
        done = []
        submit_read(controller, 0, done)
        engine.run()
        submit_read(controller, 64, done)
        engine.run()
        assert done[1].row_hit is True
        # The hit needs no new ACT: its latency is CL + burst + shuffle.
        assert controller.stats.get("cmd_ACT") == 1
        timing = module.timing
        assert done[1].finish_time - done[1].arrival_time == (
            timing.cl + timing.t_bl + 3
        )

    def test_plain_module_has_no_shuffle_latency(self):
        engine, module, controller = make(gs=False)
        done = []
        submit_read(controller, 0, done)
        engine.run()
        timing = module.timing
        assert done[0].finish_time == timing.t_rcd + timing.cl + timing.t_bl

    def test_row_conflict_pays_precharge(self):
        engine, module, controller = make()
        done = []
        submit_read(controller, 0, done)
        engine.run()
        row_bytes = module.geometry.row_bytes
        conflict_addr = module.mapping.encode(bank=0, row=1, column=0)
        submit_read(controller, conflict_addr, done)
        engine.run()
        assert done[1].row_hit is False
        assert controller.stats.get("cmd_PRE") == 1


class TestBankParallelism:
    def test_different_banks_overlap(self):
        engine, module, controller = make()
        done = []
        bank0 = module.mapping.encode(bank=0, row=0, column=0)
        bank1 = module.mapping.encode(bank=1, row=0, column=0)
        submit_read(controller, bank0, done)
        submit_read(controller, bank1, done)
        engine.run()
        # The second access overlaps its activation with the first: it
        # finishes well before two serial misses would.
        serial = 2 * done[0].finish_time
        assert done[1].finish_time < serial

    def test_data_bus_serialises_bursts(self):
        engine, module, controller = make()
        done = []
        for bank in range(4):
            submit_read(controller, module.mapping.encode(bank=bank, row=0, column=0), done)
        engine.run()
        finish_times = sorted(r.finish_time for r in done)
        gaps = [b - a for a, b in zip(finish_times, finish_times[1:])]
        assert all(gap >= module.timing.t_bl for gap in gaps)


class TestWrites:
    def test_write_then_read_same_line(self):
        engine, module, controller = make()
        done = []
        payload = bytes(range(64))
        controller.submit(
            MemoryRequest(0, RequestKind.WRITE, data=payload,
                          callback=lambda r: done.append(r))
        )
        engine.run()
        submit_read(controller, 0, done)
        engine.run()
        assert done[1].data == payload

    def test_write_without_data_rejected(self):
        engine, module, controller = make()
        errors = []
        controller.submit(MemoryRequest(0, RequestKind.WRITE))
        with pytest.raises(SimulationError):
            engine.run()


class TestPatterns:
    def test_gathered_read_counts_one_command(self):
        engine, module, controller = make()
        # Populate a tuple group functionally.
        for line in range(8):
            module.write_line(line * 64, bytes([line]) * 64)
        done = []
        submit_read(controller, 0, done, pattern=7)
        engine.run()
        assert controller.stats.get("cmd_RD") == 1
        assert controller.stats.get("requests_patterned") == 1
        # Gathered data: field 0 of each tuple -> first byte of line k is k.
        assert [done[0].data[i * 8] for i in range(8)] == list(range(8))

    def test_pattern_on_plain_module_rejected(self):
        engine, module, controller = make(gs=False)
        controller.submit(MemoryRequest(0, RequestKind.READ, pattern=7))
        with pytest.raises(SimulationError):
            engine.run()

    def test_negative_pattern_rejected_without_command_trace(self):
        # The protocol audit must not depend on a Command being built:
        # no command trace and no tracer are attached here.
        engine, module, controller = make(trace_commands=False)
        assert controller.tracer is None
        with pytest.raises(ProtocolError):
            controller.submit(MemoryRequest(0, RequestKind.READ, pattern=-1))
            engine.run()

    @pytest.mark.parametrize("config", [table1_config, impulse_config])
    def test_negative_pattern_rejected_through_system(self, config):
        with pytest.raises(ProtocolError):
            System(config()).run([[Load(0, pattern=-1)]])


class TestNoDataAnnotation:
    def test_skips_functional_movement(self):
        engine, module, controller = make()
        request = MemoryRequest(0, RequestKind.READ)
        request.annotations["no_data"] = True
        controller.submit(request)
        engine.run()
        assert request.data is None


class TestRefresh:
    def test_elapsed_intervals_settled_on_submit(self):
        engine, module, controller = make(refresh_enabled=True)
        engine.schedule(module.timing.t_refi * 3 + 10, lambda: None)
        engine.run()
        done = []
        submit_read(controller, 0, done)
        engine.run()
        assert controller.stats.get("cmd_REF") == 3

    def test_refresh_delays_following_access(self):
        engine, module, controller = make(refresh_enabled=True)
        engine.schedule(module.timing.t_refi + 1, lambda: None)
        engine.run()
        start = engine.now
        done = []
        submit_read(controller, 0, done)
        engine.run()
        # The access waited out tRFC before activating.
        assert done[0].finish_time - start > module.timing.t_rfc

    def test_read_correct_after_refresh(self):
        engine, module, controller = make(refresh_enabled=True)
        module.write_line(0, bytes(range(64)))
        engine.schedule(module.timing.t_refi + 10, lambda: None)
        engine.run()
        done = []
        submit_read(controller, 0, done)
        engine.run()
        assert done[0].data == bytes(range(64))

    def test_no_refresh_when_disabled(self):
        engine, module, controller = make(refresh_enabled=False)
        engine.schedule(module.timing.t_refi * 5, lambda: None)
        engine.run()
        done = []
        submit_read(controller, 0, done)
        engine.run()
        assert controller.stats.get("cmd_REF") == 0


class TestAccounting:
    def test_pending_drains_to_zero(self):
        engine, module, controller = make()
        done = []
        for i in range(5):
            submit_read(controller, i * 64, done)
        assert controller.pending_requests() > 0
        engine.run()
        assert controller.pending_requests() == 0
        assert len(done) == 5

    def test_queue_delay_histogram(self):
        engine, module, controller = make()
        done = []
        submit_read(controller, 0, done)
        engine.run()
        assert controller.queue_delay.count == 1
        assert controller.queue_delay.mean > 0
