"""Tests for multi-channel composition (Section 4.2 extension)."""

import struct

import pytest

from repro.core.module import GSModule
from repro.cpu.isa import Load
from repro.dram.address import Geometry
from repro.errors import ConfigError
from repro.mem.channels import MultiChannelController, MultiChannelModule
from repro.mem.request import MemoryRequest, RequestKind
from repro.sim.config import plain_dram_config, table1_config
from repro.sim.system import System
from repro.utils.events import Engine

GEOMETRY = Geometry(chips=8, banks=2, rows_per_bank=8, columns_per_row=16)


def make_module(channels=2) -> MultiChannelModule:
    return MultiChannelModule([GSModule(geometry=GEOMETRY) for _ in range(channels)])


class TestRouting:
    def test_rows_alternate_channels(self):
        module = make_module()
        row_bytes = GEOMETRY.row_bytes
        assert module.route(0)[0] == 0
        assert module.route(row_bytes)[0] == 1
        assert module.route(2 * row_bytes)[0] == 0

    def test_local_addresses_compact(self):
        module = make_module()
        row_bytes = GEOMETRY.row_bytes
        _, local = module.route(2 * row_bytes + 100)
        assert local == row_bytes + 100

    def test_route_round_trip(self):
        module = make_module(channels=4)
        for address in range(0, module.geometry.capacity_bytes, 8192 + 64):
            channel, local = module.route(address)
            assert module.mapping.global_address(channel, local) == address

    def test_capacity_is_summed(self):
        module = make_module()
        assert module.geometry.capacity_bytes == 2 * GEOMETRY.capacity_bytes

    def test_decode_globalises_banks(self):
        module = make_module()
        loc0 = module.decode(0)
        loc1 = module.decode(GEOMETRY.row_bytes)  # channel 1
        assert loc1.bank >= GEOMETRY.banks  # globalised
        assert loc0.bank < GEOMETRY.banks

    def test_mismatched_geometry_rejected(self):
        other = Geometry(chips=8, banks=4, rows_per_bank=8, columns_per_row=16)
        with pytest.raises(ConfigError):
            MultiChannelModule([GSModule(geometry=GEOMETRY),
                                GSModule(geometry=other)])

    def test_needs_two_channels(self):
        with pytest.raises(ConfigError):
            MultiChannelModule([GSModule(geometry=GEOMETRY)])


class TestFunctional:
    def test_line_round_trip_across_channels(self):
        module = make_module()
        for row in range(4):
            address = row * GEOMETRY.row_bytes
            module.write_line(address, bytes([row]) * 64)
        for row in range(4):
            address = row * GEOMETRY.row_bytes
            assert module.read_line(address) == bytes([row]) * 64

    def test_gather_within_channel(self):
        module = make_module()
        for line in range(8):
            payload = struct.pack("<8Q", *range(line * 8, line * 8 + 8))
            module.write_line(line * 64, payload)
        gathered = struct.unpack("<8Q", module.read_line(0, pattern=7))
        assert list(gathered) == list(range(0, 64, 8))

    def test_constituents_globalised(self):
        module = make_module()
        # A gather in channel 1's first row.
        base = GEOMETRY.row_bytes
        for line_address, _offset in module.constituents(base, pattern=7):
            assert module.route(line_address)[0] == 1


class TestTimedRouting:
    def test_requests_reach_their_channels(self):
        engine = Engine()
        module = make_module()
        controller = MultiChannelController(
            engine, module, scheduler_factory=lambda: None
        )
        done = []
        for row in range(4):
            controller.submit(
                MemoryRequest(row * GEOMETRY.row_bytes, RequestKind.READ,
                              callback=lambda r: done.append(r))
            )
        engine.run()
        assert len(done) == 4
        per_channel = [c.stats.get("cmd_RD") for c in controller.controllers]
        assert per_channel == [2, 2]

    def test_aggregate_stats(self):
        engine = Engine()
        module = make_module()
        controller = MultiChannelController(
            engine, module, scheduler_factory=lambda: None
        )
        controller.submit(MemoryRequest(0, RequestKind.READ))
        controller.submit(MemoryRequest(GEOMETRY.row_bytes, RequestKind.READ))
        engine.run()
        assert controller.stats.get("requests") == 2
        assert controller.pending_requests() == 0


class TestSystemIntegration:
    def test_full_system_round_trip(self):
        system = System(table1_config(channels=2))
        base = system.pattmalloc(16 * 64, shuffle=True, pattern=7)
        payload = bytes(range(256)) * 4
        system.mem_write(base, payload)
        assert system.mem_read(base, len(payload)) == payload

    def test_two_channel_run(self):
        system = System(plain_dram_config(channels=2))
        base = system.malloc(4 * 8192)  # spans both channels
        system.mem_write(base, bytes(4 * 8192))
        addresses = [base + row * 8192 for row in range(4)]
        result = system.run([[Load(a) for a in addresses]])
        assert result.dram_reads == 4

    def test_disjoint_streams_scale_with_channels(self):
        def run(channels: int) -> int:
            system = System(plain_dram_config(channels=channels, cores=2,
                                              prefetch=True))
            bases = [system.malloc(64 * 8192) for _ in range(2)]
            for b in bases:
                system.mem_write(b, bytes(16 * 8192))

            def scan(base):
                for line in range(16 * 128):
                    yield Load(base + line * 64, pc=0x90)

            return system.run([scan(bases[0]), scan(bases[1])]).cycles

        assert run(2) < 0.65 * run(1)


class TestQueueDelay:
    def test_merged_histogram_keeps_exact_values(self):
        # Row-striding loads spread over both channels and queue behind
        # each other; the merged histogram must report the channels'
        # exact mean and maximum, not their 50-cycle bucket floors.
        system = System(table1_config(channels=2))
        result = system.run([[Load(i * 64 * 129) for i in range(40)]])
        channels = [c.queue_delay for c in system.controller.controllers]
        count = sum(h.count for h in channels)
        total = sum(h.mean * h.count for h in channels)
        merged = system.controller.queue_delay
        assert count == 40
        assert merged.count == count
        assert merged.mean == pytest.approx(total / count)
        assert result.extra["mean_memory_queue_delay"] == pytest.approx(
            total / count
        )
        assert merged.maximum == max(h.maximum for h in channels)
        assert merged.maximum % 50 != 0


class TestImpulseChannels:
    def test_impulse_system_with_two_channels(self):
        import struct

        from repro.sim.config import impulse_config

        system = System(impulse_config(channels=2))
        base = system.pattmalloc(16 * 64, shuffle=True, pattern=7)
        payload = b"".join(struct.pack("<8Q", *(t * 8 + f for f in range(8)))
                           for t in range(16))
        system.mem_write(base, payload)
        from repro.cpu.isa import pattload

        seen = []
        ops = [pattload(base + 8 * j, pattern=7,
                        on_value=lambda b: seen.append(
                            struct.unpack("<Q", b)[0]))
               for j in range(8)]
        system.run([ops])
        assert seen == [t * 8 for t in range(8)]
        # The gather expanded into one read per underlying line.
        assert system.controller.stats.get("cmd_RD") == 8
