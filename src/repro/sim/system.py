"""The full simulated machine: cores + caches + controller + DRAM.

:class:`System` builds every component from a :class:`SystemConfig`
and runs one instruction stream per core to completion, returning a
:class:`RunResult`. It also exposes the allocation API (``pattmalloc``)
and functional memory access for loading data and checking answers.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.cache.hierarchy import CacheHierarchy
from repro.cache.prefetcher import StridePrefetcher
from repro.core.module import GSModule
from repro.core.shuffle import LSBShuffle, NoShuffle
from repro.cpu.autopattern import AutoPatternUnit
from repro.cpu.core import Core
from repro.dram.module import DRAMModule
from repro.energy.model import system_energy
from repro.errors import SimulationError
from repro.mem.channels import MultiChannelController, MultiChannelModule
from repro.mem.controller import MemoryController
from repro.mem.impulse import ImpulseController, ImpulseModule
from repro.mem.schedulers import FCFS, FRFCFS, Scheduler
from repro.obs.session import current_session
from repro.sim.config import Mechanism, SchedulerKind, SystemConfig
from repro.sim.results import RunResult
from repro.utils.bitops import split_span
from repro.utils.events import Engine
from repro.vm.pattmalloc import PattAllocator


def _build_module(config: SystemConfig) -> DRAMModule:
    if config.mechanism is Mechanism.IMPULSE:
        return ImpulseModule(
            geometry=config.geometry,
            cpu_per_bus=config.cpu_per_bus,
            policy=config.mapping_policy,
        )
    if config.mechanism is Mechanism.GS_DRAM:
        shuffle = (
            LSBShuffle(config.shuffle_stages)
            if config.shuffle_stages > 0
            else NoShuffle()
        )
        return GSModule(
            geometry=config.geometry,
            cpu_per_bus=config.cpu_per_bus,
            policy=config.mapping_policy,
            shuffle=shuffle,
            pattern_bits=config.pattern_bits,
        )
    return DRAMModule(
        geometry=config.geometry,
        cpu_per_bus=config.cpu_per_bus,
        policy=config.mapping_policy,
    )


def _build_scheduler(config: SystemConfig) -> Scheduler:
    if config.scheduler is SchedulerKind.FCFS:
        return FCFS()
    return FRFCFS()


class System:
    """A complete simulated machine, built from one SystemConfig."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.engine = Engine()
        if config.channels > 1:
            modules = [_build_module(config) for _ in range(config.channels)]
            self.module = MultiChannelModule(modules)

            def make_channel_controller(channel_module):
                if config.mechanism is Mechanism.IMPULSE:
                    return ImpulseController(
                        self.engine,
                        channel_module,
                        scheduler=_build_scheduler(config),
                        refresh_enabled=config.refresh,
                    )
                return MemoryController(
                    self.engine,
                    channel_module,
                    scheduler=_build_scheduler(config),
                    shuffle_latency=config.shuffle_latency,
                    refresh_enabled=config.refresh,
                )

            self.controller = MultiChannelController(
                self.engine,
                self.module,
                scheduler_factory=lambda: _build_scheduler(config),
                shuffle_latency=config.shuffle_latency,
                refresh_enabled=config.refresh,
                controller_factory=make_channel_controller,
            )
        elif config.mechanism is Mechanism.IMPULSE:
            self.module = _build_module(config)
            self.controller = ImpulseController(
                self.engine,
                self.module,
                scheduler=_build_scheduler(config),
                refresh_enabled=config.refresh,
            )
        else:
            self.module = _build_module(config)
            self.controller = MemoryController(
                self.engine,
                self.module,
                scheduler=_build_scheduler(config),
                shuffle_latency=config.shuffle_latency,
                refresh_enabled=config.refresh,
                open_row_policy=config.open_row_policy,
            )
        prefetcher = (
            StridePrefetcher(degree=config.prefetch_degree)
            if config.prefetch
            else None
        )
        self.hierarchy = CacheHierarchy(
            self.engine,
            self.controller,
            num_cores=config.cores,
            l1_size=config.l1_size,
            l1_assoc=config.l1_assoc,
            l1_latency=config.l1_latency,
            l2_size=config.l2_size,
            l2_assoc=config.l2_assoc,
            l2_latency=config.l2_latency,
            prefetcher=prefetcher,
        )
        self.allocator = PattAllocator(
            capacity_bytes=self.module.geometry.capacity_bytes,
            line_bytes=self.module.line_bytes,
            row_bytes=self.module.geometry.row_bytes,
        )
        self.page_table = self.allocator.page_table
        self.cores = [
            Core(
                self.engine,
                core_id,
                self.hierarchy,
                translate=self.page_table.translate,
                sync_interval=config.sync_interval,
                store_buffer=config.store_buffer,
                auto_pattern=(
                    AutoPatternUnit(line_bytes=self.module.line_bytes)
                    if config.auto_pattern and self.module.supports_patterns
                    else None
                ),
            )
            for core_id in range(config.cores)
        ]
        # An active observability session (repro.obs) adopts every
        # system built inside it: stats registered by component path,
        # tracer installed into the engine/hierarchy/controller(s).
        session = current_session()
        if session is not None:
            session.attach(self)

    # ------------------------------------------------------------------
    # Allocation and functional memory access
    # ------------------------------------------------------------------
    def pattmalloc(self, size: int, shuffle: bool = False, pattern: int = 0) -> int:
        """Allocate with GS attributes (Section 4.3's pattmalloc)."""
        return self.allocator.pattmalloc(size, shuffle=shuffle, pattern=pattern)

    def malloc(self, size: int) -> int:
        return self.allocator.malloc(size)

    def mem_write(self, address: int, data) -> None:
        """Functionally pre-load memory (honouring page shuffle flags).

        ``data`` is any bytes-like object, such as a uint8 view of an
        array; it is not copied whole.
        """
        data = memoryview(data)
        for start, size in split_span(address, len(data), self.page_table.page_bytes):
            _, shuffled, _ = self.page_table.translate(start)
            offset = start - address
            self.module.write_bytes(start, data[offset : offset + size], shuffled)

    def mem_read(self, address: int, length: int) -> bytearray:
        """Functionally read memory (through any dirty cached lines).

        Drains dirty cache lines first so the result reflects the
        latest architectural state. Each page is read into its place in
        one buffer, which is returned without a further copy.
        """
        self.hierarchy.drain_dirty()
        out = bytearray(length)
        for start, size in split_span(address, length, self.page_table.page_bytes):
            _, shuffled, _ = self.page_table.translate(start)
            offset = start - address
            out[offset : offset + size] = self.module.read_bytes(start, size,
                                                                 shuffled)
        return out

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        programs: list[Iterable],
        stop_on_core: int | None = None,
        max_events: int | None = 200_000_000,
    ) -> RunResult:
        """Run one op stream per core; returns the combined result.

        ``stop_on_core``: when that core finishes, all other cores are
        cancelled (the paper's HTAP setup runs the transaction thread
        "until the analytics thread completes").
        """
        if len(programs) > len(self.cores):
            raise SimulationError(
                f"{len(programs)} programs for {len(self.cores)} cores",
                cycle=self.engine.now,
            )

        def on_done(core: Core) -> None:
            if stop_on_core is not None and core.core_id == stop_on_core:
                for other in self.cores:
                    if other.core_id != core.core_id:
                        other.cancel()

        for core, program in zip(self.cores, programs):
            core.run(program, on_done=on_done)
        self.engine.run(max_events=max_events)
        return self.collect_result()

    def collect_result(self) -> RunResult:
        """Snapshot stats + energy after a run."""
        cycles = max(
            [core.finish_time or self.engine.now for core in self.cores],
            default=self.engine.now,
        )
        instructions = sum(c.stats.get("instructions") for c in self.cores)
        loads = sum(c.stats.get("loads") for c in self.cores)
        stores = sum(c.stats.get("stores") for c in self.cores)
        l1_hits = sum(l1.stats.get("hits") for l1 in self.hierarchy.l1s)
        l1_misses = sum(l1.stats.get("misses") for l1 in self.hierarchy.l1s)
        mc = self.controller.stats
        energy = system_energy(
            runtime_cycles=cycles,
            instructions=instructions,
            l1_accesses=l1_hits + l1_misses,
            l2_accesses=self.hierarchy.l2.stats.get("hits")
            + self.hierarchy.l2.stats.get("misses"),
            command_counts=mc.as_dict(),
            cores=self.config.cores,
            cpu_ghz=self.config.cpu_ghz,
        )
        extra = {
            "engine_events": float(self.engine.events_processed),
            "mean_memory_queue_delay": self.controller.queue_delay.mean,
            "auto_gathers": float(
                sum(c.stats.get("auto_gathers") for c in self.cores)
            ),
            "stores_overlapped": float(
                sum(c.stats.get("stores_overlapped") for c in self.cores)
            ),
            "mshr_merges": float(self.hierarchy.stats.get("mshr_merges")),
            "snoop_flushes": float(self.hierarchy.stats.get("snoop_flushes")),
        }
        return RunResult(
            mechanism=self.config.mechanism.value,
            cycles=cycles,
            instructions=instructions,
            loads=loads,
            stores=stores,
            l1_hits=l1_hits,
            l1_misses=l1_misses,
            l2_hits=self.hierarchy.l2.stats.get("hits"),
            l2_misses=self.hierarchy.l2.stats.get("misses"),
            dram_reads=mc.get("cmd_RD"),
            dram_writes=mc.get("cmd_WR"),
            row_hits=mc.get("row_hits"),
            row_misses=mc.get("row_misses"),
            prefetches=self.hierarchy.stats.get("prefetches_issued"),
            coherence_invalidations=self.hierarchy.stats.get(
                "coherence_invalidations"
            ),
            writebacks=self.hierarchy.stats.get("writebacks"),
            energy=energy,
            extra=extra,
        )
