"""Differential execution: the timed machine vs the flat oracle.

:func:`run_trace` materialises one :class:`~repro.check.strategies.TraceSpec`
against a full :class:`repro.sim.System` (cores, caches, pattern-overlap
coherence, memory controller, DRAM timing) and against the
:class:`~repro.check.oracle.MemoryOracle` (flat memory, zero machinery),
then diffs three observables:

1. **per-access gathered values** — every load's bytes, in program
   order per core (the oracle is sequential; regions are single-owner,
   so per-core program order is the architectural order);
2. **final memory images** — every region's bytes after the run, with
   dirty cache lines drained (this exercises writeback paths and the
   Section 4.1 overlap invalidations: a pattstore must be visible to a
   later pattern-0 read and vice versa);
3. **clean completion** — any :class:`repro.errors.ReproError` escaping
   the timed machine while the oracle executed the same trace cleanly
   is itself a divergence.

Each mismatch is wrapped in a :class:`repro.errors.DivergenceError`
carrying structured context (cycle, core, address, pattern), so a
failing run reports *where* the machines diverged.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.check.oracle import MemoryOracle
from repro.check.strategies import TraceSpec, random_trace
from repro.cpu.isa import Compute, Load, Store
from repro.dram.address import Geometry, MappingPolicy
from repro.errors import DivergenceError, ReproError
from repro.sim.config import SystemConfig, table1_config
from repro.sim.system import System


@dataclass
class Mismatch:
    """One observed divergence between the system and the oracle."""

    kind: str  # "load-value" | "memory-image" | "exception" | "shortfall"
    error: DivergenceError

    def render(self) -> str:
        return f"{self.kind}: {self.error}"


@dataclass
class DifferentialReport:
    """Aggregated outcome of one or more differential runs."""

    traces: int = 0
    accesses_compared: int = 0
    bytes_compared: int = 0
    mismatches: list[Mismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def merge(self, other: "DifferentialReport") -> None:
        self.traces += other.traces
        self.accesses_compared += other.accesses_compared
        self.bytes_compared += other.bytes_compared
        self.mismatches.extend(other.mismatches)

    def render(self) -> str:
        status = "OK" if self.ok else f"{len(self.mismatches)} MISMATCHES"
        lines = [
            f"differential: {self.traces} traces, "
            f"{self.accesses_compared} loads and {self.bytes_compared} "
            f"memory bytes compared, {status}"
        ]
        lines.extend(f"  {m.render()}" for m in self.mismatches[:20])
        return "\n".join(lines)


def _initial_bytes(seed: int, region_index: int, size: int) -> bytes:
    """Deterministic initial contents for one region."""
    return random.Random((seed << 8) ^ region_index).randbytes(size)


def run_trace(config: SystemConfig, trace: TraceSpec) -> DifferentialReport:
    """Drive ``config``'s machine and the oracle through one trace."""
    report = DifferentialReport(traces=1)
    system = System(config)
    oracle = MemoryOracle.from_config(config)
    line_bytes = system.module.line_bytes

    bases = []
    for index, region in enumerate(trace.regions):
        base = system.pattmalloc(
            region.lines * line_bytes,
            shuffle=region.shuffled,
            pattern=region.alt_pattern,
        )
        data = _initial_bytes(trace.seed, index, region.lines * line_bytes)
        system.mem_write(base, data)
        oracle.write(base, data)
        bases.append(base)

    # Oracle pass: sequential per core, program order. Regions are
    # single-owner, so this is the architectural order of each access.
    expected: list[list[bytes]] = [[] for _ in range(trace.cores)]
    for core in range(trace.cores):
        for op in trace.ops_for_core(core):
            if op.kind == "compute":
                continue
            region = trace.regions[op.region]
            address = bases[op.region] + op.line * line_bytes + op.offset
            if op.kind == "load":
                expected[core].append(
                    oracle.load(address, op.size, op.pattern, region.shuffled)
                )
            else:
                oracle.store(address, op.payload, op.pattern, region.shuffled)

    # Timed pass: one instruction stream per core, loads record their
    # value and completion cycle.
    observed: list[list[tuple[bytes, int, int, int]]] = [
        [] for _ in range(trace.cores)
    ]

    def materialise(core: int):
        engine = system.engine
        for op in trace.ops_for_core(core):
            if op.kind == "compute":
                yield Compute(op.cycles)
                continue
            address = bases[op.region] + op.line * line_bytes + op.offset
            if op.kind == "load":
                record = observed[core].append
                yield Load(
                    address,
                    size=op.size,
                    pattern=op.pattern,
                    on_value=lambda data, a=address, p=op.pattern: record(
                        (data, engine.now, a, p)
                    ),
                )
            else:
                yield Store(address, op.payload, pattern=op.pattern)

    try:
        system.run([materialise(core) for core in range(trace.cores)])
    except ReproError as error:
        report.mismatches.append(
            Mismatch(
                "exception",
                DivergenceError(
                    f"timed machine raised {type(error).__name__}: {error}",
                    cycle=system.engine.now,
                    seed=trace.seed,
                ),
            )
        )
        return report

    # 1. Per-access load values.
    for core in range(trace.cores):
        want, got = expected[core], observed[core]
        if len(got) != len(want):
            report.mismatches.append(
                Mismatch(
                    "shortfall",
                    DivergenceError(
                        f"core completed {len(got)} of {len(want)} loads",
                        core=core,
                        seed=trace.seed,
                    ),
                )
            )
            continue
        for index, (reference, (data, cycle, address, pattern)) in enumerate(
            zip(want, got)
        ):
            report.accesses_compared += 1
            if data != reference:
                report.mismatches.append(
                    Mismatch(
                        "load-value",
                        DivergenceError(
                            f"load #{index} returned {data.hex()} "
                            f"(oracle: {reference.hex()})",
                            cycle=cycle,
                            core=core,
                            address=address,
                            pattern=pattern,
                            seed=trace.seed,
                        ),
                    )
                )

    # 2. Final memory images (drains dirty cache lines first).
    for index, region in enumerate(trace.regions):
        size = region.lines * line_bytes
        machine = system.mem_read(bases[index], size)
        reference = oracle.read(bases[index], size)
        report.bytes_compared += size
        if machine != reference:
            first = next(
                offset
                for offset, (a, b) in enumerate(zip(machine, reference))
                if a != b
            )
            report.mismatches.append(
                Mismatch(
                    "memory-image",
                    DivergenceError(
                        f"region {index} differs "
                        f"(machine {machine[first]:#04x} vs oracle "
                        f"{reference[first]:#04x})",
                        address=bases[index] + first,
                        pattern=region.alt_pattern,
                        core=region.owner,
                        seed=trace.seed,
                    ),
                )
            )
    return report


def differential_configs() -> list[SystemConfig]:
    """The checker's standard sweep: ≥3 geometries × machine variants.

    Small caches force evictions, writebacks, and coherence traffic;
    the variants cover both schedulers, the prefetcher, the store
    buffer, closed-page mode, partial shuffle stages, two cores, the
    bank-interleaved mapping, and two channels.
    """
    geometries = {
        8: Geometry(chips=8, banks=2, rows_per_bank=32, columns_per_row=16),
        4: Geometry(chips=4, banks=2, rows_per_bank=32, columns_per_row=16),
        2: Geometry(chips=2, banks=2, rows_per_bank=64, columns_per_row=16),
    }
    small_caches = dict(l1_size=1024, l1_assoc=2, l2_size=4096, l2_assoc=4)
    configs = []
    for chips, geometry in geometries.items():
        stages = chips.bit_length() - 1
        base = table1_config(
            geometry=geometry,
            shuffle_stages=stages,
            pattern_bits=stages,
            **small_caches,
        )
        configs.append(base)
        configs.append(base.with_(prefetch=True))
        configs.append(base.with_(store_buffer=4, open_row_policy=False))
        configs.append(base.with_(cores=2))
    # Partial shuffle stages: the oracle models the reduced shuffle too.
    partial = table1_config(
        geometry=geometries[8],
        shuffle_stages=2,
        pattern_bits=2,
        **small_caches,
    )
    configs.append(partial)
    # The bulk byte-span path under the other address mapping and
    # through the channel router (mem_write loads, mem_read diffs).
    configs.append(configs[0].with_(mapping_policy=MappingPolicy.BANK_INTERLEAVED))
    configs.append(configs[0].with_(channels=2))
    return configs


def run_differential(
    traces_per_config: int = 20,
    seed: int = 2015,
    configs: list[SystemConfig] | None = None,
    max_ops: int = 48,
) -> DifferentialReport:
    """Run the standard differential sweep; returns the merged report."""
    configs = differential_configs() if configs is None else configs
    report = DifferentialReport()
    for config_index, config in enumerate(configs):
        for trace_index in range(traces_per_config):
            trace_seed = seed + 10_000 * config_index + trace_index
            trace = random_trace(trace_seed, config, max_ops=max_ops)
            report.merge(run_trace(config, trace))
    return report
