"""Run results: the uniform record every experiment produces."""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.energy.model import EnergyBreakdown


@dataclass
class RunResult:
    """Timing, traffic, and energy for one simulated run."""

    mechanism: str
    cycles: int
    instructions: int
    loads: int
    stores: int
    l1_hits: int
    l1_misses: int
    l2_hits: int
    l2_misses: int
    dram_reads: int
    dram_writes: int
    row_hits: int
    row_misses: int
    prefetches: int
    coherence_invalidations: int
    writebacks: int
    energy: EnergyBreakdown
    extra: dict[str, float] = field(default_factory=dict)
    #: Host wall-time attribution (setup / generate / run / verify
    #: seconds) recorded by the experiment drivers. Deliberately NOT
    #: part of :meth:`to_dict` (fast-mode goldens compare dicts
    #: exactly) and excluded from equality (two seeded runs are the
    #: same result even though their wall times differ).
    stages: dict[str, float] = field(default_factory=dict, compare=False)

    @property
    def l1_hit_rate(self) -> float:
        total = self.l1_hits + self.l1_misses
        return self.l1_hits / total if total else 0.0

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0

    @property
    def memory_accesses(self) -> int:
        """Cache lines transferred on the memory channel."""
        return self.dram_reads + self.dram_writes

    @property
    def bandwidth_bytes(self) -> int:
        """Off-chip traffic in bytes (64 B per transfer)."""
        return self.memory_accesses * 64

    def to_dict(self) -> dict:
        """JSON-ready flat summary of this run."""
        return {
            "mechanism": self.mechanism,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "loads": self.loads,
            "stores": self.stores,
            "l1_hit_rate": self.l1_hit_rate,
            "l2_hits": self.l2_hits,
            "l2_misses": self.l2_misses,
            "dram_reads": self.dram_reads,
            "dram_writes": self.dram_writes,
            "row_hit_rate": self.row_hit_rate,
            "prefetches": self.prefetches,
            "coherence_invalidations": self.coherence_invalidations,
            "writebacks": self.writebacks,
            "energy_mj": self.energy.total_mj,
            "extra": dict(self.extra),
        }

    def render(self) -> str:
        return (
            f"[{self.mechanism}] cycles={self.cycles:,} "
            f"instr={self.instructions:,} "
            f"L1 {self.l1_hit_rate:.1%} hit, "
            f"mem accesses={self.memory_accesses:,} "
            f"(row-hit {self.row_hit_rate:.1%}), "
            f"energy={self.energy.total_mj:.3f} mJ"
        )


#: Canonical stage names, in pipeline order.
STAGE_NAMES = ("setup", "generate", "run", "verify")


class StageTimer:
    """Wall-time attribution for one driver invocation.

    Drivers wrap each pipeline section in :meth:`stage` and call
    :meth:`attach` on the finished :class:`RunResult`; the bench
    surfaces the totals as the payload's ``stages`` block. Repeated
    sections (a verify split around a run, say) accumulate.
    """

    def __init__(self) -> None:
        self.stages: dict[str, float] = {}

    @contextmanager
    def stage(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.stages[name] = self.stages.get(name, 0.0) + elapsed

    def attach(self, result: RunResult) -> RunResult:
        for name, seconds in self.stages.items():
            result.stages[name] = result.stages.get(name, 0.0) + seconds
        return result
