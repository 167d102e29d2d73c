"""Fast-path equivalence: the timing-free substrate vs the event machine.

The fast path (:mod:`repro.vec`) claims *bit-identical functional
results* on its supported configurations — not approximately equal, not
statistically close. This module makes that claim falsifiable in four
stages, mirroring how the differential oracle treats the timed machine:

1. **Random traces** (:func:`run_trace_pair`) — the differential
   generator's traces run on :class:`repro.sim.System` and replay
   through :class:`repro.vec.hier.DirtyReplay`; the functional result
   fields and the full controller / L1 / L2 / hierarchy / DBI
   statistic dictionaries must be equal. Loaded bytes and memory
   images are the differential stage's job: ``DirtyReplay`` moves no
   bytes.
2. **Pattern sweep** (:func:`run_sweep_equivalence`) — the fig7-style
   strided-scan sweep in both :func:`repro.harness.patternscan` modes;
   result fields, every per-component statistic, gathered-value
   digests, and per-bank row-locality profiles must be equal.
3. **Ablation grid** (:func:`run_grid_equivalence`) — an abl-3-shaped
   transactions + analytics grid across layouts and table sizes, run
   through the real drivers in both modes; functional counts, *every
   per-component statistic* (controller / L1 / L2 / hierarchy / DBI),
   and verified answers must be equal. A divergence names the first
   differing key path (``component.stat: event=... fast=...``), not a
   bare digest mismatch.
4. **Figure grids** (:func:`run_figure_grid_equivalence`) — every
   fig9/fig10/fig11/fig13 RunSpec from :func:`figure_specs` at a small
   scale, each fast spec paired with its event-mode twin through
   :func:`execute_spec`, compared with the same full stat-dict battery.

:func:`run_fastpath` bundles the four for the ``repro-check`` CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.check.differential import differential_configs
from repro.check.strategies import TraceSpec, random_trace
from repro.cpu.isa import Compute, Load, Store
from repro.db.engine import run_analytics, run_transactions
from repro.db.workload import AnalyticsQuery, TransactionMix
from repro.errors import ReproError
from repro.harness.common import Scale
from repro.perf.specs import make_layout
from repro.sim.config import SystemConfig
from repro.sim.system import System
from repro.vec.hier import DirtyReplay, fast_supported
from repro.vec.shim import component_snapshot
from repro.vm.pattmalloc import PattAllocator

#: RunResult fields the fast path must reproduce exactly. Timing
#: outputs (cycles, energy, queue delays, engine events) are excluded
#: by design: the fast path defines them as zero.
FUNCTIONAL_FIELDS = (
    "instructions",
    "loads",
    "stores",
    "l1_hits",
    "l1_misses",
    "l2_hits",
    "l2_misses",
    "dram_reads",
    "dram_writes",
    "row_hits",
    "row_misses",
    "prefetches",
    "coherence_invalidations",
    "writebacks",
)


@dataclass
class FastPathDivergence:
    """One observed event-vs-fast difference."""

    where: str  # which comparison (trace/sweep/grid + point label)
    what: str  # which observable differed, with both values

    def render(self) -> str:
        return f"{self.where}: {self.what}"


@dataclass
class FastPathReport:
    """Aggregated outcome of the fast-path equivalence battery."""

    runs: int = 0
    values_compared: int = 0
    fields_compared: int = 0
    divergences: list[FastPathDivergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def merge(self, other: "FastPathReport") -> None:
        self.runs += other.runs
        self.values_compared += other.values_compared
        self.fields_compared += other.fields_compared
        self.divergences.extend(other.divergences)

    def render(self) -> str:
        status = "OK" if self.ok else f"{len(self.divergences)} DIVERGENCES"
        lines = [
            f"fastpath: {self.runs} event/fast run pairs, "
            f"{self.values_compared} values and {self.fields_compared} "
            f"stat fields compared, {status}"
        ]
        lines.extend(f"  {d.render()}" for d in self.divergences[:20])
        return "\n".join(lines)


def _compare_result_fields(
    where: str, event_result, fast_result, report: FastPathReport
) -> None:
    for name in FUNCTIONAL_FIELDS:
        report.fields_compared += 1
        a, b = getattr(event_result, name), getattr(fast_result, name)
        if a != b:
            report.divergences.append(
                FastPathDivergence(where, f"{name}: event={a} fast={b}")
            )


def _compare_stat_dicts(
    where: str, component: str, event_stats: dict, fast_stats: dict,
    report: FastPathReport,
) -> None:
    for key in sorted(set(event_stats) | set(fast_stats)):
        report.fields_compared += 1
        a, b = event_stats.get(key, 0), fast_stats.get(key, 0)
        if a != b:
            report.divergences.append(
                FastPathDivergence(
                    where, f"{component}.{key}: event={a} fast={b}"
                )
            )


#: Component stat dicts captured by the drivers (see
#: :func:`repro.vec.shim.component_snapshot`).
STAT_COMPONENTS = ("controller", "l1", "l2", "hierarchy", "dbi")

_MISSING = object()


def _compare_records(where: str, event_record, fast_record,
                     report: FastPathReport) -> None:
    """Full battery over two driver records: result fields, every
    per-component statistic, and the functional outputs."""
    _compare_result_fields(where, event_record.result, fast_record.result,
                           report)
    event_stats = getattr(event_record, "component_stats", None)
    fast_stats = getattr(fast_record, "component_stats", None)
    if event_stats is None or fast_stats is None:
        report.divergences.append(
            FastPathDivergence(
                where,
                "component_stats: "
                f"event={'present' if event_stats else 'missing'} "
                f"fast={'present' if fast_stats else 'missing'}",
            )
        )
    else:
        for component in STAT_COMPONENTS:
            _compare_stat_dicts(
                where, component,
                event_stats.get(component, {}),
                fast_stats.get(component, {}),
                report,
            )
    for name in ("verified", "answer"):
        a = getattr(event_record, name, _MISSING)
        b = getattr(fast_record, name, _MISSING)
        if a is _MISSING and b is _MISSING:
            continue
        report.values_compared += 1
        if a != b:
            report.divergences.append(
                FastPathDivergence(where, f"{name}: event={a} fast={b}")
            )


def fast_configs() -> list[SystemConfig]:
    """The fast-compatible subset of the differential config sweep."""
    return [c for c in differential_configs() if fast_supported(c)]


# ----------------------------------------------------------------------
# 1. Random traces: System vs DirtyReplay, full-stat comparison
# ----------------------------------------------------------------------
def run_trace_pair(config: SystemConfig, trace: TraceSpec) -> FastPathReport:
    """Run one trace on both substrates and diff every statistic."""
    report = FastPathReport(runs=1)
    where = f"trace seed={trace.seed}"
    geometry = config.geometry
    line_bytes = geometry.line_bytes
    ops = trace.ops_for_core(0)

    def allocate(pattmalloc) -> list[int]:
        return [
            pattmalloc(region.lines * line_bytes, shuffle=region.shuffled,
                       pattern=region.alt_pattern)
            for region in trace.regions
        ]

    def event_side():
        system = System(config)
        bases = allocate(system.pattmalloc)

        def program():
            for op in ops:
                if op.kind == "compute":
                    yield Compute(op.cycles)
                    continue
                address = bases[op.region] + op.line * line_bytes + op.offset
                if op.kind == "load":
                    yield Load(address, size=op.size, pattern=op.pattern)
                else:
                    yield Store(address, op.payload, pattern=op.pattern)

        return system.run([program()]), component_snapshot(system)

    def fast_side():
        # The same bump allocator System uses, so addresses match.
        bases = allocate(PattAllocator(
            capacity_bytes=geometry.capacity_bytes,
            line_bytes=line_bytes,
            row_bytes=geometry.row_bytes,
        ).pattmalloc)
        accesses = [op for op in ops if op.kind != "compute"]
        regions = [trace.regions[op.region] for op in accesses]
        replay = DirtyReplay(config)
        replay.run(
            [bases[op.region] + op.line * line_bytes for op in accesses],
            [op.pattern for op in accesses],
            [region.alt_pattern for region in regions],
            [op.kind == "store" for op in accesses],
            [region.shuffled for region in regions],
        )
        stores = sum(op.kind == "store" for op in accesses)
        computed = sum(op.cycles for op in ops if op.kind == "compute")
        result = replay.collect_result(
            instructions=computed + len(accesses),
            loads=len(accesses) - stores,
            stores=stores,
        )
        return result, replay.component_stats()

    try:
        event_result, event_stats = event_side()
        fast_result, fast_stats = fast_side()
    except ReproError as error:
        report.divergences.append(
            FastPathDivergence(
                where, f"raised {type(error).__name__}: {error}"
            )
        )
        return report

    _compare_result_fields(where, event_result, fast_result, report)
    for component in STAT_COMPONENTS:
        _compare_stat_dicts(
            where, component, event_stats[component], fast_stats[component],
            report,
        )
    return report


def run_trace_equivalence(
    traces_per_config: int = 8,
    seed: int = 4811,
    max_ops: int = 48,
    configs: list[SystemConfig] | None = None,
) -> FastPathReport:
    """Random-trace stage over every fast-compatible config."""
    configs = fast_configs() if configs is None else configs
    report = FastPathReport()
    for config_index, config in enumerate(configs):
        for trace_index in range(traces_per_config):
            trace_seed = seed + 10_000 * config_index + trace_index
            trace = random_trace(trace_seed, config, max_ops=max_ops)
            report.merge(run_trace_pair(config, trace))
    return report


# ----------------------------------------------------------------------
# 2. Pattern sweep: run_patternscan in both modes
# ----------------------------------------------------------------------
def run_sweep_equivalence(lines: int = 256) -> FastPathReport:
    """The fig7-style strided sweep: full stats, values digest, row profile."""
    from repro.harness.patternscan import SWEEP_STRIDES, VARIANTS, run_patternscan

    report = FastPathReport()
    for variant in VARIANTS:
        for stride in SWEEP_STRIDES:
            report.runs += 1
            where = f"sweep {variant} stride={stride}"
            event = run_patternscan(variant, stride, lines=lines, mode="event")
            fast = run_patternscan(variant, stride, lines=lines, mode="fast")
            _compare_records(where, event, fast, report)
            for name in ("values_digest", "row_profile"):
                report.values_compared += 1
                a, b = getattr(event, name), getattr(fast, name)
                if a != b:
                    report.divergences.append(
                        FastPathDivergence(where, f"{name}: event={a} fast={b}")
                    )
    return report


# ----------------------------------------------------------------------
# 3. Ablation grid: the real DB drivers in both modes
# ----------------------------------------------------------------------
def run_grid_equivalence(
    sizes: tuple[int, ...] = (1024, 4096),
    transactions: int = 100,
) -> FastPathReport:
    """An abl-3-shaped layouts x sizes grid through the DB drivers."""
    report = FastPathReport()
    mix = TransactionMix(4, 2, 2)
    query = AnalyticsQuery((0,))
    for layout_name in ("Row Store", "Column Store", "GS-DRAM"):
        for tuples in sizes:
            for workload in ("txn", "anl"):
                report.runs += 1
                where = f"grid {layout_name} {workload} tuples={tuples}"
                if workload == "txn":
                    event = run_transactions(
                        make_layout(layout_name), mix,
                        num_tuples=tuples, count=transactions,
                    )
                    fast = run_transactions(
                        make_layout(layout_name), mix,
                        num_tuples=tuples, count=transactions, mode="fast",
                    )
                else:
                    event = run_analytics(
                        make_layout(layout_name), query, num_tuples=tuples
                    )
                    fast = run_analytics(
                        make_layout(layout_name), query,
                        num_tuples=tuples, mode="fast",
                    )
                _compare_records(where, event, fast, report)
    return report


# ----------------------------------------------------------------------
# 4. Figure grids: every fig9/10/11/13 spec, fast vs event twin
# ----------------------------------------------------------------------

#: Small scale for the figure-grid battery: big enough for every layout
#: path (GS gathers need multiples of 8; the HTAP L2 override must fit
#: real traffic), small enough that event-mode runs stay in seconds.
CHECK_SCALE = Scale(
    name="check",
    db_tuples=512,
    db_transactions=50,
    htap_tuples=512,
    htap_l2_size=16 * 1024,
    gemm_sizes=(16,),
)


def run_figure_grid_equivalence(
    scale: Scale | None = None,
    figures: tuple[str, ...] | None = None,
) -> FastPathReport:
    """Every figure RunSpec at a small scale, fast vs its event twin.

    The fast specs come from :func:`figure_specs(..., mode="fast")` —
    the exact specs the harnesses, bench suite, and serve jobs submit —
    and each is compared against ``dataclasses.replace(spec,
    mode="event")`` run through the same :func:`execute_spec` dispatch.
    """
    import dataclasses

    from repro.harness.specsets import FAST_FIGURES, figure_specs, spec_label
    from repro.perf.specs import execute_spec

    scale = scale or CHECK_SCALE
    report = FastPathReport()
    for figure in figures or FAST_FIGURES:
        for fast_spec in figure_specs(figure, scale, mode="fast"):
            report.runs += 1
            where = f"{figure} {spec_label(fast_spec)}"
            event_spec = dataclasses.replace(fast_spec, mode="event")
            event = execute_spec(event_spec)
            fast = execute_spec(fast_spec)
            _compare_records(where, event, fast, report)
    return report


def run_fastpath(
    traces_per_config: int = 8,
    seed: int = 4811,
    max_ops: int = 48,
    sweep_lines: int = 256,
) -> FastPathReport:
    """The full fast-path battery (traces + sweep + grids)."""
    report = run_trace_equivalence(
        traces_per_config=traces_per_config, seed=seed, max_ops=max_ops
    )
    report.merge(run_sweep_equivalence(lines=sweep_lines))
    report.merge(run_grid_equivalence())
    report.merge(run_figure_grid_equivalence())
    return report
