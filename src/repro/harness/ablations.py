"""Design-choice ablations (DESIGN.md: abl-1 .. abl-4).

- **abl-1 shuffle**: with shuffling disabled, a stride-8 gather's
  values all map to one chip — chip conflicts force ``chips`` READs per
  gather (Section 3.2's motivation). Measured both analytically and as
  end-to-end analytics time with a shuffle-less GS config (which must
  fall back to row-store-style access).
- **abl-2 scheduler**: FR-FCFS vs FCFS under the HTAP workload. The Row
  Store starvation effect of Figure 11 is a property of FR-FCFS.
- **abl-3 scaling**: the headline Figure 9/10 ratios across table
  sizes, demonstrating shape stability of the scaled-down reproduction.
- **abl-4 Impulse**: the paper's Section 7 comparison, quantified — an
  Impulse-style controller gathers at the MC and matches GS-DRAM's
  cache utilisation, but still reads every underlying line from DRAM.
- **abl-5 channels**: the Section 4.2 multi-channel extension —
  multiprogrammed scans scale with channel count; GS-DRAM's reduced
  traffic makes one channel go as far as the Row Store's two.
- **abl-6 pattern sweep**: end-to-end benefit per supported pattern
  (stride 2 / 4 / 8): gathered scans versus the equivalent scalar
  strided scans over identical data.
"""

from __future__ import annotations

from repro.core.pattern import chip_conflicts
from repro.db.engine import run_analytics
from repro.db.layouts import GSDRAMStore, RowStore
from repro.db.workload import AnalyticsQuery, TransactionMix
from repro.harness.common import Scale, current_scale
from repro.harness.patternscan import SWEEP_STRIDES, run_patternscan
from repro.cpu.isa import Load
from repro.perf import RunSpec, run_specs
from repro.sim.config import Mechanism, SchedulerKind, plain_dram_config, table1_config
from repro.sim.system import System
from repro.utils.records import FigureResult


def run_shuffle_ablation(chips: int = 8) -> FigureResult:
    """abl-1: READs per gather vs stride, with and without shuffling."""
    figure = FigureResult(
        figure="abl-1",
        description=f"READ commands per {chips}-value gather (chip conflicts)",
        x_label="stride",
    )
    full_mask = chips - 1
    for stride in (2, 4, 8, 16, 32):
        figure.add_point("with shuffle", stride,
                         chip_conflicts(chips, stride, full_mask))
        figure.add_point("no shuffle", stride,
                         chip_conflicts(chips, stride, 0))
        figure.add_point("1-stage shuffle", stride,
                         chip_conflicts(chips, stride, 0b001))
    figure.notes.append(
        "full shuffling keeps every power-of-2 stride at 1 READ; without "
        "it, strides >= chips serialise onto one chip"
    )
    return figure


def run_scheduler_ablation(scale: Scale | None = None,
                           jobs: int | None = None) -> FigureResult:
    """abl-2: HTAP transaction throughput under FR-FCFS vs FCFS."""
    scale = scale or current_scale()
    figure = FigureResult(
        figure="abl-2",
        description="HTAP txn throughput (M/s) by memory scheduler, with prefetch",
        x_label="scheduler",
    )
    points = [
        (kind, layout)
        for kind in (SchedulerKind.FR_FCFS, SchedulerKind.FCFS)
        for layout in ("Row Store", "GS-DRAM")
    ]
    specs = [
        RunSpec(
            kind="htap",
            layout=layout,
            params={"num_tuples": scale.htap_tuples, "prefetch": True},
            config_overrides={"l2_size": scale.htap_l2_size,
                              "scheduler": kind},
        )
        for kind, layout in points
    ]
    for (kind, layout), run in zip(points, run_specs(specs, jobs=jobs)):
        figure.add_point(layout, kind.value, run.txn_throughput_mps)
    figure.notes.append(
        "Row Store's starvation of the transaction thread is an FR-FCFS "
        "effect: FCFS narrows the gap"
    )
    return figure


def run_scaling_ablation(
    sizes: tuple[int, ...] = (4096, 16384, 65536),
    transactions: int = 400,
    jobs: int | None = None,
    mode: str = "event",
) -> FigureResult:
    """abl-3: headline ratios across table sizes (shape stability).

    ``mode="fast"`` runs the grid on the vectorized engine (analytics
    without the prefetcher) and forms the ratios from DRAM accesses —
    the figure is a ratio plot, so the traffic proxy preserves its
    shape-stability reading.
    """
    figure = FigureResult(
        figure="abl-3",
        description="Headline ratios vs table size (shape stability)",
        x_label="tuples",
    )
    mix = TransactionMix(4, 2, 2)
    query = AnalyticsQuery((0,))
    layouts = ("Row Store", "Column Store", "GS-DRAM")
    points = [
        (workload, tuples, layout)
        for tuples in sizes
        for workload in ("txn", "anl")
        for layout in layouts
    ]
    specs = [
        RunSpec(kind="transactions", layout=layout,
                params={"mix": mix, "num_tuples": tuples,
                        "count": transactions},
                mode=mode)
        if workload == "txn"
        else RunSpec(kind="analytics", layout=layout,
                     params={"query": query, "num_tuples": tuples,
                             "prefetch": mode == "event"},
                     mode=mode)
        for workload, tuples, layout in points
    ]
    cycles = {
        point: run.result.cycles or run.result.memory_accesses
        for point, run in zip(points, run_specs(specs, jobs=jobs))
    }
    for tuples in sizes:
        figure.add_point(
            "txn: Column/GS", tuples,
            cycles[("txn", tuples, "Column Store")]
            / cycles[("txn", tuples, "GS-DRAM")],
        )
        figure.add_point(
            "anl: Row/GS", tuples,
            cycles[("anl", tuples, "Row Store")]
            / cycles[("anl", tuples, "GS-DRAM")],
        )
    figure.notes.append(
        "both headline ratios should stay in the same band across sizes"
    )
    return figure


def run_impulse_ablation(num_tuples: int = 8192) -> FigureResult:
    """abl-4: GS-DRAM vs an Impulse-style MC-side gather vs Row Store.

    All three run the same single-column analytics scan; the Impulse
    system uses the GS store's access pattern (its controller gathers),
    so cache utilisation matches GS-DRAM while DRAM traffic does not.
    """
    figure = FigureResult(
        figure="abl-4",
        description=(
            f"Analytics scan, {num_tuples} tuples: GS-DRAM vs Impulse "
            "[Carter+ HPCA'99] vs Row Store"
        ),
        x_label="metric",
    )
    query = AnalyticsQuery((0,))

    row = run_analytics(RowStore(), query, num_tuples=num_tuples)
    gs = run_analytics(GSDRAMStore(), query, num_tuples=num_tuples)
    impulse = run_analytics(
        GSDRAMStore(), query, num_tuples=num_tuples,
        config_overrides={"mechanism": Mechanism.IMPULSE},
    )
    if not impulse.verified:
        raise AssertionError("Impulse analytics answer mismatch")

    for name, result in (
        ("Row Store", row.result),
        ("Impulse", impulse.result),
        ("GS-DRAM", gs.result),
    ):
        figure.add_point(name, "cycles", result.cycles)
        figure.add_point(name, "DRAM reads", result.dram_reads)
    figure.notes.append(
        "Impulse matches GS-DRAM's cache-line utilisation but, on "
        "commodity DRAM, cannot avoid reading every underlying line"
    )
    return figure


def run_channel_ablation(rows_per_stream: int = 32) -> FigureResult:
    """abl-5: multiprogrammed bandwidth scaling with channel count.

    Two cores stream disjoint regions (with prefetching). Cycles are
    reported for 1/2/4 channels on both commodity DRAM (record-layout
    scans) and GS-DRAM (gathered scans of the same data volume).
    """
    figure = FigureResult(
        figure="abl-5",
        description=(
            f"Two disjoint streaming cores, {rows_per_stream} DRAM rows "
            "each: cycles vs channel count"
        ),
        x_label="channels",
    )

    def plain_run(channels: int) -> int:
        system = System(plain_dram_config(channels=channels, cores=2,
                                          prefetch=True))
        bases = []
        for index in range(2):
            bases.append(system.malloc(rows_per_stream * 8192))
            system.malloc(8192)  # stagger streams across channels
        for base in bases:
            system.mem_write(base, bytes(rows_per_stream * 8192))

        def scan(base: int):
            for line in range(rows_per_stream * 128):
                yield Load(base + line * 64, pc=0x90)

        return system.run([scan(bases[0]), scan(bases[1])]).cycles

    def gs_run(channels: int) -> int:
        system = System(table1_config(channels=channels, cores=2,
                                      prefetch=True))
        bases = []
        for index in range(2):
            bases.append(
                system.pattmalloc(rows_per_stream * 8192, shuffle=True, pattern=7)
            )
            system.pattmalloc(8192, shuffle=True, pattern=7)  # stagger
        for base in bases:
            system.mem_write(base, bytes(rows_per_stream * 8192))

        def scan(base: int):
            # Field-0 gathers over the same data volume: 1/8 the lines.
            from repro.cpu.isa import pattload

            for group in range(0, rows_per_stream * 128, 8):
                for position in range(8):
                    yield pattload(base + group * 64 + position * 8,
                                   pattern=7, pc=0x91)

        return system.run([scan(bases[0]), scan(bases[1])]).cycles

    for channels in (1, 2, 4):
        figure.add_point("Row Store scans", channels, plain_run(channels))
        figure.add_point("GS-DRAM scans", channels, gs_run(channels))
    figure.notes.append(
        "row-granularity interleaving gives no intra-stream parallelism "
        "(faithful); concurrent streams scale until they run out of "
        "channels"
    )
    return figure


def run_pattern_sweep(lines: int = 2048) -> FigureResult:
    """abl-6: gathered vs scalar scans for every supported stride.

    The data is ``lines`` cache lines of 8-byte values. For stride
    ``2^k`` the scan touches every ``2^k``-th value; the scalar version
    loads through pattern 0 (one line per ``8/2^k`` useful values), the
    gathered version uses pattern ``2^k - 1``. Each point is one event
    run of :func:`~repro.harness.patternscan.run_patternscan`.
    """
    figure = FigureResult(
        figure="abl-6",
        description=f"Strided scans over {lines} lines: scalar vs gathered",
        x_label="stride",
    )
    for stride in SWEEP_STRIDES:
        scalar, gathered = (
            run_patternscan(variant, stride, lines=lines)
            for variant in ("scalar", "gathered")
        )
        for run in (scalar, gathered):
            if not run.verified:
                raise AssertionError(f"{run.variant} stride-{stride} scan wrong")
        figure.add_point("scalar cycles", stride, scalar.result.cycles)
        figure.add_point("gathered cycles", stride, gathered.result.cycles)
        figure.add_point("scalar DRAM reads", stride, scalar.result.dram_reads)
        figure.add_point("gathered DRAM reads", stride,
                         gathered.result.dram_reads)
    figure.notes.append(
        "traffic reduction equals the stride (a gathered line replaces "
        "`stride` partially-used lines); cycle gains follow"
    )
    return figure
