"""PIM ablation: GS-DRAM gather + CPU vs in-DRAM compute.

Not a paper figure — the paper stops at gathering — but the natural
next question its Section 7 analytics workload raises: once the field
column is cheap to reach, is it cheaper still to never move it?  Each
:mod:`repro.pim` workload (column sum, predicate filter) runs twice
over the same seeded table column: the ``gs`` variant gathers with
pattern-7 pattloads and folds on the CPU, the ``pim`` variant computes
inside the chips with MRA+SHIFT programs (docs/INDRAM.md).  Both are
oracle-verified; the figure reports the per-workload execution time
normalised to the GS side, plus energy ratios.

The honest headline (see docs/INDRAM.md): the filter wins outright —
only the one-bit match mask crosses the bus — while the bit-serial sum
trades a 10x traffic reduction for MRA latency and only pays off at
table sizes where the gather is bandwidth-bound.
"""

from __future__ import annotations

from repro.errors import WorkloadError
from repro.harness.common import Scale, current_scale
from repro.harness.specsets import figure_specs
from repro.perf import run_specs
from repro.pim.driver import VARIANT_MECHANISMS, WORKLOADS
from repro.utils.records import ComparisonSummary, FigureResult


def run_pim_ablation(
    scale: Scale | None = None,
    jobs: int | None = None,
) -> tuple[FigureResult, ComparisonSummary]:
    """Run both workloads on both mechanisms.

    Returns the usual (figure, summary) pair: one x per workload, one
    series per mechanism (execution time normalised to the GS
    gather side), and headline per-workload gain + traffic ratios.
    """
    scale = scale or current_scale()
    figure = FigureResult(
        figure="PIM",
        description="In-DRAM compute: execution time normalised to "
                    "GS gather",
        x_label="workload",
    )
    specs = figure_specs("pim", scale)
    runs = run_specs(specs, jobs=jobs)
    by_key = {}
    for run in runs:
        if not run.verified:
            raise WorkloadError(
                f"pim oracle mismatch: {run.workload}/{run.variant}"
            )
        by_key[(run.workload, run.variant)] = run

    summary = ComparisonSummary(figure="PIM")
    for workload in WORKLOADS:
        gs = by_key[(workload, "gs")]
        pim = by_key[(workload, "pim")]
        if gs.answer != pim.answer:
            raise WorkloadError(
                f"pim answer mismatch for {workload}: "
                f"gs={gs.answer} pim={pim.answer}"
            )
        figure.add_point(VARIANT_MECHANISMS["gs"], workload, 1.0)
        figure.add_point(
            VARIANT_MECHANISMS["pim"], workload,
            pim.cycles / gs.cycles,
        )
        summary.record(
            f"{workload}: PIM gain over GS gather",
            gs.cycles / pim.cycles,
        )
        summary.record(
            f"{workload}: PIM DRAM traffic reduction",
            gs.result.memory_accesses / max(pim.result.memory_accesses, 1),
        )
        summary.record(
            f"{workload}: PIM energy reduction",
            gs.result.energy.total_mj / pim.result.energy.total_mj,
        )
    figure.notes.append(
        "expected shape: the filter's mask readback beats the gather "
        "outright; the bit-serial sum only wins once the table is large "
        "enough that the gather's line traffic dominates its runtime"
    )
    return figure, summary
