"""Inference family: GS-DRAM vs baseline over three ML kernels.

Not a paper figure — the paper predates transformer serving — but the
same experiment shape as Section 7's applications: each
:mod:`repro.infer` workload (batched GEMV, embedding-bag lookup,
KV-cache attention gather) runs on the interleaved baseline machine and
the shuffled GS-DRAM machine, and the harness reports the per-workload
speedup and energy ratio.
"""

from __future__ import annotations

from repro.errors import WorkloadError
from repro.harness.common import Scale, current_scale
from repro.harness.specsets import figure_specs
from repro.perf import run_specs
from repro.utils.records import ComparisonSummary, FigureResult


def run_inference(
    scale: Scale | None = None,
    jobs: int | None = None,
) -> tuple[FigureResult, ComparisonSummary]:
    """Run all three inference workloads on both machines.

    Returns the usual (figure, summary) pair: one x per workload, one
    series per mechanism (execution time, normalised to the
    baseline), and headline per-workload speedup + energy ratios.
    """
    scale = scale or current_scale()
    figure = FigureResult(
        figure="Inference",
        description="ML inference: execution time normalised to "
                    "interleaved DRAM",
        x_label="workload",
    )
    specs = figure_specs("infer", scale)
    runs = run_specs(specs, jobs=jobs)
    by_key = {}
    for run in runs:
        if not run.verified:
            raise WorkloadError(
                f"inference oracle mismatch: {run.workload}/{run.variant}"
            )
        by_key[(run.workload, run.variant)] = run

    summary = ComparisonSummary(figure="Inference")
    for workload in ("gemv", "embed", "kvcache"):
        baseline = by_key[(workload, "baseline")]
        gs = by_key[(workload, "gs")]
        figure.add_point("Interleaved (DRAM)", workload, 1.0)
        figure.add_point(
            "Shuffled (GS-DRAM)", workload,
            gs.cycles / baseline.cycles,
        )
        summary.record(
            f"{workload}: GS-DRAM speedup over interleaved",
            baseline.cycles / gs.cycles,
        )
        summary.record(
            f"{workload}: GS-DRAM energy reduction",
            baseline.result.energy.total_mj / gs.result.energy.total_mj,
        )
    figure.notes.append(
        "expected shape: GS-DRAM at or below 1.0 for every workload; "
        "embedding lookups gain most (gathers touch 8x fewer lines)"
    )
    return figure, summary
