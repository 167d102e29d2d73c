"""Experiment harness: one driver per paper figure, plus ablations."""

from repro.harness.ablations import (
    run_channel_ablation,
    run_pattern_sweep,
    run_impulse_ablation,
    run_scaling_ablation,
    run_scheduler_ablation,
    run_shuffle_ablation,
)
from repro.harness.common import DEFAULT, FULL, MECHANISMS, QUICK, Scale, current_scale
from repro.harness.fig7_patterns import (
    PAPER_FIGURE7,
    computed_figure7,
    exact_columns_match,
    families_match,
    render_figure7,
)
from repro.harness.fig9_transactions import run_figure9
from repro.harness.fig10_analytics import run_figure10
from repro.harness.fig11_htap import run_figure11
from repro.harness.fig12_summary import run_figure12
from repro.harness.fig13_gemm import run_figure13
from repro.harness.fw_autopattern import run_autopattern_experiment
from repro.harness.pim import run_pim_ablation
from repro.harness.patternscan import (
    PatternScanRun,
    pattern_sweep_specs,
    run_patternscan,
)
from repro.harness.sec53_apps import run_graph_experiment, run_kvstore_experiment
from repro.harness.sweeps import (
    sweep_l2_size,
    sweep_prefetch_degree,
    sweep_shuffle_stages,
)

__all__ = [
    "DEFAULT",
    "FULL",
    "MECHANISMS",
    "PAPER_FIGURE7",
    "PatternScanRun",
    "QUICK",
    "Scale",
    "pattern_sweep_specs",
    "computed_figure7",
    "current_scale",
    "exact_columns_match",
    "families_match",
    "render_figure7",
    "run_figure9",
    "run_figure10",
    "run_figure11",
    "run_figure12",
    "run_figure13",
    "run_autopattern_experiment",
    "run_graph_experiment",
    "run_kvstore_experiment",
    "run_channel_ablation",
    "run_impulse_ablation",
    "run_pattern_sweep",
    "run_patternscan",
    "run_pim_ablation",
    "run_scaling_ablation",
    "run_scheduler_ablation",
    "run_shuffle_ablation",
    "sweep_l2_size",
    "sweep_prefetch_degree",
    "sweep_shuffle_stages",
]
