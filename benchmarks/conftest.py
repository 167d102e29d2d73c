"""Benchmark-suite plumbing.

Each benchmark regenerates one of the paper's figures and registers its
rendered table with :func:`report_figure`; a terminal-summary hook
prints every table after the pytest-benchmark timing table, so
``pytest benchmarks/ --benchmark-only | tee bench_output.txt`` captures
the reproduced figures alongside the timings. At the default scale the
tables are also written to ``benchmarks/results/`` for EXPERIMENTS.md.

Scale is selected with ``REPRO_SCALE`` (quick / default / full).
"""

from __future__ import annotations

import os
import pathlib

from repro.harness.common import DEFAULT, current_scale

# pytest-benchmark timings must measure the simulator, not the result
# cache: a cached rerun would report cache-hit latency as "the figure".
os.environ["REPRO_CACHE"] = "0"

_FIGURES: list[tuple[str, str]] = []
RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def report_figure(name: str, text: str) -> None:
    """Register a rendered figure for the end-of-run summary.

    The committed tables record the default scale (EXPERIMENTS.md), so
    only a default-scale run rewrites them; other scales only print.
    """
    _FIGURES.append((name, text))
    if current_scale() is DEFAULT:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def pytest_terminal_summary(terminalreporter):
    if not _FIGURES:
        return
    tr = terminalreporter
    tr.section("reproduced paper figures")
    for name, text in _FIGURES:
        tr.write_line("")
        tr.write_line(text)
    tr.write_line("")
