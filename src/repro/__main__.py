"""Command-line entry point: ``python -m repro <command>``.

Commands:

- ``figures [figure] [--scale quick|default|full|paper] [--mode
  event|fast] [--jobs N]`` — run every paper-figure driver (or just
  one) and print the reproduced tables (no pytest needed). Finished
  figures are memoised in the result cache, so a rerun at the same
  scale and code version is nearly instant; set ``REPRO_CACHE=0`` to
  force fresh simulations. The ``paper`` scale is fast-path only:
  pick one figure and pass ``--mode fast``.
- ``bench [--scale ...] [--jobs N] [--profile]`` — time the tier-1
  workloads, write a ``BENCH_<date>.json`` baseline, and fail on
  wall-clock regression against the previous baseline (see
  docs/TESTING.md). ``--profile`` additionally cProfiles each case.
- ``quickstart`` — the substrate walk-through (same as
  examples/quickstart.py).
- ``report`` — regenerate EXPERIMENTS.md from benchmarks/results/.
- ``check`` — run the correctness battery (invariant checkers + the
  differential oracle sweep); exits non-zero on any violation. Also
  installed as the ``repro-check`` console script.
- ``trace <figure>`` — rerun one figure's representative specs with
  the structured event tracer enabled and write a Chrome-trace JSON
  (open in Perfetto / chrome://tracing). See docs/OBSERVABILITY.md.
- ``metrics <figure>`` — rerun one figure's representative specs with
  registry observation and dump the merged per-component metrics
  snapshot as JSON.
- ``--version`` — package version plus the source-tree content hash
  (the hash that keys the result cache), so two checkouts can be
  compared by eye.
"""

from __future__ import annotations

import argparse
import os
import sys


#: Everything ``repro figures`` knows how to run.
ALL_FIGURES = ("fig7", "fig9", "fig10", "fig11", "fig12", "fig13")


def run_figures(
    scale_name: str,
    jobs: int | None = None,
    figure: str | None = None,
    mode: str | None = None,
) -> int:
    os.environ["REPRO_SCALE"] = scale_name
    from repro.harness import (
        current_scale,
        render_figure7,
        run_figure9,
        run_figure10,
        run_figure11,
        run_figure12,
        run_figure13,
    )
    from repro.harness.specsets import FAST_FIGURES
    from repro.perf import default_cache

    scale = current_scale()
    run_mode = mode or "event"
    if run_mode == "fast" and figure not in FAST_FIGURES:
        print(
            "error: --mode fast needs a single mode-capable figure "
            f"({', '.join(FAST_FIGURES)}), e.g. "
            "`repro figures fig9 --mode fast`",
            file=sys.stderr,
        )
        return 2
    if scale.name == "paper" and run_mode == "event":
        print(
            "error: scale 'paper' is out of reach for the event-mode "
            "simulator (paper-scale replay alone is ~10^7 accesses); "
            "rerun one figure on the vectorized path, e.g. "
            "`repro figures fig9 --scale paper --mode fast`",
            file=sys.stderr,
        )
        return 2
    cache = default_cache()

    def memo(name, build):
        """Whole-figure memoisation: a warm rerun skips the driver."""
        if cache is None:
            return build()
        key = f"figure:{name}:scale={scale.name}"
        if run_mode != "event":
            key += f":mode={run_mode}"
        hit = cache.get(key)
        if hit is not None:
            return hit
        value = build()
        cache.put(key, value)
        return value

    wanted = ALL_FIGURES if figure is None else (figure,)
    label = "all figure drivers" if figure is None else f"figure driver {figure}"
    print(f"running {label} at scale '{scale.name}' (mode {run_mode})\n")
    if "fig7" in wanted:
        print(memo("fig7", render_figure7), "\n")
    for name, runner in (("fig9", run_figure9), ("fig10", run_figure10),
                         ("fig13", run_figure13)):
        if name not in wanted:
            continue
        outputs = memo(name, lambda runner=runner: runner(
            scale, jobs=jobs, mode=run_mode))
        for output in outputs:
            print(output.render(), "\n")
    if "fig11" in wanted:
        analytics, throughput, summary = memo(
            "fig11", lambda: run_figure11(scale, jobs=jobs, mode=run_mode)
        )
        print(analytics.render(), "\n")
        print(throughput.render(), "\n")
        print(summary.render(), "\n")
    if "fig12" in wanted:
        perf, energy, summary12 = memo(
            "fig12", lambda: run_figure12(scale, jobs=jobs)
        )
        print(perf.render(), "\n")
        print(energy.render(), "\n")
        print(summary12.render())
    return 0


def run_bench_command(args) -> int:
    from repro.perf.bench import render_summary, run_bench

    payload, exit_code = run_bench(
        scale_name=args.scale,
        jobs=args.jobs,
        results_dir=args.results_dir,
        threshold=args.threshold,
        check_regression=not args.no_regression_check,
        write=not args.dry_run,
        profile=args.profile,
    )
    print(render_summary(payload))
    return exit_code


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv[:1] in (["--version"], ["-V"]):
        # Handled before argparse so it works ahead of any subcommand
        # (and without paying for subparser imports).
        import repro
        from repro.perf.cache import code_version

        print(f"repro {repro.__version__} (code {code_version()[:16]})")
        return 0
    if argv[:1] == ["check"]:
        # The check sub-CLI owns its own flags; forward them verbatim.
        from repro.check.cli import main as check_main

        return check_main(argv[1:])

    from repro.harness.common import scale_names

    scales = scale_names()
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    figures = sub.add_parser("figures", help="reproduce every paper figure")
    figures.add_argument("figure", nargs="?", default=None,
                         choices=list(ALL_FIGURES),
                         help="run just this figure (default: all)")
    figures.add_argument("--scale", default="quick", choices=scales)
    figures.add_argument("--mode", default=None, choices=["event", "fast"],
                         help="execution mode for mode-capable figures "
                              "(paper scale requires a single figure in "
                              "--mode fast)")
    figures.add_argument("--jobs", type=int, default=None,
                         help="parallel simulation workers "
                              "(default: REPRO_JOBS or 1)")
    bench = sub.add_parser(
        "bench", help="time the tier-1 workloads; write a BENCH baseline"
    )
    bench.add_argument("--scale", default="quick", choices=scales)
    bench.add_argument("--jobs", type=int, default=None,
                       help="parallel simulation workers "
                            "(default: REPRO_JOBS or 1)")
    bench.add_argument("--results-dir", default="benchmarks/results",
                       help="where BENCH_*.json baselines live")
    bench.add_argument("--threshold", type=float, default=0.15,
                       help="fail when total wall-clock regresses by more "
                            "than this fraction (default 0.15)")
    bench.add_argument("--no-regression-check", action="store_true",
                       help="measure and write only; never fail")
    bench.add_argument("--dry-run", action="store_true",
                       help="do not write a BENCH_*.json file")
    bench.add_argument("--profile", action="store_true",
                       help="cProfile every case (forces --jobs 1) and "
                            "write PROFILE_*.txt next to the BENCH json")
    from repro.harness.specsets import SPEC_FIGURES

    trace = sub.add_parser(
        "trace", help="write a Chrome-trace JSON for one figure's runs"
    )
    trace.add_argument("figure", choices=list(SPEC_FIGURES))
    trace.add_argument("--scale", default="quick", choices=scales)
    trace.add_argument("--jobs", type=int, default=None,
                       help="parallel simulation workers "
                            "(default: REPRO_JOBS or 1)")
    trace.add_argument("--out", default=None,
                       help="output path (default traces/<figure>-<scale>.json)")
    trace.add_argument("--detail", action="store_true",
                       help="also emit one instant event per engine event "
                            "(much larger traces)")
    trace.add_argument("--limit", type=int, default=1_000_000,
                       help="per-run trace event cap (default 1,000,000)")
    metrics = sub.add_parser(
        "metrics", help="dump the merged metrics-registry snapshot for one figure"
    )
    metrics.add_argument("figure", choices=list(SPEC_FIGURES))
    metrics.add_argument("--scale", default="quick", choices=scales)
    metrics.add_argument("--jobs", type=int, default=None,
                         help="parallel simulation workers "
                              "(default: REPRO_JOBS or 1)")
    metrics.add_argument("--out", default=None,
                         help="write JSON here instead of stdout")
    sub.add_parser("quickstart", help="substrate walk-through")
    sub.add_parser("report", help="regenerate EXPERIMENTS.md")
    sub.add_parser("check", help="run invariant checkers + differential oracle")

    args = parser.parse_args(argv)

    if args.command == "figures":
        return run_figures(args.scale, jobs=args.jobs, figure=args.figure,
                           mode=args.mode)
    if args.command == "bench":
        return run_bench_command(args)
    if args.command == "trace":
        from repro.obs.cli import run_trace

        return run_trace(
            args.figure,
            scale_name=args.scale,
            jobs=args.jobs,
            out=args.out,
            detail=args.detail,
            limit=args.limit,
        )
    if args.command == "metrics":
        from repro.obs.cli import run_metrics

        return run_metrics(
            args.figure,
            scale_name=args.scale,
            jobs=args.jobs,
            out=args.out,
        )
    if args.command == "quickstart":
        sys.path.insert(0, "examples")
        import importlib.util
        import pathlib

        path = pathlib.Path(__file__).resolve().parents[2] / "examples" / "quickstart.py"
        spec = importlib.util.spec_from_file_location("quickstart", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.main()
        return 0
    if args.command == "report":
        from repro.harness.report import main as report_main

        report_main()
        return 0
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
