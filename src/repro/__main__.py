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
- ``serve`` — run the asyncio simulation service (submit RunSpecs over
  HTTP/JSON, shared result cache, admission control, crash-recoverable
  job journal). See docs/SERVING.md.
- ``submit`` — send one or more RunSpecs to a running server and print
  one JSON line per job (id, state, result digest).
- ``jobs`` — list a running server's jobs.
- ``--version`` — package version plus the source-tree content hash
  (the same hash the service handshake echoes, so client/server skew
  is detectable by eye).
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
        from repro.serve.cli import version_string

        print(version_string())
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

    from repro.serve.server import DEFAULT_PORT

    serve_parser = sub.add_parser(
        "serve", help="run the simulation service (docs/SERVING.md)"
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    serve_parser.add_argument("--workers", type=int, default=2,
                              help="concurrent job slots (default 2)")
    serve_parser.add_argument("--executor", default="process",
                              choices=["process", "thread"],
                              help="where jobs run (default: process pool)")
    serve_parser.add_argument("--max-inflight", type=int, default=8,
                              help="open jobs allowed per client (default 8)")
    serve_parser.add_argument("--rate", type=float, default=0.0,
                              help="submissions/second per client "
                                   "(default 0 = unlimited)")
    serve_parser.add_argument("--burst", type=int, default=4,
                              help="rate-limit burst allowance (default 4)")
    serve_parser.add_argument("--state-dir", default=".repro-serve",
                              help="job-journal directory (default .repro-serve)")
    serve_parser.add_argument("--no-state", action="store_true",
                              help="disable the journal (no crash recovery)")
    serve_parser.add_argument("--drain-deadline", type=float, default=30.0,
                              help="seconds open jobs get on graceful "
                                   "shutdown (default 30)")
    serve_parser.add_argument("--quiet", action="store_true",
                              help="suppress per-request log lines")

    submit = sub.add_parser(
        "submit", help="submit RunSpecs to a running server"
    )
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, default=DEFAULT_PORT)
    submit.add_argument("--client", default="cli",
                        help="client id for admission control (default cli)")
    submit.add_argument("--spec-json", action="append", default=[],
                        help="a RunSpec as a JSON object (repeatable)")
    submit.add_argument("--spec-file", default=None,
                        help="JSON file with one spec or a list of specs")
    submit.add_argument("--figure", default=None, choices=list(SPEC_FIGURES),
                        help="submit that figure's representative specs")
    submit.add_argument("--scale", default="quick", choices=scales)
    submit.add_argument("--patternscan", default=None, metavar="VARIANT:STRIDE",
                        help="one fig7-style point, e.g. gathered:4")
    submit.add_argument("--lines", type=int, default=2048,
                        help="patternscan lines (default 2048)")
    submit.add_argument("--mode", default=None, choices=["event", "fast"],
                        help="override mode on every submitted spec")
    submit.add_argument("--obs", default=None,
                        choices=["off", "metrics", "trace", "trace-detail"],
                        help="override obs on every submitted spec")
    submit.add_argument("--priority", type=int, default=0)
    submit.add_argument("--no-wait", action="store_true",
                        help="return job ids immediately instead of waiting")
    submit.add_argument("--timeout", type=float, default=300.0,
                        help="per-job wait timeout in seconds (default 300)")
    submit.add_argument("--retries", type=int, default=3,
                        help="rate-limit resubmit attempts (default 3)")

    jobs_parser = sub.add_parser("jobs", help="list a running server's jobs")
    jobs_parser.add_argument("--host", default="127.0.0.1")
    jobs_parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    jobs_parser.add_argument("--timeout", type=float, default=30.0)
    jobs_parser.add_argument("--json", action="store_true",
                             help="raw JSON instead of a table")

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
    if args.command in ("serve", "submit", "jobs"):
        from repro.serve import cli as serve_cli

        handler = {
            "serve": serve_cli.run_serve,
            "submit": serve_cli.run_submit,
            "jobs": serve_cli.run_jobs,
        }[args.command]
        return handler(args)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
