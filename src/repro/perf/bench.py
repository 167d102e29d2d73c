"""Perf baseline tooling: ``python -m repro bench``.

Times a fixed set of tier-1 workloads (one case per figure family),
cold and warm through the result cache, and writes a
``BENCH_<date>.json`` baseline with wall-clock, simulated events/sec,
cache hit rate, and per-component cycle attribution. When a previous
baseline from the *same machine* exists in the results directory, the
new run is compared against it and the command fails on a total
wall-clock regression beyond ``--threshold`` (default 15%) — CI keeps
the perf trajectory honest, developers get a one-command answer to
"did I just make the simulator slower?".

Cross-machine baselines are reported but not enforced (absolute
wall-clock is not comparable across hosts); set
``REPRO_BENCH_STRICT=1`` to enforce anyway.
"""

from __future__ import annotations

import cProfile
import dataclasses
import datetime
import io
import json
import os
import pathlib
import platform
import pstats
import socket
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.perf.cache import ResultCache, code_version
from repro.perf.pool import resolve_jobs, run_specs
from repro.perf.specs import RunSpec

DEFAULT_RESULTS_DIR = pathlib.Path("benchmarks/results")
DEFAULT_THRESHOLD = 0.15
#: Lines per strided-sweep point in the event-vs-fast bench cases
#: (fixed across scales so recorded speedups are comparable over time).
SWEEP_LINES = 1024
#: Functions shown per case in the ``--profile`` dump.
PROFILE_TOP_N = 25


@dataclass
class BenchCase:
    """One timed workload: either a spec batch or a plain callable.

    ``reference`` names the case this one is timed against: when both
    run, the payload's ``twins`` block records their wall-clock ratio.
    """

    name: str
    specs: list[RunSpec] = field(default_factory=list)
    func: Callable[[], Any] | None = None
    reference: str | None = None


def _genverify_workload(vectorized: bool) -> Callable[[], Any]:
    """Generation + oracle-verification twin, scalar or vectorized.

    The two cases run the *same* figure-9-style workload (full-scale
    tuple table, full-scale transaction batch, observed-read oracle,
    final-state digest) through the scalar :class:`OracleTable` path
    and the columnar :class:`VecOracleTable` path. No simulator is
    involved, so the wall-clock ratio isolates exactly the
    generation+verify speedup the vectorization phase claims; equal
    digests double-check the twins computed the same thing. The
    workload shape is pinned to the ``full`` scale regardless of the
    bench's ``--scale`` so recorded speedups stay comparable.
    """

    def run() -> dict[str, Any]:
        from repro.db.schema import TableSchema
        from repro.db.table import OracleTable, VecOracleTable, table_digest
        from repro.db.workload import (
            FIGURE9_MIXES,
            clear_workload_caches,
            generate_transaction_arrays,
            generate_transactions,
            make_rows,
            make_rows_array,
        )
        from repro.harness.common import get_scale
        from repro.sim.results import StageTimer

        scale = get_scale("full")
        schema = TableSchema()
        mix = FIGURE9_MIXES[7]  # 4-2-2: reads, writes, and read-modify
        clear_workload_caches()  # cold timing must include row generation
        timer = StageTimer()
        if vectorized:
            with timer.stage("generate"):
                rows = make_rows_array(schema, scale.db_tuples)
                txns = generate_transaction_arrays(
                    schema, scale.db_tuples, mix, scale.db_transactions
                )
            with timer.stage("verify"):
                table = VecOracleTable(schema, rows)
                observed = table.apply_all(txns)
                digest = table.digest()
            observed_count = int(observed.size)
        else:
            with timer.stage("generate"):
                rows = make_rows(schema, scale.db_tuples)
                txns = generate_transactions(
                    schema, scale.db_tuples, mix, scale.db_transactions
                )
            with timer.stage("verify"):
                table = OracleTable(schema, rows)
                observed = table.apply_all(txns)
                digest = table_digest(table.rows)
            observed_count = len(observed)
        return {
            "digest": digest,
            "observed": observed_count,
            "stages": dict(timer.stages),
        }

    return run


def bench_cases(scale) -> list[BenchCase]:
    """The bench suite: one representative case per figure family.

    Spec-based cases run with ``obs="metrics"`` so each record carries a
    registry snapshot; per-component attribution comes from those
    snapshots rather than any bench-private bookkeeping. Registry
    observation is a handful of dict inserts per run, so the timing
    stays honest.

    At ``scale=paper`` the event-mode figure cases are dropped: the
    paper-scale workloads exist *because* of the vectorized path, and
    an event twin would run for hours. Their fast twins then have no
    reference to be timed against; the fixed-size sweep pair and the
    genverify pair still run, so the ``twins`` block stays populated.
    """
    from repro.harness.fig7_patterns import render_figure7
    from repro.harness.patternscan import pattern_sweep_specs
    from repro.harness.specsets import FAST_FIGURES, SPEC_FIGURES, figure_specs

    case_names = {
        "fig9": "fig9-transactions",
        "fig10": "fig10-analytics",
        "fig11": "fig11-htap",
        "fig13": "fig13-gemm",
        "pim": "pim-ablation",
    }
    fast_only = scale.name == "paper"
    cases = [BenchCase("fig7-patterns", func=render_figure7)]
    for figure in SPEC_FIGURES:
        if not fast_only:
            cases.append(
                BenchCase(
                    case_names[figure],
                    specs=[
                        dataclasses.replace(spec, obs="metrics")
                        for spec in figure_specs(figure, scale)
                    ],
                )
            )
        if figure not in FAST_FIGURES:
            continue
        # The same figure on the vectorized engine, timed against the
        # event case above: the per-figure fast-path speedup.
        cases.append(
            BenchCase(
                f"{case_names[figure]}-fast",
                specs=[
                    dataclasses.replace(spec, obs="metrics")
                    for spec in figure_specs(figure, scale, mode="fast")
                ],
                reference=case_names[figure],
            )
        )
    # Scalar-vs-columnar oracle twins (no simulator): the
    # generation+verify speedup.
    cases.append(
        BenchCase("genverify-scalar", func=_genverify_workload(False))
    )
    cases.append(
        BenchCase("genverify-vec", func=_genverify_workload(True),
                  reference="genverify-scalar")
    )
    # The same strided sweep on both substrates: the fast-path speedup
    # (see docs/PERFORMANCE.md); repro.check.fastpath asserts that the
    # two results are equal.
    cases.append(
        BenchCase(
            "fig7-sweep-event",
            specs=pattern_sweep_specs(lines=SWEEP_LINES, mode="event",
                                      obs="metrics"),
        )
    )
    cases.append(
        BenchCase(
            "fig7-sweep-fast",
            specs=pattern_sweep_specs(lines=SWEEP_LINES, mode="fast",
                                      obs="metrics"),
            reference="fig7-sweep-event",
        )
    )
    return cases


def _run_results(records: list[Any]):
    """The RunResults hiding inside heterogeneous run records."""
    for record in records:
        result = getattr(record, "result", None)
        if result is not None and hasattr(result, "cycles"):
            yield result


def _stage_totals(records: list[Any]) -> dict[str, float]:
    """Summed per-stage wall time across a case's RunResults."""
    totals: dict[str, float] = {}
    for result in _run_results(records):
        for name, seconds in getattr(result, "stages", {}).items():
            totals[name] = totals.get(name, 0.0) + seconds
    return totals


def _attribution(records: list[Any]) -> dict[str, Any]:
    """Per-component attribution, read from the metrics registry.

    Spec-based cases return :class:`~repro.obs.ObsRun` records whose
    snapshots are merged into one component-path -> counters view; the
    headline numbers are totals over path prefixes (``cache.l1``,
    ``mem.``, ...). ``cycles``/``engine_events`` stay run-level (they
    are clock readings, not component counters).
    """
    from repro.obs.registry import MetricsSnapshot

    out: dict[str, Any] = {
        "cycles": 0.0,
        "instructions": 0.0,
        "engine_events": 0.0,
        "dram_reads": 0.0,
        "dram_writes": 0.0,
        "row_hits": 0.0,
        "row_misses": 0.0,
        "l1_misses": 0.0,
        "l2_misses": 0.0,
        "mean_memory_queue_delay": 0.0,
    }
    merged = MetricsSnapshot()
    observed = 0
    for record in records:
        snapshot = getattr(record, "metrics", None)
        if isinstance(snapshot, MetricsSnapshot):
            merged = merged.merge(snapshot)
            observed += 1
    for result in _run_results(records):
        out["cycles"] += result.cycles
        out["engine_events"] += result.extra.get("engine_events", 0.0)
    if observed:
        out["instructions"] = float(merged.total("instructions", "cpu."))
        out["dram_reads"] = float(merged.total("cmd_RD", "mem."))
        out["dram_writes"] = float(merged.total("cmd_WR", "mem."))
        out["row_hits"] = float(merged.total("row_hits", "mem."))
        out["row_misses"] = float(merged.total("row_misses", "mem."))
        out["l1_misses"] = float(merged.total("misses", "cache.l1"))
        out["l2_misses"] = float(merged.total("misses", "cache.l2"))
        delays = [
            digest for path, digest in merged.histograms.items()
            if path.endswith("queue_delay")
        ]
        total_count = sum(d.get("count", 0) for d in delays)
        if total_count:
            out["mean_memory_queue_delay"] = (
                sum(d.get("mean", 0.0) * d.get("count", 0) for d in delays)
                / total_count
            )
        out["components"] = {
            path: values for path, values in sorted(merged.counters.items())
        }
    return out


def machine_fingerprint() -> dict[str, str]:
    return {
        "hostname": socket.gethostname(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def latest_baseline(results_dir: pathlib.Path) -> pathlib.Path | None:
    """The newest committed ``BENCH_*.json``, if any."""
    candidates = sorted(results_dir.glob("BENCH_*.json"))
    return candidates[-1] if candidates else None


def _case_names(payload: dict) -> list[str]:
    return [case.get("name") for case in payload.get("cases", [])]


def compare_to_baseline(
    payload: dict, baseline: dict, threshold: float, strict: bool
) -> dict:
    """Regression verdict: new total wall vs the baseline's."""
    old_total = baseline.get("totals", {}).get("wall_s")
    new_total = payload["totals"]["wall_s"]
    verdict: dict[str, Any] = {
        "baseline_timestamp": baseline.get("timestamp"),
        "baseline_wall_s": old_total,
        "wall_s": new_total,
        "threshold": threshold,
    }
    same_machine = baseline.get("machine") == payload["machine"]
    if old_total is None:
        verdict["status"] = "no-baseline-total"
        return verdict
    old_scale = baseline.get("scale")
    new_scale = payload.get("scale")
    if old_scale is not None and new_scale is not None and old_scale != new_scale:
        # Wall-clock across scales measures the scales, not the code.
        verdict["status"] = "skipped-different-scale"
        return verdict
    if _case_names(baseline) != _case_names(payload):
        # A suite total over other cases measures the case list: dropping
        # a case reads as a speed-up that can hide a real regression.
        verdict["status"] = "skipped-different-cases"
        return verdict
    if not same_machine and not strict:
        verdict["status"] = "skipped-different-machine"
        return verdict
    ratio = new_total / old_total if old_total else float("inf")
    verdict["ratio"] = ratio
    verdict["status"] = "regression" if ratio > 1.0 + threshold else "ok"
    return verdict


def run_bench(
    scale_name: str = "quick",
    jobs: int | None = None,
    results_dir: str | os.PathLike = DEFAULT_RESULTS_DIR,
    threshold: float = DEFAULT_THRESHOLD,
    cache_dir: str | os.PathLike | None = None,
    check_regression: bool = True,
    write: bool = True,
    profile: bool = False,
) -> tuple[dict, int]:
    """Run the bench suite; returns (payload, exit_code).

    ``profile=True`` wraps each case's cold pass in ``cProfile`` and
    writes the per-case top-``PROFILE_TOP_N`` cumulative functions to a
    ``PROFILE_<stamp>.txt`` next to the BENCH json. Profiling forces
    ``jobs=1`` — the profiler only sees this process, so pool workers
    would silently vanish from the attribution.
    """
    from repro.harness.common import scale_by_name

    scale = scale_by_name(scale_name)
    jobs = 1 if profile else resolve_jobs(jobs)
    results_dir = pathlib.Path(results_dir)

    # A fresh cache per bench run: the cold pass measures real
    # simulation speed, the warm pass measures the cache itself.
    scratch = None
    if cache_dir is None:
        scratch = tempfile.TemporaryDirectory(prefix="repro-bench-cache-")
        cache_dir = scratch.name
    cache = ResultCache(cache_dir)

    cases = bench_cases(scale)
    cases_out = []
    total_wall = 0.0
    total_events = 0.0
    profiles: dict[str, str] = {}
    try:
        for case in cases:
            profiler = cProfile.Profile() if profile else None
            if profiler is not None:
                profiler.enable()
            if case.func is not None:
                start = time.perf_counter()
                value = case.func()
                cold_wall = time.perf_counter() - start
                if profiler is not None:
                    profiler.disable()
                cache.put(f"bench-figure:{case.name}", value)
                start = time.perf_counter()
                cache.get(f"bench-figure:{case.name}")
                warm_wall = time.perf_counter() - start
                records: list[Any] = []
                # Callable cases can self-report stage timings by
                # returning a dict with a "stages" entry.
                stages = (dict(value["stages"])
                          if isinstance(value, dict) and "stages" in value
                          else {})
            else:
                start = time.perf_counter()
                records = run_specs(case.specs, jobs=jobs, cache=cache)
                cold_wall = time.perf_counter() - start
                if profiler is not None:
                    profiler.disable()
                start = time.perf_counter()
                run_specs(case.specs, jobs=jobs, cache=cache)
                warm_wall = time.perf_counter() - start
                stages = _stage_totals(records)
            if profiler is not None:
                buffer = io.StringIO()
                stats = pstats.Stats(profiler, stream=buffer)
                stats.sort_stats("cumulative").print_stats(PROFILE_TOP_N)
                profiles[case.name] = buffer.getvalue()
            attribution = _attribution(records)
            events = attribution["engine_events"]
            total_wall += cold_wall
            total_events += events
            cases_out.append(
                {
                    "name": case.name,
                    "runs": len(case.specs) or 1,
                    "wall_s": cold_wall,
                    "warm_wall_s": warm_wall,
                    "warm_speedup": cold_wall / warm_wall if warm_wall else None,
                    "events": events,
                    "events_per_s": events / cold_wall if cold_wall else 0.0,
                    "stages": stages,
                    "attribution": attribution,
                }
            )
    finally:
        if scratch is not None:
            scratch.cleanup()

    walls = {case["name"]: case["wall_s"] for case in cases_out}
    twins = {
        case.name: {
            "reference": case.reference,
            "reference_wall_s": walls[case.reference],
            "wall_s": walls[case.name],
            "speedup": (walls[case.reference] / walls[case.name]
                        if walls[case.name] else None),
        }
        for case in cases
        if case.reference in walls
    }

    stage_totals: dict[str, float] = {}
    for case in cases_out:
        for name, seconds in case["stages"].items():
            stage_totals[name] = stage_totals.get(name, 0.0) + seconds

    payload = {
        "schema": 3,  # 3: paired-case speedups in one twins block
        "timestamp": datetime.datetime.now().isoformat(timespec="seconds"),
        "scale": scale.name,
        "jobs": jobs,
        "machine": machine_fingerprint(),
        "code_version": code_version(),
        "cases": cases_out,
        "twins": twins,
        "stages": stage_totals,
        "cache": dict(cache.stats, hit_rate=cache.hit_rate),
        "totals": {
            "wall_s": total_wall,
            "events": total_events,
            "events_per_s": total_events / total_wall if total_wall else 0.0,
        },
    }

    exit_code = 0
    if check_regression:
        baseline_path = latest_baseline(results_dir)
        if baseline_path is not None:
            try:
                baseline = json.loads(baseline_path.read_text())
            except (OSError, ValueError):
                baseline = {}
            strict = os.environ.get("REPRO_BENCH_STRICT", "") == "1"
            verdict = compare_to_baseline(payload, baseline, threshold, strict)
            verdict["baseline_file"] = baseline_path.name
            payload["regression_check"] = verdict
            if verdict["status"] == "regression":
                exit_code = 1

    if write:
        results_dir.mkdir(parents=True, exist_ok=True)
        stamp = datetime.datetime.now().strftime("%Y%m%d-%H%M%S")
        out_path = results_dir / f"BENCH_{stamp}.json"
        out_path.write_text(json.dumps(payload, indent=2) + "\n")
        payload["output_file"] = str(out_path)
        if profiles:
            profile_path = results_dir / f"PROFILE_{stamp}.txt"
            sections = [
                f"==== {name} ====\n{text}"
                for name, text in profiles.items()
            ]
            profile_path.write_text("\n".join(sections))
            payload["profile_file"] = str(profile_path)
    elif profiles:
        payload["profiles"] = profiles

    return payload, exit_code


def render_summary(payload: dict) -> str:
    lines = [
        f"bench @ scale={payload['scale']} jobs={payload['jobs']} "
        f"({payload['machine']['hostname']}, py{payload['machine']['python']})"
    ]
    for case in payload["cases"]:
        line = f"  {case['name']:<22} {case['wall_s']:8.3f}s cold"
        if case["warm_speedup"]:
            line += (
                f"  {case['warm_wall_s']:8.4f}s warm"
                f" ({case['warm_speedup']:6.1f}x)"
            )
        if case["events"]:
            line += f"  {case['events_per_s']:>12,.0f} events/s"
        lines.append(line)
    totals = payload["totals"]
    lines.append(
        f"  total: {totals['wall_s']:.3f}s, "
        f"{totals['events_per_s']:,.0f} events/s, "
        f"cache hit rate {payload['cache']['hit_rate']:.0%}"
    )
    stage_totals = payload.get("stages") or {}
    if stage_totals:
        breakdown = "  ".join(
            f"{name}={seconds:.3f}s"
            for name, seconds in sorted(stage_totals.items())
        )
        lines.append(f"  stages: {breakdown}")
    for name, twin in payload["twins"].items():
        if twin["speedup"]:
            lines.append(
                f"  {name}: {twin['speedup']:.1f}x vs {twin['reference']} "
                f"({twin['reference_wall_s']:.3f}s -> {twin['wall_s']:.3f}s)"
            )
    verdict = payload.get("regression_check")
    if verdict:
        status = verdict["status"]
        if status == "regression":
            lines.append(
                f"  REGRESSION vs {verdict['baseline_file']}: "
                f"{verdict['ratio']:.2f}x total wall-clock "
                f"(threshold {1 + verdict['threshold']:.2f}x)"
            )
        elif status == "ok":
            lines.append(
                f"  vs {verdict['baseline_file']}: {verdict['ratio']:.2f}x "
                f"(within {1 + verdict['threshold']:.2f}x) -- OK"
            )
        else:
            lines.append(f"  baseline comparison: {status}")
    if "output_file" in payload:
        lines.append(f"  wrote {payload['output_file']}")
    if "profile_file" in payload:
        lines.append(f"  wrote {payload['profile_file']}")
    return "\n".join(lines)
