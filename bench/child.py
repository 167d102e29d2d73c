"""One benchmark workload in a fresh interpreter.

``bench/run.py`` spawns this script with ``src`` on ``PYTHONPATH``. It
imports repro and builds the workload's specs, prints ``ready`` (the
parent times set-up up to that line), then runs repetitions in a
closed loop and prints one JSON line of measurements.

A repetition runs every spec of the workload once, in order, through
``execute_spec``, after ``clear_workload_caches()``: cold, serial,
single process, no result cache.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import repro
import spans
import workloads
from repro.db.workload import clear_workload_caches
from repro.perf.specs import execute_spec

#: Bytes per DRAM line transfer (the paper's 64 B cache line).
LINE_BYTES = 64
#: Allowed gap between the traced wall time and the per-layer self
#: times plus unattributed time.
RECONCILE_TOLERANCE = 0.01


@dataclass
class Repetition:
    wall: float
    records: list
    tracer: object = None


def repetition(specs, tracer=None) -> Repetition:
    """Run every spec once, cold; failures are recorded, not raised."""
    gc.collect()
    clear_workload_caches()
    records = []

    def run_all():
        for spec in specs:
            try:
                records.append(execute_spec(spec))
            except Exception as exc:  # one failed spec must not stop the run
                traceback.print_exc(file=sys.stderr)
                records.append(exc)

    if tracer is None:
        start = time.perf_counter()
        run_all()
        wall = time.perf_counter() - start
    else:
        with spans.installed(tracer):
            tracer.start()
            run_all()
            wall = tracer.stop()
    return Repetition(wall, records, tracer)


def failures(records) -> int:
    """Specs that raised or came back unverified."""
    return sum(isinstance(record, BaseException) or not record.verified
               for record in records)


def sim_digest(records) -> str:
    """sha256 over every spec's result dict, answer and verified flag."""
    digest = hashlib.sha256()
    for record in records:
        if isinstance(record, BaseException):
            entry = {"error": type(record).__name__}
        else:
            entry = {"result": record.result.to_dict(),
                     "answer": getattr(record, "answer", None),
                     "verified": record.verified}
        digest.update(json.dumps(entry, sort_keys=True, default=str).encode())
    return digest.hexdigest()


def model_counters(records, bytes_used: int = 0) -> dict:
    """Exact modelled-design counters, summed over the workload's specs."""
    results = [record.result for record in records
               if not isinstance(record, BaseException)]

    def total(attr):
        return sum(getattr(result, attr) for result in results)

    l1 = total("l1_hits") + total("l1_misses")
    rows = total("row_hits") + total("row_misses")
    lines = total("dram_reads") + total("dram_writes")
    delays = [result.extra["mean_memory_queue_delay"] for result in results
              if "mean_memory_queue_delay" in result.extra]
    return {
        "model.cycles": total("cycles"),
        "model.instructions": total("instructions"),
        "model.engine_events": sum(result.extra.get("engine_events", 0.0)
                                   for result in results),
        "model.l1_miss_rate": total("l1_misses") / l1 if l1 else 0.0,
        "model.l2_misses": total("l2_misses"),
        "model.dram_reads": total("dram_reads"),
        "model.dram_writes": total("dram_writes"),
        "model.row_hit_rate": total("row_hits") / rows if rows else 0.0,
        "model.queue_delay_mean": statistics.fmean(delays) if delays else 0.0,
        "model.energy_mj": sum(result.energy.total_mj for result in results),
        "model.useful_byte_ratio": (bytes_used / (LINE_BYTES * lines)
                                    if lines else 0.0),
    }


def reconcile_error(tracer, wall: float) -> float:
    """|sum of self times + unattributed - wall| as a share of wall."""
    covered = sum(tracer.self_s.values()) + tracer.unattributed_s
    return abs(covered - wall) / wall


def measure(name: str, specs, seconds: float, trace: bool,
            trace_path=None) -> dict:
    """Run rounds until ``seconds`` would be exceeded; summarize them.

    An untraced round is one repetition; a traced round is one
    untraced plus one traced repetition, so the tracing overhead is
    measured on the same machine state. At least three untraced
    repetitions run, or two rounds when tracing.
    """
    workload = workloads.WORKLOADS[name]
    min_rounds = 2 if trace else 3
    walls, traced_walls, digests, problems = [], [], [], []
    attempted = failed = 0
    first = traced = None
    layer_samples = []
    began = time.perf_counter()
    longest = 0.0
    while True:
        round_start = time.perf_counter()
        reps = [repetition(specs)]
        if trace:
            reps.append(repetition(specs, spans.Tracer()))
        for rep in reps:
            attempted += len(rep.records)
            failed += failures(rep.records)
            digests.append(sim_digest(rep.records))
            if rep.tracer is None:
                walls.append(rep.wall)
                if first is None:
                    first = rep
                continue
            traced_walls.append(rep.wall)
            error = reconcile_error(rep.tracer, rep.wall)
            if error > RECONCILE_TOLERANCE:
                problems.append(f"traced repetition reconciles only within "
                                f"{error:.2%} of its wall time")
            layer_samples.append((rep.tracer.calls, rep.tracer.self_s,
                                  rep.tracer.unattributed_s))
            traced = rep
        longest = max(longest, time.perf_counter() - round_start)
        if (len(walls) >= min_rounds
                and time.perf_counter() - began + longest > seconds):
            break

    if len(set(digests)) != 1:
        problems.append(f"sim_digest differs across {len(digests)} "
                        "repetitions")
    if failed:
        problems.append(f"{failed} of {attempted} specs failed")

    wall = statistics.median(walls)
    instructions = sum(record.result.instructions for record in first.records
                       if not isinstance(record, BaseException))
    if trace:
        metrics = _layer_metrics(layer_samples)
        metrics["trace.overhead_frac"] = (statistics.median(traced_walls)
                                          / wall - 1)
        metrics.update(model_counters(traced.records,
                                      traced.tracer.bytes_used))
        metrics["model.fidelity_err"] = (
            workload.fidelity(traced.records)
            if workload.fidelity and not failed else 0.0)
        silent = [layer for layer in workload.layers
                  if not traced.tracer.calls[layer]]
        if silent:
            print(f"warning: no calls traced in declared layers {silent}",
                  file=sys.stderr)
        if trace_path is not None:
            traced.tracer.write(trace_path)
    else:
        metrics = {
            "wall_s": wall,
            "sim_instr_per_s": instructions / wall,
            # ru_maxrss is in KiB on Linux.
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    return {"metrics": metrics, "sim_digest": digests[0],
            "attempted": attempted, "failed": failed, "problems": problems,
            "walls": walls, "traced_walls": traced_walls}


def _layer_metrics(samples) -> dict:
    metrics = {}
    for layer in spans.LAYERS:
        metrics[f"{layer}.calls"] = statistics.median(
            calls[layer] for calls, _, _ in samples)
        metrics[f"{layer}.self_s"] = statistics.median(
            self_s[layer] for _, self_s, _ in samples)
    metrics["trace.unattributed_s"] = statistics.median(
        unattributed for _, _, unattributed in samples)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file")
    parser.add_argument("--probe", action="store_true",
                        help="exit right after set-up (set-up timing sample)")
    args = parser.parse_args(argv)

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(repro.__file__).resolve().parents:
        print(f"error: repro imported from {repro.__file__}, not {src}",
              file=sys.stderr)
        return 2
    specs = workloads.WORKLOADS[args.workload].build(args.seed)
    print("ready", flush=True)
    if args.probe:
        return 0
    result = measure(args.workload, specs, args.seconds, bool(args.trace),
                     args.trace_file)
    print(json.dumps(result, allow_nan=False), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
