"""Run the benchmark: each workload in fresh interpreters, then print metrics.

    python3 bench/run.py [--seed N] [--workload NAME ...] [--seconds S]
                         [--trace [0|1]] [--out FILE]

Run it from the repository root. It puts ``src`` on the children's
``PYTHONPATH`` itself. Workloads run one at a time. For each one,
six probe interpreters (three before, three after) and the measuring
interpreter each time set-up (repro imports plus spec construction);
``setup_s`` is the median of those seven samples. The measuring
interpreter runs the workload in a closed loop: at least three cold
repetitions, more while the next one still fits in ``--seconds``.

Without ``--trace`` the end-to-end metrics of ``BENCHMARK.json`` are
reported; with ``--trace`` the per-layer metrics, from a run that also
writes the spans to ``bench/out/<workload>.trace.json``. Every metric
is printed as ``workload metric value unit``; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 1 if any spec failed or any check did
not hold.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
TRACE_DIR = BENCH / "out"
SETUP_SAMPLES = 7
#: Wall-clock budget for one workload, set-up samples included.
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH"))))
    # No helper threads in the measured process.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start(workload: str, seed: int, extra: list[str]):
    """Spawn a child; returns it and its set-up time (spawn to ``ready``)."""
    began = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), "--workload", workload,
         "--seed", str(seed), *extra],
        stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT,
    )
    line = proc.stdout.readline()
    setup = time.perf_counter() - began
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload}: child failed during set-up")
    return proc, setup


def finish(proc, workload: str, deadline: float) -> str:
    """Wait for a child until ``deadline``; returns its remaining stdout."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload}: child exceeded {DEADLINE_S:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{workload}: child exited with {proc.returncode}")
    return out


def probe_setup(name: str, seed: int, deadline: float) -> float:
    proc, setup = start(name, seed, ["--probe"])
    finish(proc, name, deadline)
    return setup


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    # Half the probes run before the measuring child and half after
    # it, so a slow phase of the machine rarely covers every sample.
    probes = SETUP_SAMPLES - 1
    samples = [probe_setup(name, seed, deadline) for _ in range(probes // 2)]
    extra = ["--seconds", str(seconds), "--trace", str(int(trace))]
    if trace:
        TRACE_DIR.mkdir(exist_ok=True)
        extra += ["--trace-file", str(TRACE_DIR / f"{name}.trace.json")]
    proc, setup = start(name, seed, extra)
    samples.append(setup)
    lines = finish(proc, name, deadline).strip().splitlines()
    samples += [probe_setup(name, seed, deadline)
                for _ in range(probes - probes // 2)]
    if not lines:
        raise BenchError(f"{name}: child printed no result")
    result = json.loads(lines[-1])
    result["setup_samples"] = samples
    if not trace:
        result["metrics"]["setup_s"] = statistics.median(samples)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="GS-DRAM reproduction benchmark (see bench/README.md)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--workload", nargs="+", action="extend",
                        help="workload names (default: all)")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="measurement budget per workload; at least "
                             "three repetitions always run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="traced run: per-layer metrics")
    parser.add_argument("--out", help="also write the full results as JSON")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [workload["name"] for workload in spec["workloads"]]
    names = args.workload or known
    unknown = sorted(set(names) - set(known))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; expected {known}")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}

    results = {}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace))
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        emitted = set(result["metrics"])
        if emitted != set(units):
            result["problems"].append(
                f"emitted metrics differ from BENCHMARK.json: missing "
                f"{sorted(set(units) - emitted)}, extra "
                f"{sorted(emitted - set(units))}")
        results[name] = result
        for metric in units:
            if metric in result["metrics"]:
                print(f"{name} {metric} {result['metrics'][metric]!r} "
                      f"{units[metric]}")
        print(f"{name} sim_digest {result['sim_digest']} sha256")
        for problem in result["problems"]:
            print(f"{name} problem: {problem}", file=sys.stderr)

    if args.out:
        Path(args.out).write_text(json.dumps({
            "seed": args.seed, "seconds": args.seconds,
            "trace": bool(args.trace),
            "host": {"platform": platform.platform(),
                     "cpus": os.cpu_count(),
                     "python": platform.python_version()},
            "workloads": results,
        }, indent=1) + "\n")

    correct = all(not result["problems"] for result in results.values())
    prefix = len(results) > 1
    summary = {
        "correct": correct,
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": sum(result["failed"] for result in results.values()),
        "metrics": {
            (f"{name}/{metric}" if prefix else metric):
                {"value": value, "unit": units[metric]}
            for name, result in results.items()
            for metric, value in result["metrics"].items()
            if metric in units
        },
    }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
