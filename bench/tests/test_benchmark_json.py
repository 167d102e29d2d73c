"""BENCHMARK.json's schema, and the runner emitting exactly what it declares."""

import json
import re
import shutil
import subprocess
import sys

import pytest
from conftest import ROOT, SHRINK

import child
import workloads

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
END_TO_END = {metric["name"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"] for metric in SPEC["per_layer"]}


def test_top_level_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_names_units_and_bounds():
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in SPEC[key]]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_workloads_match_the_catalogue():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_every_move_names_a_declared_metric_and_workload():
    for layer_metric, moves in workloads.MOVES.items():
        assert layer_metric in PER_LAYER
        for metric, workload in moves:
            assert metric in END_TO_END
            assert workload in workloads.WORKLOADS


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_runner_emits_exactly_the_declared_metrics(name):
    specs = workloads.WORKLOADS[name].build(3, shrink=SHRINK)
    plain = child.measure(name, specs, 0.0, trace=False)
    assert set(plain["metrics"]) | {"setup_s"} == END_TO_END
    assert all(plain["metrics"][m] > 0 for m in plain["metrics"])
    traced = child.measure(name, specs, 0.0, trace=True)
    assert set(traced["metrics"]) == PER_LAYER
    for result in (plain, traced):
        assert result["problems"] == [] and result["failed"] == 0


def test_command_line_run_prints_every_metric_then_the_summary():
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "htap-event",
         "--seed", "5", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0
    assert set(summary["metrics"]) == END_TO_END
    printed = {line.split()[1] for line in lines[:-1]}
    assert printed == END_TO_END | {"sim_digest"}


def test_fails_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "oltp-event",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert not any(line.startswith("{") for line in out.stdout.splitlines())
