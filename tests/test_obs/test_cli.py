"""Tests for the trace/metrics CLI verbs (tiny monkeypatched spec sets)."""

import json

import pytest

import repro.obs.cli as obs_cli
from repro.__main__ import main
from repro.obs.tracer import validate_chrome_trace
from repro.perf.specs import RunSpec

TINY_SPECS = [RunSpec(kind="gemm", params={"variant": "naive", "n": 8}, seed=3)]


@pytest.fixture
def tiny_figure(monkeypatch):
    monkeypatch.setattr(obs_cli, "figure_specs", lambda figure, scale: list(TINY_SPECS))


class TestRunTrace:
    def test_writes_valid_chrome_trace(self, tiny_figure, tmp_path, capsys):
        out = tmp_path / "fig13.json"
        assert obs_cli.run_trace("fig13", out=str(out)) == 0
        count = validate_chrome_trace(out)
        assert count > 1
        payload = json.loads(out.read_text())
        labels = [e["args"]["name"] for e in payload["traceEvents"]
                  if e["ph"] == "M"]
        assert labels == ["gemm:naive"]
        assert "wrote" in capsys.readouterr().out

    def test_default_output_path(self, tiny_figure, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert obs_cli.run_trace("fig13") == 0
        assert (tmp_path / "traces" / "fig13-quick.json").exists()

    def test_limit_caps_trace_and_reports_drops(self, tiny_figure, tmp_path,
                                                capsys):
        out = tmp_path / "capped.json"
        assert obs_cli.run_trace("fig13", out=str(out), limit=10) == 0
        payload = json.loads(out.read_text())
        data_events = [e for e in payload["traceEvents"] if e["ph"] != "M"]
        assert len(data_events) == 10
        assert payload["otherData"]["dropped_events"] > 0
        assert "dropped" in capsys.readouterr().out

    def test_limit_is_honoured_with_the_result_cache_on(self, tiny_figure,
                                                        tmp_path, monkeypatch):
        # The limit is not part of the cache key, so a trace served from
        # the cache would keep the first run's cap.
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        capped, full = tmp_path / "capped.json", tmp_path / "full.json"
        assert obs_cli.run_trace("fig13", out=str(capped), limit=10) == 0
        assert obs_cli.run_trace("fig13", out=str(full)) == 0
        payload = json.loads(full.read_text())
        data_events = [e for e in payload["traceEvents"] if e["ph"] != "M"]
        assert len(data_events) > 10
        assert payload["otherData"]["dropped_events"] == 0


class TestRunMetrics:
    def test_writes_namespaced_snapshot(self, tiny_figure, tmp_path):
        out = tmp_path / "metrics.json"
        assert obs_cli.run_metrics("fig13", out=str(out)) == 0
        payload = json.loads(out.read_text())
        paths = list(payload["counters"])
        assert all(path.startswith("gemm:naive.") for path in paths)
        assert payload["counters"]["gemm:naive.cpu.core0"]["instructions"] > 0

    def test_stdout_when_no_out(self, tiny_figure, capsys):
        assert obs_cli.run_metrics("fig13") == 0
        printed = capsys.readouterr().out
        assert '"counters"' in printed


class TestArgparseWiring:
    def test_unknown_figure_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "fig7"])
        assert excinfo.value.code == 2

    def test_trace_dispatches(self, tiny_figure, tmp_path):
        out = tmp_path / "cli.json"
        assert main(["trace", "fig13", "--out", str(out)]) == 0
        assert validate_chrome_trace(out) > 0

    def test_metrics_dispatches(self, tiny_figure, tmp_path):
        out = tmp_path / "cli-metrics.json"
        assert main(["metrics", "fig13", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["schema"] == 1
