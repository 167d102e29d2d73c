"""The bench CLI machinery: payload shape, baselines, regressions."""

import json
import time

import pytest

from repro.perf import bench
from repro.perf.bench import (
    BenchCase,
    bench_cases,
    compare_to_baseline,
    latest_baseline,
    machine_fingerprint,
    render_summary,
    run_bench,
)
from repro.harness.common import scale_by_name


#: Every timed twin and the case it is timed against.
TWIN_REFERENCES = {
    "fig9-transactions-fast": "fig9-transactions",
    "fig10-analytics-fast": "fig10-analytics",
    "fig11-htap-fast": "fig11-htap",
    "fig13-gemm-fast": "fig13-gemm",
    "fig7-sweep-fast": "fig7-sweep-event",
    "genverify-vec": "genverify-scalar",
}


def _payload(wall, machine=None):
    return {
        "totals": {"wall_s": wall},
        "machine": machine or machine_fingerprint(),
    }


class TestCompareToBaseline:
    def test_within_threshold_is_ok(self):
        verdict = compare_to_baseline(_payload(1.05), _payload(1.0),
                                      threshold=0.15, strict=False)
        assert verdict["status"] == "ok"
        assert verdict["ratio"] == pytest.approx(1.05)

    def test_regression_beyond_threshold(self):
        verdict = compare_to_baseline(_payload(1.30), _payload(1.0),
                                      threshold=0.15, strict=False)
        assert verdict["status"] == "regression"

    def test_improvement_is_ok(self):
        verdict = compare_to_baseline(_payload(0.5), _payload(1.0),
                                      threshold=0.15, strict=False)
        assert verdict["status"] == "ok"

    def test_different_machine_skipped_unless_strict(self):
        other = {"hostname": "elsewhere", "python": "3.10.0",
                 "platform": "dream"}
        new, old = _payload(9.0), _payload(1.0, machine=other)
        assert compare_to_baseline(new, old, 0.15, strict=False)["status"] \
            == "skipped-different-machine"
        assert compare_to_baseline(new, old, 0.15, strict=True)["status"] \
            == "regression"

    def test_different_scale_skipped_even_when_strict(self):
        new = dict(_payload(9.0), scale="default")
        old = dict(_payload(1.0), scale="quick")
        for strict in (False, True):
            assert compare_to_baseline(new, old, 0.15, strict)["status"] \
                == "skipped-different-scale"

    def test_different_cases_skipped_even_when_strict(self):
        # A dropped case shrinks the suite total; comparing totals
        # would read that as a speed-up and hide a real regression.
        new = dict(_payload(1.0), cases=[{"name": "fig9-transactions"}])
        old = dict(_payload(9.0), cases=[{"name": "fig9-transactions"},
                                         {"name": "infer-gather-fast"}])
        for strict in (False, True):
            assert compare_to_baseline(new, old, 0.15, strict)["status"] \
                == "skipped-different-cases"

    def test_missing_baseline_total(self):
        verdict = compare_to_baseline(
            _payload(1.0), {"machine": machine_fingerprint()}, 0.15, False
        )
        assert verdict["status"] == "no-baseline-total"


class TestLatestBaseline:
    def test_none_when_empty(self, tmp_path):
        assert latest_baseline(tmp_path) is None

    def test_lexicographically_newest_wins(self, tmp_path):
        (tmp_path / "BENCH_20260101-000000.json").write_text("{}")
        newest = tmp_path / "BENCH_20260301-000000.json"
        newest.write_text("{}")
        (tmp_path / "notes.txt").write_text("ignored")
        assert latest_baseline(tmp_path) == newest


class TestBenchCases:
    def test_covers_every_figure_family(self):
        names = {case.name for case in bench_cases(scale_by_name("quick"))}
        assert names == {"fig7-patterns", "fig9-transactions",
                         "fig10-analytics", "fig11-htap", "fig13-gemm",
                         "pim-ablation", "fig7-sweep-event",
                         "fig7-sweep-fast", "fig9-transactions-fast",
                         "fig10-analytics-fast", "fig11-htap-fast",
                         "fig13-gemm-fast",
                         "genverify-scalar", "genverify-vec"}

    def test_paper_scale_drops_event_figure_cases(self):
        names = {case.name for case in bench_cases(scale_by_name("paper"))}
        assert "fig9-transactions" not in names
        assert "fig9-transactions-fast" in names
        # The fixed-size pairs survive so the twins block stays
        # populated at paper scale.
        assert {"fig7-sweep-event", "fig7-sweep-fast",
                "genverify-scalar", "genverify-vec"} <= names

    def test_figure_fast_cases_use_fast_specs(self):
        cases = {case.name: case for case in bench_cases(scale_by_name("quick"))}
        for name in ("fig9-transactions-fast", "fig10-analytics-fast",
                     "fig11-htap-fast", "fig13-gemm-fast"):
            assert {s.mode for s in cases[name].specs} == {"fast"}, name
            event_twin = cases[name.removesuffix("-fast")]
            assert {s.mode for s in event_twin.specs} == {"event"}, name

    def test_references_name_cases_in_the_suite(self):
        cases = bench_cases(scale_by_name("quick"))
        names = {case.name for case in cases}
        references = {case.name: case.reference for case in cases
                      if case.reference is not None}
        assert references == TWIN_REFERENCES
        assert set(references.values()) <= names

    def test_sweep_cases_differ_only_in_mode(self):
        cases = {case.name: case for case in bench_cases(scale_by_name("quick"))}
        event = cases["fig7-sweep-event"].specs
        fast = cases["fig7-sweep-fast"].specs
        assert [s.params for s in event] == [s.params for s in fast]
        assert {s.mode for s in event} == {"event"}
        assert {s.mode for s in fast} == {"fast"}

    def test_spec_cases_are_cache_keyable(self):
        from repro.perf import cache_key

        for case in bench_cases(scale_by_name("quick")):
            for spec in case.specs:
                assert cache_key(spec)


class TestTwins:
    def test_entry_only_when_the_reference_ran(self, tmp_path, monkeypatch):
        cases = [
            BenchCase("slow", func=lambda: time.sleep(0.02)),
            BenchCase("quick", func=lambda: None, reference="slow"),
            BenchCase("orphan", func=lambda: None, reference="absent"),
        ]
        monkeypatch.setattr(bench, "bench_cases", lambda scale: cases)
        payload, _ = run_bench(results_dir=tmp_path, write=False,
                               check_regression=False)
        assert set(payload["twins"]) == {"quick"}
        twin = payload["twins"]["quick"]
        assert twin["reference"] == "slow"
        assert twin["speedup"] == twin["reference_wall_s"] / twin["wall_s"]
        assert twin["speedup"] > 1.0
        assert "quick: " in render_summary(payload)


@pytest.mark.slow
class TestRunBench:
    def test_end_to_end_writes_baseline_and_detects_regression(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_BENCH_STRICT", "1")
        results = tmp_path / "results"
        payload, code = run_bench(
            scale_name="quick", jobs=1, results_dir=results
        )
        assert code == 0  # no baseline yet: nothing to regress against
        assert payload["schema"] == 3
        twins = payload["twins"]
        references = {name: twin["reference"] for name, twin in twins.items()}
        assert references == TWIN_REFERENCES
        for name, twin in twins.items():
            assert twin["speedup"] > 1.0, (name, twin)
        assert twins["genverify-vec"]["speedup"] >= 3.0
        assert payload["scale"] == "quick"
        assert payload["totals"]["wall_s"] > 0
        assert payload["totals"]["events"] > 0
        assert 0.0 <= payload["cache"]["hit_rate"] <= 1.0
        for case in payload["cases"]:
            assert set(case) >= {"name", "wall_s", "warm_wall_s", "events",
                                 "events_per_s", "stages", "attribution"}
        by_name = {case["name"]: case for case in payload["cases"]}
        from repro.sim.results import STAGE_NAMES

        for name, case in by_name.items():
            if name == "fig7-patterns":
                continue  # closed-form render: no staged driver
            assert case["stages"], name
            assert set(case["stages"]) <= set(STAGE_NAMES), name
            # jobs=1: the staged sections ran serially inside the timed
            # window, so their sum cannot exceed the cold wall-clock.
            assert sum(case["stages"].values()) <= case["wall_s"] * 1.05, name
        assert payload["stages"]

        written = list(results.glob("BENCH_*.json"))
        assert len(written) == 1
        on_disk = json.loads(written[0].read_text())
        assert on_disk["totals"]["wall_s"] == payload["totals"]["wall_s"]
        assert render_summary(payload)

        # Forge the baseline to be impossibly fast: the rerun must fail.
        on_disk["totals"]["wall_s"] = 1e-9
        written[0].write_text(json.dumps(on_disk))
        payload2, code2 = run_bench(
            scale_name="quick", jobs=1, results_dir=results, write=False
        )
        assert code2 == 1
        assert payload2["regression_check"]["status"] == "regression"

        # And an impossibly slow baseline must pass.
        on_disk["totals"]["wall_s"] = 1e9
        written[0].write_text(json.dumps(on_disk))
        payload3, code3 = run_bench(
            scale_name="quick", jobs=1, results_dir=results, write=False
        )
        assert code3 == 0
        assert payload3["regression_check"]["status"] == "ok"
