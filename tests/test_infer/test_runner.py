"""Run / replay tests for the inference drivers."""

import pathlib

import pytest

from repro.errors import ConfigError, WorkloadError
from repro.infer import replay_infer, run_infer
from repro.trace.format import TraceRecord, load_trace

SMALL = {
    "gemv": {"m": 16, "n": 16, "batch": 1},
    "embed": {"vocab": 32, "bags": 4, "bag_size": 3},
    "kvcache": {"steps": 4},
}
FIXTURE = pathlib.Path(__file__).parent.parent / "data" / "gemv_baseline.trace"


@pytest.mark.parametrize("workload", sorted(SMALL))
class TestModes:
    def test_gs_beats_baseline_in_cycles(self, workload):
        baseline = run_infer(workload, "baseline", **SMALL[workload])
        gs = run_infer(workload, "gs", **SMALL[workload])
        assert gs.cycles < baseline.cycles
        assert gs.answer == baseline.answer


class TestRecordReplay:
    def test_recorded_trace_replays_identically(self):
        records = []
        event = run_infer("embed", "gs", record_to=records, **SMALL["embed"])
        assert event.trace_records == len(records) > 0
        replay = replay_infer("embed", "gs", records, **SMALL["embed"])
        assert replay.verified
        assert replay.result.cycles == event.result.cycles
        assert replay.memory_digest == event.memory_digest

    def test_replay_rejects_multicore_trace(self):
        records = [TraceRecord(kind="C", core=1, count=4)]
        with pytest.raises(WorkloadError):
            replay_infer("gemv", "baseline", records, **SMALL["gemv"])

    def test_golden_fixture_replays(self):
        """The committed trace still matches today's generator."""
        with FIXTURE.open() as stream:
            records = load_trace(stream)
        fresh: list = []
        event = run_infer("gemv", "baseline", record_to=fresh,
                          **SMALL["gemv"])
        assert fresh == records
        replay = replay_infer("gemv", "baseline", records, **SMALL["gemv"])
        assert replay.verified
        assert replay.memory_digest == event.memory_digest


class TestValidation:
    def test_unknown_workload(self):
        with pytest.raises(ConfigError):
            run_infer("conv", "gs")

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            run_infer("gemv", "rowstore")

    def test_pc_traffic_present_on_generated_runs(self):
        run = run_infer("gemv", "gs", **SMALL["gemv"])
        assert run.pc_traffic and all(v > 0 for v in run.pc_traffic.values())
