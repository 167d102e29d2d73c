"""Trace-ingest frontend: pattern inference, rewriting, execution."""

import pathlib

import pytest

from repro.errors import WorkloadError
from repro.infer import compile_trace, run_infer, run_ingested
from repro.infer.generators import PC_GEMV_W
from repro.trace.format import TraceRecord, load_trace

FIXTURE = pathlib.Path(__file__).parent.parent / "data" / "gemv_baseline.trace"
#: Small enough that the scalar lane-walk thrashes and the rewrite's
#: line-traffic reduction is visible (see repro.check.inference).
THRASH = {"l1_size": 512, "l1_assoc": 2, "l2_size": 1024, "l2_assoc": 2}


def fixture_records():
    with FIXTURE.open() as stream:
        return load_trace(stream)


def scalar_run(pc=0x900, group=0, lane=2, core=0):
    """One rewritable run: 8 consecutive-line loads at a fixed lane."""
    return [
        TraceRecord(kind="L", core=core, address=(group * 8 + d) * 64 + lane * 8,
                    size=8, pattern=0, pc=pc)
        for d in range(8)
    ]


class TestCompile:
    def test_fixture_has_candidates_and_rewrites(self):
        compiled = compile_trace(fixture_records())
        assert [c.pc for c in compiled.report.candidates] == [PC_GEMV_W]
        assert compiled.rewritten == {PC_GEMV_W: 32}
        assert len(compiled.records) == len(fixture_records())

    def test_rewrite_false_passes_through(self):
        records = fixture_records()
        compiled = compile_trace(records, rewrite=False)
        assert compiled.records == records
        assert compiled.gather_runs == 0

    def test_rewritten_runs_become_gathers(self):
        # 4 identical runs so the stride profile nominates the PC.
        records = [r for _ in range(4) for r in scalar_run()]
        compiled = compile_trace(records)
        assert compiled.gather_runs == 4
        gathered = compiled.records[:8]
        assert all(r.pattern == 7 and r.size == 8 for r in gathered)
        # All eight rewritten loads read the one line that gathers lane 2.
        assert {r.address // 64 for r in gathered} == {2}
        assert [r.address % 64 for r in gathered] == [j * 8 for j in range(8)]

    def test_misaligned_run_stays_scalar(self):
        # First line of each run is not group-aligned (starts at line 1).
        runs = []
        for _ in range(4):
            runs.extend(
                TraceRecord(kind="L", core=0, address=(1 + d) * 64 + 16,
                            size=8, pattern=0, pc=0x910)
                for d in range(8)
            )
        compiled = compile_trace(runs)
        assert compiled.gather_runs == 0
        assert compiled.records == runs

    def test_interrupted_run_stays_scalar(self):
        records = []
        for _ in range(4):
            run = scalar_run(pc=0x920)
            run.insert(4, TraceRecord(kind="C", core=0, count=1))
            records.extend(run)
        compiled = compile_trace(records)
        assert compiled.gather_runs == 0

    def test_explicit_patterns_never_rewritten(self):
        records = [
            TraceRecord(kind="L", core=0, address=d * 64, size=8,
                        pattern=7, pc=0x930)
            for d in range(8)
        ] * 4
        compiled = compile_trace(records)
        assert compiled.gather_runs == 0
        assert compiled.records == records


class TestExecution:
    def test_rewrite_preserves_values_and_cuts_traffic(self):
        records = fixture_records()
        scalar = run_ingested(records, rewrite=False, config_overrides=THRASH)
        gathered = run_ingested(records, rewrite=True, config_overrides=THRASH)
        assert scalar.values_digest == gathered.values_digest
        assert scalar.loads_observed == gathered.loads_observed > 0
        assert gathered.result.dram_reads < scalar.result.dram_reads
        assert gathered.result.cycles < scalar.result.cycles

    def test_generated_and_ingested_agree(self):
        """The same trace through replay-on-generator-machine and through
        ingest loads the same number of values."""
        records = fixture_records()
        generated = run_infer("gemv", "baseline", m=16, n=16, batch=1)
        ingested = run_ingested(records, rewrite=False)
        assert ingested.loads_observed == sum(
            1 for r in records if r.kind == "L")
        assert generated.verified

    def test_multicore_trace_rejected(self):
        with pytest.raises(WorkloadError):
            run_ingested(scalar_run(core=1))

    def test_empty_trace_rejected(self):
        with pytest.raises(WorkloadError):
            run_ingested([TraceRecord(kind="C", core=0, count=3)])

    def test_deterministic_across_calls(self):
        records = fixture_records()
        first = run_ingested(records, init_seed=9)
        second = run_ingested(records, init_seed=9)
        assert first.values_digest == second.values_digest
        assert first.memory_digest == second.memory_digest
        third = run_ingested(records, init_seed=10)
        assert third.values_digest != first.values_digest
