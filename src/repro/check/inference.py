"""Inference-family differentials: generated vs replayed vs ingested.

The ``repro.infer`` family makes two equivalence promises, each
falsifiable here:

1. **Trace fidelity** — a recorded workload survives serialisation:
   text round-trip reproduces the records exactly, including under
   CRLF line endings and interleaved ``#`` comments, and replaying the
   trace on an identically built machine reproduces the generated
   run's result fields, every per-component statistic, and the final
   memory image.
2. **Ingest equivalence** — compiling a scalar trace with the pattern
   rewrite enabled returns bit-identical loaded values while strictly
   reducing DRAM line traffic (on a cache-thrashing machine).

``run_inference_check`` bundles the two for ``repro check``.
"""

from __future__ import annotations

import io

from repro.check.fastpath import (
    STAT_COMPONENTS,
    FastPathDivergence,
    FastPathReport,
    _compare_result_fields,
    _compare_stat_dicts,
)
from repro.infer.ingest import run_ingested
from repro.infer.runner import replay_infer, run_infer
from repro.trace.format import load_trace, save_trace, trace_from_text

#: Small shapes: every code path (all three workloads, both variants),
#: seconds of wall clock.
CHECK_SHAPES = {
    "gemv": {"m": 16, "n": 16, "batch": 1},
    "embed": {"vocab": 32, "bags": 4, "bag_size": 3},
    "kvcache": {"steps": 4},
}

#: Cache sizing for the ingest-rewrite differential: small enough that
#: the scalar lane-walk thrashes, so the rewrite's line-traffic win is
#: observable (with roomy caches both sides are cold-miss-bound and the
#:  traffic ties — correct, but asserting nothing).
THRASH_CACHE = {"l1_size": 512, "l1_assoc": 2, "l2_size": 1024, "l2_assoc": 2}


class InferenceReport(FastPathReport):
    """FastPathReport with an inference-flavoured headline."""

    def render(self) -> str:
        status = "OK" if self.ok else f"{len(self.divergences)} DIVERGENCES"
        lines = [
            f"inference: {self.runs} differential pairs, "
            f"{self.values_compared} values and {self.fields_compared} "
            f"stat fields compared, {status}"
        ]
        lines.extend(f"  {d.render()}" for d in self.divergences[:20])
        return "\n".join(lines)


def _diverge(report, where: str, what: str) -> None:
    report.divergences.append(FastPathDivergence(where, what))


def _check_roundtrip(report, where: str, records) -> None:
    """Text round-trip, plus CRLF + comment robustness."""
    buffer = io.StringIO()
    save_trace(records, buffer)
    report.values_compared += 1
    if load_trace(io.StringIO(buffer.getvalue())) != records:
        _diverge(report, where, "trace text round-trip changed records")
    # The same trace as a foreign tool might write it: CRLF endings,
    # a banner comment, and stray blank lines.
    lines = buffer.getvalue().splitlines()
    hostile = "# generated elsewhere\r\n\r\n" + "\r\n".join(lines) + "\r\n"
    report.values_compared += 1
    if trace_from_text(hostile) != records:
        _diverge(report, where, "CRLF/comment trace parsed differently")


def _check_workload(workload: str, variant: str, report) -> None:
    where = f"infer {workload}/{variant}"
    params = CHECK_SHAPES[workload]
    records: list = []
    event = run_infer(workload, variant, record_to=records, **params)
    report.values_compared += 1
    if not event.verified:
        _diverge(report, where, "event run failed its oracle")

    _check_roundtrip(report, where, records)

    # Replaying the trace must rebuild the same machine state: the
    # result fields and stat dicts match because the op stream is the
    # same stream, not merely an equivalent one. (Replays carry no
    # Python-side value consumers, so the answer digest is excluded —
    # the memory-image comparison below covers the outputs.)
    report.runs += 1
    replay = replay_infer(workload, variant, records, **params)
    _compare_result_fields(f"{where} replay", event.result, replay.result,
                           report)
    for component in STAT_COMPONENTS:
        _compare_stat_dicts(
            f"{where} replay", component,
            (event.component_stats or {}).get(component, {}),
            (replay.component_stats or {}).get(component, {}),
            report,
        )
    report.values_compared += 1
    if replay.memory_digest != event.memory_digest:
        _diverge(report, where, "replayed memory image differs")
    report.values_compared += 1
    if not replay.verified:
        _diverge(report, where, "replayed image failed the oracle")


def _check_ingest(report) -> None:
    """The rewrite differential on a generated scalar gemv trace."""
    where = "infer ingest gemv"
    records: list = []
    run_infer("gemv", "baseline", record_to=records, **CHECK_SHAPES["gemv"])
    report.runs += 1
    scalar = run_ingested(records, rewrite=False,
                          config_overrides=dict(THRASH_CACHE))
    gathered = run_ingested(records, rewrite=True,
                            config_overrides=dict(THRASH_CACHE))
    report.values_compared += 1
    if gathered.compiled.gather_runs == 0:
        _diverge(report, where, "pattern inference rewrote no runs")
    report.values_compared += 1
    if scalar.values_digest != gathered.values_digest:
        _diverge(report, where, "rewrite changed the loaded values")
    report.fields_compared += 1
    if gathered.result.dram_reads >= scalar.result.dram_reads:
        _diverge(
            report, where,
            f"rewrite did not reduce DRAM reads: scalar="
            f"{scalar.result.dram_reads} gathered={gathered.result.dram_reads}",
        )


def run_inference_check() -> InferenceReport:
    """The full inference battery; see the module docstring."""
    report = InferenceReport()
    for workload in CHECK_SHAPES:
        for variant in ("baseline", "gs"):
            _check_workload(workload, variant, report)
    _check_ingest(report)
    return report
