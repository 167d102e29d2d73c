"""Trace-ingest frontend: compile external PIM-style traces to op streams.

The entry seam for workloads this repo did not generate: any trace in
the :mod:`repro.trace.format` text format (the same line-oriented shape
HBM-PIMulator-style tracegens emit) compiles into a pattload/pattstore
op stream and runs on a GS-DRAM machine.

Two translation rules, in priority order:

1. **Explicit annotations win.** Records carrying a non-zero pattern ID
   replay verbatim as pattload/pattstore — an authoring tool that
   already knows its layout keeps full control.
2. **Pattern inference for the rest.** :func:`repro.trace.analysis.
   analyze` nominates static PCs whose pattern-0 streams move at a
   record stride; :func:`compile_trace` rewrites each aligned run of
   ``chips`` consecutive single-value loads from such a PC (one lane
   walked down a line group) into ``chips`` pattloads of the one line
   that gathers the lane. Op count is unchanged; the run's line
   traffic drops from ``chips`` lines to 1, exactly the transformation
   a GS-aware compiler would apply. Runs that are misaligned, mixed
   with stores, or interrupted stay scalar — the rewrite never changes
   which bytes a load returns.

:func:`run_ingested` executes a compiled trace on a fresh shuffled
region with deterministically seeded contents, rebasing addresses so
line-group alignment is preserved, and digests every loaded value — so
`rewrite=True` vs `rewrite=False` runs of the same trace are
differentially comparable (same values, less traffic), which is what
:mod:`repro.check.inference` enforces.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.cpu.isa import Compute, Load, Store
from repro.errors import WorkloadError
from repro.sim.config import table1_config
from repro.sim.results import RunResult
from repro.sim.system import System
from repro.trace.analysis import TraceReport, analyze
from repro.trace.format import TraceRecord

LINE_BYTES = 64
VALUE_BYTES = 8


@dataclass
class CompiledTrace:
    """An ingested trace, ready to replay."""

    #: The compiled records (rewritten where inference applied).
    records: list[TraceRecord]
    #: Analysis of the *input* trace (candidates, footprint, patterns).
    report: TraceReport
    #: pc -> number of scalar runs rewritten into gathers.
    rewritten: dict[int, int] = field(default_factory=dict)

    @property
    def gather_runs(self) -> int:
        return sum(self.rewritten.values())


def _candidate_pcs(report: TraceReport, chips: int) -> set[int]:
    """PCs whose dominant stride is exactly one line (full-group runs)."""
    return {
        candidate.pc
        for candidate in report.candidates
        if candidate.stride == LINE_BYTES
        and candidate.line_reduction == chips
    }


def _rewrite_run(run: list[TraceRecord], chips: int) -> list[TraceRecord]:
    """Gathered equivalent of one aligned scalar lane-walk, or None."""
    first = run[0]
    group_line = first.address // LINE_BYTES
    lane_offset = first.address % LINE_BYTES
    if group_line % chips or lane_offset % VALUE_BYTES:
        return None
    for step, record in enumerate(run):
        if record.address != (group_line + step) * LINE_BYTES + lane_offset:
            return None
    lane = lane_offset // VALUE_BYTES
    gathered_line = (group_line + lane) * LINE_BYTES
    return [
        TraceRecord(
            kind="L", core=first.core,
            address=gathered_line + j * VALUE_BYTES, size=VALUE_BYTES,
            pattern=chips - 1, pc=first.pc,
        )
        for j in range(chips)
    ]


def compile_trace(
    records: list[TraceRecord],
    rewrite: bool = True,
    chips: int = 8,
) -> CompiledTrace:
    """Compile a trace: honour explicit patterns, infer the rest.

    With ``rewrite=False`` the records pass through untouched (explicit
    annotations still replay as gathers — they are part of the trace).
    """
    report = analyze(records, line_bytes=LINE_BYTES,
                     value_bytes=VALUE_BYTES, chips=chips)
    if not rewrite:
        return CompiledTrace(records=list(records), report=report)

    candidates = _candidate_pcs(report, chips)
    rewritten: dict[int, int] = {}
    out: list[TraceRecord] = []
    run: list[TraceRecord] = []

    def flush() -> None:
        nonlocal run
        if len(run) == chips:
            gathered = _rewrite_run(run, chips)
            if gathered is not None:
                rewritten[run[0].pc] = rewritten.get(run[0].pc, 0) + 1
                out.extend(gathered)
                run = []
                return
        out.extend(run)
        run = []

    for record in records:
        eligible = (
            record.kind == "L"
            and record.pattern == 0
            and record.size == VALUE_BYTES
            and record.pc in candidates
        )
        if not eligible:
            flush()
            out.append(record)
            continue
        if run and (record.pc != run[0].pc or len(run) == chips):
            flush()
        run.append(record)
        if len(run) == chips:
            flush()
    flush()
    return CompiledTrace(records=out, report=report, rewritten=rewritten)


@dataclass
class IngestRun:
    """Outcome of executing one compiled trace."""

    compiled: CompiledTrace
    result: RunResult
    #: sha256 over every loaded value, in program order.
    values_digest: str
    #: sha256 over the footprint region after the run.
    memory_digest: str
    loads_observed: int = 0


def _footprint_lines(records: list[TraceRecord]) -> tuple[int, int]:
    lines = [
        record.address // LINE_BYTES
        for record in records
        if record.kind in ("L", "S")
    ]
    if not lines:
        raise WorkloadError("trace touches no memory")
    # A patterned access at line L reaches the whole aligned group.
    last = max(record.address // LINE_BYTES + (8 if record.pattern else 1)
               for record in records if record.kind in ("L", "S"))
    return min(lines), last


def run_ingested(
    records: list[TraceRecord],
    rewrite: bool = True,
    chips: int = 8,
    init_seed: int = 7,
    config_overrides: dict | None = None,
    compiled: CompiledTrace | None = None,
) -> IngestRun:
    """Execute an ingested trace on a GS-DRAM machine.

    The trace's line footprint is rebased into one shuffled allocation,
    padded so every line keeps its index modulo ``chips`` (gather
    groups stay aligned), and filled with seeded deterministic bytes;
    stores then overwrite exactly what the trace says. Only single-core
    traces are supported here (multi-core traces replay through
    ``replay_ops`` on an event machine directly).
    """
    if any(record.core != 0 for record in records):
        raise WorkloadError(
            "ingest execution expects a single-core trace",
            cores=sorted({r.core for r in records}),
        )
    if compiled is None:
        compiled = compile_trace(records, rewrite=rewrite, chips=chips)

    min_line, end_line = _footprint_lines(records)
    pad = min_line % chips
    total_lines = end_line - (min_line - pad)
    system = System(table1_config(**(config_overrides or {})))

    base = system.pattmalloc(total_lines * LINE_BYTES, shuffle=True,
                             pattern=chips - 1)
    shift = base - (min_line - pad) * LINE_BYTES
    rng = np.random.default_rng(init_seed)
    system.mem_write(
        base,
        rng.integers(0, 256, size=total_lines * LINE_BYTES,
                     dtype=np.uint8).tobytes(),
    )

    loaded: list[bytes] = []

    def ops():
        for record in compiled.records:
            if record.kind == "C":
                yield Compute(record.count)
            elif record.kind == "L":
                yield Load(record.address + shift, size=record.size,
                           pattern=record.pattern, pc=record.pc,
                           on_value=loaded.append)
            else:
                yield Store(record.address + shift, record.payload,
                            pattern=record.pattern, pc=record.pc)

    result = system.run([ops()])
    image = system.mem_read(base, total_lines * LINE_BYTES)
    return IngestRun(
        compiled=compiled, result=result,
        values_digest=hashlib.sha256(b"".join(loaded)).hexdigest(),
        memory_digest=hashlib.sha256(image).hexdigest(),
        loads_observed=len(loaded),
    )
