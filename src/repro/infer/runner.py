"""Drivers for the inference workload family (``kind="infer"`` specs).

Every run is on the cycle-level :class:`~repro.sim.System`; the family
has no fast mode (see docs/PERFORMANCE.md).

``run_infer`` generates and runs a workload; ``replay_infer`` rebuilds
the identical machine + memory image but drives it from a recorded
trace instead of the generator, which is how the check layer proves
generated and ingested streams are the same workload.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.errors import ConfigError, WorkloadError
from repro.infer.generators import PREPARERS, VARIANTS, WORKLOADS
from repro.sim.config import plain_dram_config, table1_config
from repro.sim.results import RunResult, StageTimer
from repro.sim.system import System
from repro.trace.format import TraceRecord, record_ops, replay_ops
from repro.vec.shim import component_snapshot

#: Paper-style mechanism labels for the two variants.
VARIANT_MECHANISMS = {"baseline": "Interleaved (DRAM)",
                      "gs": "Shuffled (GS-DRAM)"}


@dataclass
class InferRun:
    """Outcome of one inference workload run."""

    workload: str
    variant: str
    params: dict
    result: RunResult
    verified: bool
    #: sha256 over the workload's output values in program order —
    #: equal across runs (and across generate/replay) iff every
    #: computed value is equal. Replayed runs have no Python-side
    #: consumers, so theirs is the memory-image digest criterion only.
    answer: str
    #: sha256 over the final bytes of every allocated region.
    memory_digest: str
    #: Records captured when the run was traced (0 otherwise).
    trace_records: int = 0
    #: Per-PC op counts (generated runs only).
    pc_traffic: dict = field(default_factory=dict)
    #: Per-component stat dicts for the equivalence battery.
    component_stats: dict | None = None

    @property
    def cycles(self) -> int:
        return self.result.cycles


def _build_system(variant: str, config_overrides: dict | None) -> System:
    if variant not in VARIANTS:
        raise ConfigError(f"unknown infer variant {variant!r}; "
                          f"expected one of {VARIANTS}")
    overrides = config_overrides or {}
    config = (table1_config(**overrides) if variant == "gs"
              else plain_dram_config(**overrides))
    return System(config)


def _prepare(system, workload: str, variant: str, params: dict):
    if workload not in WORKLOADS:
        raise ConfigError(f"unknown infer workload {workload!r}; "
                          f"expected one of {WORKLOADS}")
    return PREPARERS[workload](system, variant, **params)


def run_infer(
    workload: str,
    variant: str,
    config_overrides: dict | None = None,
    record_to: list[TraceRecord] | None = None,
    **params,
) -> InferRun:
    """Generate, run, and oracle-verify one inference workload.

    Pass ``record_to`` to tee the op stream into a trace (the list is
    filled as the core consumes ops).
    """
    timer = StageTimer()
    with timer.stage("setup"):
        system = _build_system(variant, config_overrides)
    with timer.stage("generate"):
        prepared = _prepare(system, workload, variant, params)
    ops = prepared.ops()
    if record_to is not None:
        ops = record_ops(ops, 0, record_to)
    with timer.stage("run"):
        result = system.run([ops])
    # Snapshot before finalize: reading memory back drains dirty lines,
    # which would perturb the writeback/DBI counters the battery diffs.
    stats = component_snapshot(system)
    with timer.stage("verify"):
        verified, answer = prepared.finalize()
        memory_digest = hashlib.sha256(
            prepared.read_image(system)
        ).hexdigest()
    timer.attach(result)
    return InferRun(
        workload=workload, variant=variant,
        params=dict(prepared.params), result=result, verified=verified,
        answer=answer, memory_digest=memory_digest,
        trace_records=len(record_to) if record_to is not None else 0,
        pc_traffic=dict(prepared.pc_traffic),
        component_stats=stats,
    )


def replay_infer(
    workload: str,
    variant: str,
    records: list[TraceRecord],
    config_overrides: dict | None = None,
    **params,
) -> InferRun:
    """Re-run a recorded inference trace on an identically built machine.

    Allocation and initial memory come from the generator (same seeds,
    same layout); the op stream comes from ``records``. Because
    replayed stores carry their exact payloads, a faithful trace must
    reproduce the generated run's final memory image — ``verified``
    here means the replayed image matches the *oracle* image, and the
    check layer additionally diffs result stats against the generated
    twin.
    """
    timer = StageTimer()
    with timer.stage("setup"):
        system = _build_system(variant, config_overrides)
    with timer.stage("generate"):
        prepared = _prepare(system, workload, variant, params)
    if any(record.core != 0 for record in records):
        raise WorkloadError(
            "inference replay expects a single-core trace",
            cores=sorted({r.core for r in records}),
        )
    with timer.stage("run"):
        result = system.run([replay_ops(records, core=0)])
    stats = component_snapshot(system)
    with timer.stage("verify"):
        image = prepared.read_image(system)
        expected = prepared.expected_image()
        memory_digest = hashlib.sha256(image).hexdigest()
    timer.attach(result)
    return InferRun(
        workload=workload, variant=variant,
        params=dict(prepared.params), result=result,
        verified=image == expected,
        answer="", memory_digest=memory_digest,
        trace_records=len(records),
        component_stats=stats,
    )
