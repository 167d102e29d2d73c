"""``run_pim``: the GS-gather-vs-PIM analytics ablation driver.

Both variants answer the same aggregate over the same seeded table
column and verify against the same numpy oracle:

- ``variant="gs"`` — GS-DRAM gathers the field column with pattern-7
  pattloads (the paper's Figure 8 loop) and the CPU folds the values;
  exactly the existing analytics machinery, run on
  :class:`~repro.sim.System`.
- ``variant="pim"`` — the column is bit-sliced into per-bank row
  groups placed by :class:`~repro.mem.mapping.PIMRowGroupPolicy` and
  the aggregate is computed in-DRAM by the MRA+SHIFT programs of
  :mod:`repro.pim.ops`, timed by :class:`~repro.pim.executor.PIMExecutor`.

The two variants must agree on ``answer``, which is what
``repro check pim`` asserts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.db.layouts import GSDRAMStore
from repro.db.workload import AnalyticsQuery, make_rows
from repro.dram.module import DRAMModule
from repro.energy.model import system_energy
from repro.errors import ConfigError
from repro.mem.mapping import PIMRowGroupPolicy
from repro.obs.session import current_session
from repro.pim.executor import PIMExecutor
from repro.pim.ops import SliceChunk, chunk_values
from repro.sim.config import plain_dram_config, table1_config
from repro.sim.results import RunResult, StageTimer
from repro.sim.system import System
from repro.vec.shim import component_snapshot, machine_shim

WORKLOADS = ("sum", "filter")
VARIANTS = ("gs", "pim")

#: Mechanism labels for the figure.
VARIANT_MECHANISMS = {"gs": "GS-DRAM gather + CPU",
                      "pim": "In-DRAM compute (PIM)"}


@dataclass
class PIMRun:
    """Outcome of one ablation run (either variant)."""

    workload: str
    variant: str
    params: dict
    result: RunResult
    verified: bool
    #: The aggregate value, as text (sum or match count).
    answer: str
    #: sha256 over the bytes the CPU actually received (gathered values
    #: for GS, slice/mask readback for PIM).
    memory_digest: str
    component_stats: dict | None = field(default=None)

    @property
    def cycles(self) -> int:
        return self.result.cycles


def _threshold(values: np.ndarray) -> int:
    """Deterministic predicate constant: the column's median."""
    return int(np.sort(values)[values.shape[0] // 2])


def _oracle(workload: str, values: np.ndarray, threshold: int) -> int:
    if workload == "sum":
        return int(values.sum())
    if workload == "filter":
        return int((values < threshold).sum())
    raise ConfigError(f"unknown pim workload {workload!r}; "
                      f"expected one of {WORKLOADS}")


# ----------------------------------------------------------------------
# GS side: gather + CPU fold
# ----------------------------------------------------------------------
def _run_gs(workload, num_tuples, field_id, seed, config_overrides, timer):
    layout = GSDRAMStore()
    with timer.stage("generate"):
        rows = make_rows(layout.schema, num_tuples, seed=seed)
        values = rows[:, field_id]
        threshold = _threshold(values)
    with timer.stage("setup"):
        system = System(table1_config(**(config_overrides or {})))
        layout.attach(system, num_tuples)
        layout.load_rows(rows)

    total = [0]
    digest = hashlib.sha256()

    if workload == "sum":
        def sink(value: int) -> None:
            total[0] += value
            digest.update(value.to_bytes(8, "little"))
    else:
        def sink(value: int) -> None:
            if value < threshold:
                total[0] += 1
            digest.update(value.to_bytes(8, "little"))

    query = AnalyticsQuery((field_id,))
    with timer.stage("run"):
        result = system.run([layout.analytics_ops(query, sink)])
    stats = component_snapshot(system)
    with timer.stage("verify"):
        expected = _oracle(workload, values, threshold)
        verified = total[0] == expected
    return result, total[0], digest.hexdigest(), verified, threshold, stats


# ----------------------------------------------------------------------
# PIM side: bit-sliced in-DRAM programs
# ----------------------------------------------------------------------
def _run_pim_variant(workload, num_tuples, field_id, seed,
                     config_overrides, timer):
    from repro.db.schema import TableSchema

    schema = TableSchema()
    with timer.stage("generate"):
        values = make_rows(schema, num_tuples, seed=seed)[:, field_id]
        threshold = _threshold(values)
        width_in = max(int(values.max()).bit_length(), 1)
    with timer.stage("setup"):
        config = plain_dram_config(**(config_overrides or {}))
        module = DRAMModule(
            geometry=config.geometry,
            cpu_per_bus=config.cpu_per_bus,
            policy=config.mapping_policy,
        )
        policy = PIMRowGroupPolicy(module)
        executor = PIMExecutor(module)
        chunks = [
            SliceChunk(executor, policy, bank, chunk_vals, width_in)
            for bank, chunk_vals in chunk_values(
                values, module.geometry.banks, module.geometry.row_bytes * 8
            )
        ]

    digest = hashlib.sha256()
    total = 0
    with timer.stage("run"):
        if workload == "sum":
            for chunk in chunks:
                chunk.sum_reduce()
            for chunk in chunks:
                partial, raw = chunk.read_sum()
                total += partial
                digest.update(raw)
        elif workload == "filter":
            for chunk in chunks:
                chunk.compare_less_than(threshold)
            for chunk in chunks:
                count, raw = chunk.read_mask()
                total += count
                digest.update(raw)
        else:
            raise ConfigError(f"unknown pim workload {workload!r}; "
                              f"expected one of {WORKLOADS}")

    counts = dict(executor.stats.as_dict())
    cycles = executor.cycles
    with timer.stage("verify"):
        expected = _oracle(workload, values, threshold)
        verified = total == expected

    # The CPU's only timed contribution is folding the per-chunk
    # partials; everything else happened inside the chips.
    instructions = len(chunks)
    energy = system_energy(
        runtime_cycles=cycles,
        instructions=instructions,
        l1_accesses=0,
        l2_accesses=0,
        command_counts=counts,
        cores=1,
        cpu_ghz=config.cpu_ghz,
    )
    result = RunResult(
        mechanism="pim",
        cycles=cycles,
        instructions=instructions,
        loads=counts.get("cmd_RD", 0),
        stores=0,
        l1_hits=0,
        l1_misses=0,
        l2_hits=0,
        l2_misses=0,
        dram_reads=counts.get("cmd_RD", 0),
        dram_writes=counts.get("cmd_WR", 0),
        row_hits=counts.get("cmd_RD", 0),
        row_misses=counts.get("cmd_ACT", 0),
        prefetches=0,
        coherence_invalidations=0,
        writebacks=0,
        energy=energy,
        extra={
            "cmd_MRA2": float(counts.get("cmd_MRA2", 0)),
            "cmd_MRA3": float(counts.get("cmd_MRA3", 0)),
            "cmd_SHIFT": float(counts.get("cmd_SHIFT", 0)),
            "shift_stages": float(counts.get("shift_stages", 0)),
            "pim_chunks": float(len(chunks)),
            "fast_path": 0.0,
        },
    )
    # Surface the PIM counters through an active observability session
    # exactly like the vectorized engines do for skipped machines.
    session = current_session()
    if session is not None:
        session.attach(machine_shim(
            config,
            core_counts={"instructions": instructions},
            controller_counts=counts,
        ))
    stats = {"pim": counts}
    return result, total, digest.hexdigest(), verified, threshold, stats


def run_pim(
    workload: str,
    variant: str,
    config_overrides: dict | None = None,
    num_tuples: int = 8192,
    field_id: int = 0,
    seed: int = 1,
) -> PIMRun:
    """Run one side of the GS-gather-vs-PIM ablation, oracle-verified."""
    if workload not in WORKLOADS:
        raise ConfigError(f"unknown pim workload {workload!r}; "
                          f"expected one of {WORKLOADS}")
    if variant not in VARIANTS:
        raise ConfigError(f"unknown pim variant {variant!r}; "
                          f"expected one of {VARIANTS}")
    timer = StageTimer()
    runner = _run_gs if variant == "gs" else _run_pim_variant
    result, answer, memory_digest, verified, threshold, stats = runner(
        workload, num_tuples, field_id, seed, config_overrides, timer
    )
    timer.attach(result)
    return PIMRun(
        workload=workload,
        variant=variant,
        params={"num_tuples": num_tuples, "field_id": field_id,
                "seed": seed, "threshold": threshold},
        result=result,
        verified=verified,
        answer=str(answer),
        memory_digest=memory_digest,
        component_stats=stats,
    )
