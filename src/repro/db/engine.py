"""Experiment drivers: run DB workloads on a layout and verify answers.

Each driver builds a fresh simulated machine appropriate for the
layout (commodity DRAM for Row/Column Store, GS-DRAM for the GS
store), loads the table, runs the workload to completion, verifies the
functional answers against the table oracles, and returns the
:class:`~repro.sim.results.RunResult`.

Verification is mode-matched (phase 3): event runs check against the
scalar :class:`~repro.db.table.OracleTable`, vectorized fast runs
check against :class:`~repro.db.table.VecOracleTable` — a numpy oracle
whose algorithms are independent of the fast engines' kernels, so the
comparison stays a real check while paper-scale verification runs in
milliseconds (``repro check oracles`` holds the two oracles equal).
Every driver stamps per-stage wall times (setup / generate / run /
verify) onto ``result.stages``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from repro.db.layouts import GSDRAMStore, StorageLayout
from repro.db.table import OracleTable, VecOracleTable
from repro.db.workload import (
    AnalyticsQuery,
    HTAPWorkload,
    TransactionMix,
    generate_transaction_arrays,
    generate_transactions,
    make_rows,
    make_rows_array,
)
from repro.errors import ConfigError, WorkloadError
from repro.sim.config import SystemConfig, plain_dram_config, table1_config
from repro.sim.results import RunResult, StageTimer
from repro.sim.system import System
from repro.vec.shim import component_snapshot


def layout_config(layout: StorageLayout, cores: int = 1,
                  prefetch: bool = False, **overrides) -> SystemConfig:
    """The machine configuration matched to the layout's substrate."""
    if isinstance(layout, GSDRAMStore):
        return table1_config(cores=cores, prefetch=prefetch, **overrides)
    return plain_dram_config(cores=cores, prefetch=prefetch, **overrides)


def system_for(layout: StorageLayout, cores: int = 1, prefetch: bool = False,
               **overrides) -> System:
    """An event-driven machine matched to the layout's substrate."""
    return System(
        layout_config(layout, cores=cores, prefetch=prefetch, **overrides)
    )


def _vectorized(layout: StorageLayout, mode: str) -> bool:
    """True when this run uses the vectorized (no-machine) engine.

    ``mode="fast"`` exists only for the layouts :mod:`repro.vec.db`
    models exactly; any other layout (``PartialGatherStore``, for one)
    raises :class:`~repro.errors.ConfigError`.
    """
    if mode == "event":
        return False
    if mode != "fast":
        raise ConfigError(f"unknown run mode {mode!r}")
    from repro.vec.db import fast_layout_supported

    if not fast_layout_supported(layout):
        raise ConfigError(
            f"no fast path for layout {layout.name!r}; use mode='event'"
        )
    return True


@dataclass
class TransactionRun:
    """Outcome of a transaction-only run (Figure 9 point)."""

    layout: str
    mix_label: str
    result: RunResult
    verified: bool
    #: Per-component stat dicts (controller/l1/l2/hierarchy/dbi) for the
    #: event-vs-fast equivalence battery; None when not captured
    #: (multi-core machines).
    component_stats: dict | None = None


def run_transactions(
    layout: StorageLayout,
    mix: TransactionMix,
    num_tuples: int = 8192,
    count: int = 1000,
    seed: int = 42,
    prefetch: bool = False,
    config_overrides: dict | None = None,
    mode: str = "event",
) -> TransactionRun:
    """Execute ``count`` transactions of one i-j-k mix on ``layout``."""
    schema = layout.schema
    timer = StageTimer()

    if _vectorized(layout, mode):
        from repro.vec.db import fast_transactions

        with timer.stage("generate"):
            rows = make_rows_array(schema, num_tuples)
            txns = generate_transaction_arrays(
                schema, num_tuples, mix, count, seed
            )
        with timer.stage("setup"):
            config = layout_config(layout, prefetch=prefetch,
                                   **(config_overrides or {}))
        with timer.stage("run"):
            outcome = fast_transactions(layout, txns, rows, num_tuples,
                                        config)
        with timer.stage("verify"):
            oracle = VecOracleTable(schema, rows)
            expected_reads = oracle.apply_all(txns)
            verified = bool(
                np.array_equal(outcome.observed, expected_reads)
                and np.array_equal(outcome.final_rows, oracle.rows)
            )
        timer.attach(outcome.result)
        return TransactionRun(layout.name, mix.label, outcome.result,
                              verified, outcome.component_stats)

    with timer.stage("generate"):
        rows = make_rows(schema, num_tuples)
        txns = generate_transactions(schema, num_tuples, mix, count, seed)
    with timer.stage("setup"):
        system = system_for(layout, prefetch=prefetch,
                            **(config_overrides or {}))
        layout.attach(system, num_tuples)
        layout.load_rows(rows)

    observed: list[int] = []
    with timer.stage("run"):
        result = system.run(
            [layout.transactions_program(txns, observed.append)]
        )
    stats = component_snapshot(system)

    with timer.stage("verify"):
        oracle = OracleTable(schema, rows)
        expected_reads = oracle.apply_all(txns)
        verified = (observed == expected_reads
                    and layout.read_rows() == oracle.rows)
    timer.attach(result)
    return TransactionRun(layout.name, mix.label, result, verified, stats)


@dataclass
class AnalyticsRun:
    """Outcome of an analytics run (Figure 10 point)."""

    layout: str
    query_label: str
    prefetch: bool
    result: RunResult
    answer: int
    verified: bool
    component_stats: dict | None = None


def run_analytics(
    layout: StorageLayout,
    query: AnalyticsQuery,
    num_tuples: int = 8192,
    prefetch: bool = False,
    config_overrides: dict | None = None,
    mode: str = "event",
) -> AnalyticsRun:
    """Sum the queried columns on ``layout``."""
    schema = layout.schema
    timer = StageTimer()

    if _vectorized(layout, mode):
        from repro.vec.db import fast_analytics

        with timer.stage("generate"):
            rows = make_rows_array(schema, num_tuples)
        with timer.stage("setup"):
            config = layout_config(layout, prefetch=prefetch,
                                   **(config_overrides or {}))
        with timer.stage("run"):
            outcome = fast_analytics(layout, query, rows, num_tuples, config)
        with timer.stage("verify"):
            expected = VecOracleTable(schema, rows).column_sum(query)
            verified = outcome.answer == expected
        timer.attach(outcome.result)
        return AnalyticsRun(
            layout.name, query.label, prefetch, outcome.result,
            outcome.answer, verified, outcome.component_stats,
        )

    with timer.stage("generate"):
        rows = make_rows(schema, num_tuples)
    with timer.stage("setup"):
        system = system_for(layout, prefetch=prefetch,
                            **(config_overrides or {}))
        layout.attach(system, num_tuples)
        layout.load_rows(rows)

    total = [0]

    def add(value: int) -> None:
        total[0] += value

    with timer.stage("run"):
        result = system.run([layout.analytics_ops(query, add)])
    stats = component_snapshot(system)
    with timer.stage("verify"):
        expected = OracleTable(schema, rows).column_sum(query)
        verified = total[0] == expected
    timer.attach(result)
    return AnalyticsRun(
        layout.name, query.label, prefetch, result, total[0], verified, stats,
    )


@dataclass
class HTAPRun:
    """Outcome of an HTAP run (Figure 11 point)."""

    layout: str
    prefetch: bool
    analytics_cycles: int
    committed_txns: int
    txn_throughput_mps: float  # million transactions per second
    result: RunResult
    #: Functional verification and the analytics answer (phased runs
    #: only; the open-ended variant's answer depends on timing).
    verified: bool = True
    answer: int | None = None
    component_stats: dict | None = None


def _endless_transactions(
    layout: StorageLayout,
    mix: TransactionMix,
    num_tuples: int,
    seed: int,
    committed: list[int],
):
    """Open-ended transaction stream; counts committed transactions."""
    schema = layout.schema
    rng = random.Random(seed)
    for txn_index in itertools.count():
        txns = generate_transactions(
            schema, num_tuples, mix, 1, seed=rng.randrange(1 << 30)
        )
        yield from layout.transaction_ops(txns[0])
        committed[0] += 1


def run_htap(
    layout: StorageLayout,
    workload: HTAPWorkload | None = None,
    num_tuples: int = 8192,
    prefetch: bool = False,
    cpu_ghz: float = 4.0,
    config_overrides: dict | None = None,
    mode: str = "event",
    txn_count: int | None = None,
) -> HTAPRun:
    """One analytics thread + one transaction thread on two cores.

    The transaction thread runs until the analytics thread completes
    (``stop_on_core=0``), matching the paper's setup. With ``txn_count``
    set, the run is *phased* instead: a fixed transaction batch, the
    analytics scan over the mid-run table, and a second batch execute
    on one core — the deterministic variant both modes share, used by
    the fast-mode figure specs and the equivalence battery.
    """
    workload = workload or HTAPWorkload()
    schema = layout.schema

    if txn_count is not None:
        return _run_htap_phased(
            layout, workload, txn_count, num_tuples,
            prefetch, cpu_ghz, config_overrides, mode,
        )
    if mode == "fast":
        raise ConfigError(
            "kind 'htap' has no fast path for the open-ended two-core "
            "workload (committed-transaction count is timing-dependent); "
            "pass txn_count for the phased variant or use mode='event'"
        )
    if mode != "event":
        raise ConfigError(f"unknown run mode {mode!r}")

    timer = StageTimer()
    with timer.stage("generate"):
        rows = make_rows(schema, num_tuples)
    with timer.stage("setup"):
        system = system_for(layout, cores=2, prefetch=prefetch,
                            **(config_overrides or {}))
        layout.attach(system, num_tuples)
        layout.load_rows(rows)

    total = [0]
    committed = [0]
    analytics = layout.analytics_ops(workload.analytics, lambda v: total.__setitem__(0, total[0] + v))
    txn_stream = _endless_transactions(
        layout, workload.txn_mix, num_tuples, workload.txn_seed, committed
    )
    with timer.stage("run"):
        result = system.run([analytics, txn_stream], stop_on_core=0)
    stats = component_snapshot(system)

    analytics_cycles = system.cores[0].finish_time or result.cycles
    if analytics_cycles <= 0:
        raise WorkloadError("analytics thread did not run")
    seconds = analytics_cycles / (cpu_ghz * 1e9)
    throughput = committed[0] / seconds / 1e6
    timer.attach(result)
    return HTAPRun(
        layout.name,
        prefetch,
        analytics_cycles,
        committed[0],
        throughput,
        result,
        answer=total[0],
        component_stats=stats,
    )


def _run_htap_phased(
    layout: StorageLayout,
    workload: HTAPWorkload,
    txn_count: int,
    num_tuples: int,
    prefetch: bool,
    cpu_ghz: float,
    config_overrides: dict | None,
    mode: str,
) -> HTAPRun:
    """Fixed-count HTAP: batch A, analytics, batch B — on one core."""
    schema = layout.schema
    count_a = (txn_count + 1) // 2
    count_b = txn_count - count_a
    timer = StageTimer()

    if _vectorized(layout, mode):
        from repro.vec.db import fast_htap_phased

        with timer.stage("generate"):
            rows = make_rows_array(schema, num_tuples)
            txns_a = generate_transaction_arrays(
                schema, num_tuples, workload.txn_mix, count_a,
                seed=workload.txn_seed,
            )
            txns_b = generate_transaction_arrays(
                schema, num_tuples, workload.txn_mix, count_b,
                seed=workload.txn_seed + 1,
            )
        with timer.stage("setup"):
            config = layout_config(layout, prefetch=prefetch,
                                   **(config_overrides or {}))
        with timer.stage("run"):
            outcome = fast_htap_phased(
                layout, txns_a, txns_b, workload.analytics, rows, num_tuples,
                config,
            )
        with timer.stage("verify"):
            oracle = VecOracleTable(schema, rows)
            oracle.apply_all(txns_a)
            expected_mid = oracle.column_sum(workload.analytics)
            oracle.apply_all(txns_b)
            verified = bool(
                outcome.answer == expected_mid
                and np.array_equal(outcome.final_rows, oracle.rows)
            )
        timer.attach(outcome.result)
        return HTAPRun(
            layout.name, prefetch, 0, txn_count, 0.0, outcome.result,
            verified, outcome.answer, outcome.component_stats,
        )

    with timer.stage("generate"):
        rows = make_rows(schema, num_tuples)
        txns_a = generate_transactions(
            schema, num_tuples, workload.txn_mix, count_a,
            seed=workload.txn_seed,
        )
        txns_b = generate_transactions(
            schema, num_tuples, workload.txn_mix, count_b,
            seed=workload.txn_seed + 1,
        )
    with timer.stage("setup"):
        system = system_for(layout, prefetch=prefetch,
                            **(config_overrides or {}))
        layout.attach(system, num_tuples)
        layout.load_rows(rows)

    total = [0]

    def program():
        for txn in txns_a:
            yield from layout.transaction_ops(txn)
        yield from layout.analytics_ops(
            workload.analytics, lambda v: total.__setitem__(0, total[0] + v)
        )
        for txn in txns_b:
            yield from layout.transaction_ops(txn)

    with timer.stage("run"):
        result = system.run([program()])
    stats = component_snapshot(system)
    with timer.stage("verify"):
        oracle = OracleTable(schema, rows)
        oracle.apply_all(txns_a)
        expected_mid = oracle.column_sum(workload.analytics)
        oracle.apply_all(txns_b)
        verified = (total[0] == expected_mid
                    and layout.read_rows() == oracle.rows)
    analytics_cycles = result.cycles
    if analytics_cycles > 0:
        seconds = analytics_cycles / (cpu_ghz * 1e9)
        throughput = txn_count / seconds / 1e6
    else:
        throughput = 0.0
    timer.attach(result)
    return HTAPRun(
        layout.name, prefetch, analytics_cycles, txn_count, throughput,
        result, verified, total[0], stats,
    )
