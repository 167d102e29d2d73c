"""The benchmark's pinned workloads: the exact RunSpecs each one runs.

Every spec is written out here with explicit parameters. Nothing is
derived from ``repro.harness.specsets.figure_specs``, so editing the
figure harness can never silently change what the benchmark measures.
The "why" of each workload lives in ``BENCHMARK.json``.

``shrink`` divides every size; the benchmark always runs ``shrink=1``
and the tests use larger values to exercise the same code paths
quickly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

# The modules ``execute_spec`` imports lazily are imported here, so
# their import cost is counted in set-up and not in the first
# repetition.
import repro.db.engine  # noqa: F401
import repro.gemm.autotune  # noqa: F401
import repro.pim.driver  # noqa: F401
import repro.vec.db  # noqa: F401
import repro.vec.gemm  # noqa: F401
from repro.db.workload import HTAPWorkload, TransactionMix
from repro.perf.specs import RunSpec

#: Figure 9's widest mix (4 read, 2 write, 2 read-modify-write fields).
MIX_4_2_2 = TransactionMix(4, 2, 2)
DB_LAYOUTS = ("Row Store", "Column Store", "GS-DRAM")


def oltp_event(seed: int, shrink: int = 1) -> list[RunSpec]:
    """Figure 9 transactions, event mode, on all three layouts."""
    return [
        RunSpec(
            kind="transactions",
            layout=layout,
            params={"mix": MIX_4_2_2, "num_tuples": 32_768 // shrink,
                    "count": 2_000 // shrink},
            seed=seed,
        )
        for layout in DB_LAYOUTS
    ]


def htap_event(seed: int, shrink: int = 1) -> list[RunSpec]:
    """Figure 11 open-ended two-core HTAP, Row Store and GS-DRAM."""
    return [
        RunSpec(
            kind="htap",
            layout=layout,
            params={"num_tuples": 32_768 // shrink, "prefetch": True,
                    "workload": HTAPWorkload(txn_seed=seed)},
            config_overrides={"l2_size": 256 * 1024 // shrink},
        )
        for layout in ("Row Store", "GS-DRAM")
    ]


def pim_event(seed: int, shrink: int = 1) -> list[RunSpec]:
    """The PIM ablation: {sum, filter} x {GS gather, in-DRAM compute}."""
    return [
        RunSpec(
            kind="pim",
            params={"workload": workload, "variant": variant,
                    "num_tuples": 32_768 // shrink},
            seed=seed,
        )
        for workload in ("sum", "filter")
        for variant in ("gs", "pim")
    ]


def paper_fast(seed: int, shrink: int = 1) -> list[RunSpec]:
    """Figure 9 at paper scale plus n=64 GEMM, both in fast mode.

    GEMM stays at n=64, not the paper's first size of 128, so that one
    repetition takes seconds. At n=128 the naive kernel alone took 6 s,
    and a 20 s run fit too few repetitions for a steady median.
    """
    # GS-DRAM gathers groups of 8 tuples, so the table stays a multiple.
    tuples = 1_000_000 // shrink // 8 * 8
    txns = [
        RunSpec(
            kind="transactions",
            layout=layout,
            params={"mix": MIX_4_2_2, "num_tuples": tuples,
                    "count": 10_000 // shrink},
            seed=seed,
            mode="fast",
        )
        for layout in DB_LAYOUTS
    ]
    n = max(8, 64 // shrink)
    gemm = [
        RunSpec(kind="gemm", params={"variant": variant, "n": n, **extra},
                seed=seed, mode="fast")
        for variant, extra in (("naive", {}), ("tiled", {"tile": 8}),
                               ("gs", {"tile": 8}))
    ]
    return txns + gemm


#: The paper's Figure 9 ratios for the 4-2-2 mix (Section 5.1): Column
#: Store takes about 3x GS-DRAM's cycles, Row Store about the same, and
#: Column Store spends 2.1x GS-DRAM's energy.
PAPER_RATIOS = {"column_gs_cycles": 3.0, "row_gs_cycles": 1.0,
                "column_gs_energy": 2.1}


def fig9_fidelity(records) -> float:
    """Largest |ln(repro / paper)| over the three Figure 9 ratios."""
    row, column, gs = (record.result for record in records)
    ours = {
        "column_gs_cycles": column.cycles / gs.cycles,
        "row_gs_cycles": row.cycles / gs.cycles,
        "column_gs_energy": column.energy.total_mj / gs.energy.total_mj,
    }
    return max(abs(math.log(ours[key] / paper))
               for key, paper in PAPER_RATIOS.items())


@dataclass(frozen=True)
class Workload:
    build: Callable[..., list[RunSpec]]
    #: Layers the traced run must see at least one call in.
    layers: tuple[str, ...]
    #: Paper-fidelity error from one repetition's records, where the
    #: workload reproduces a paper ratio.
    fidelity: Callable | None = None


_EVENT_LAYERS = ("workload", "db", "sim", "engine", "cpu", "cache", "mem",
                 "storage", "energy")

WORKLOADS = {
    "oltp-event": Workload(oltp_event, _EVENT_LAYERS + ("oracle",),
                           fig9_fidelity),
    "htap-event": Workload(htap_event, _EVENT_LAYERS),
    "pim-event": Workload(pim_event, _EVENT_LAYERS + ("pim",)),
    "paper-fast": Workload(paper_fast,
                           ("workload", "energy", "oracle", "vec")),
}

#: Which end-to-end metric each layer metric should move, on which
#: workload, written down before any optimisation is measured.
MOVES = {
    "storage.self_s": [("wall_s", "oltp-event"), ("wall_s", "pim-event"),
                       ("wall_s", "htap-event")],
    "mem.self_s": [("wall_s", "htap-event"),
                   ("sim_instr_per_s", "htap-event")],
    "cache.self_s": [("wall_s", "htap-event"),
                     ("sim_instr_per_s", "htap-event")],
    "engine.self_s": [("wall_s", "htap-event"),
                      ("sim_instr_per_s", "htap-event")],
    "vec.self_s": [("wall_s", "paper-fast"), ("peak_rss_mb", "paper-fast")],
    "db.self_s": [("wall_s", "oltp-event")],
    "pim.self_s": [("wall_s", "pim-event")],
    "workload.self_s": [("setup_s", "paper-fast"), ("wall_s", "paper-fast")],
}
