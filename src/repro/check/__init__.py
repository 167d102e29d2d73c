"""Correctness tooling: differential oracle + property-fuzzing (PR 1).

The paper's claims rest on two invariants — column-ID shuffling is a
bijection per cache line, and CTL translation gathers exactly the
stride family of each pattern — but the timed machine layers caches,
coherence, and scheduling on top of them, so a regression anywhere can
silently corrupt results. This package provides:

- :mod:`repro.check.oracle` — a flat functional memory model that
  executes the same instruction stream as :class:`repro.sim.System`
  with no timing, caches, or shuffle machinery (ground truth);
- :mod:`repro.check.differential` — a runner that drives the system
  and the oracle side by side on a trace and diffs per-access values
  and final memory images;
- :mod:`repro.check.invariants` — reusable checkers (shuffle
  bijectivity, CTL gather-set correctness, DRAM timing-accounting
  conservation, energy sanity) callable from tests and the
  ``repro-check`` CLI;
- :mod:`repro.check.strategies` — seeded random trace generation plus
  Hypothesis strategies for property tests;
- :mod:`repro.check.fastpath` — event-vs-fast equivalence battery
  asserting the timing-free substrate (:mod:`repro.vec`) reproduces
  the event machine's functional results bit for bit.
"""

from repro.check.differential import (
    DifferentialReport,
    Mismatch,
    differential_configs,
    run_differential,
    run_trace,
)
from repro.check.fastpath import (
    FUNCTIONAL_FIELDS,
    FastPathDivergence,
    FastPathReport,
    fast_configs,
    run_fastpath,
    run_grid_equivalence,
    run_sweep_equivalence,
    run_trace_equivalence,
)
from repro.check.invariants import (
    InvariantReport,
    Violation,
    check_ctl_translation,
    check_energy_sanity,
    check_shuffle_bijectivity,
    check_timing_conservation,
    run_all_invariants,
)
from repro.check.oracle import MemoryOracle
from repro.check.strategies import RegionSpec, TraceOp, TraceSpec, random_trace

__all__ = [
    "DifferentialReport",
    "FUNCTIONAL_FIELDS",
    "FastPathDivergence",
    "FastPathReport",
    "InvariantReport",
    "MemoryOracle",
    "Mismatch",
    "RegionSpec",
    "TraceOp",
    "TraceSpec",
    "Violation",
    "check_ctl_translation",
    "check_energy_sanity",
    "check_shuffle_bijectivity",
    "check_timing_conservation",
    "differential_configs",
    "fast_configs",
    "random_trace",
    "run_all_invariants",
    "run_differential",
    "run_fastpath",
    "run_grid_equivalence",
    "run_sweep_equivalence",
    "run_trace",
    "run_trace_equivalence",
]
