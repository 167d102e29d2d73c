"""Shared harness plumbing: scale presets and mechanism constants.

The paper's evaluation runs at gem5 scale (1M-tuple tables, n=1024
matrices). A pure-Python cycle-level simulator reproduces the *shapes*
at reduced scale; every experiment driver takes a :class:`Scale`
selecting how big to run. The ``REPRO_SCALE`` environment variable
(quick / default / full / paper) picks the preset for the benchmark
suite, and the scaling ablation (abl-3) demonstrates that the headline
ratios are stable across presets.

The ``paper`` preset is the paper's actual evaluation sizes (1M-tuple
tables, 10K transactions, GEMM up to n=1024). It is a fast-mode
preset: the vectorized engines of :mod:`repro.vec` run it in seconds,
while the event-driven machine would need hours — ``repro figures
fig9 --scale paper --mode fast`` is the intended invocation (see
docs/PERFORMANCE.md).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.errors import ConfigError

#: Mechanism display names, in the paper's plotting order.
MECHANISMS = ("Row Store", "Column Store", "GS-DRAM")


@dataclass(frozen=True)
class Scale:
    """Workload sizes for one experiment sweep."""

    name: str
    #: Tuples in the DB table (paper: 1,000,000).
    db_tuples: int
    #: Transactions per Figure 9 run (paper: 10,000).
    db_transactions: int
    #: Tuples for the HTAP experiment.
    htap_tuples: int
    #: L2 size override for HTAP so table:L2 stays paper-like
    #: (the paper's 64 MB table dwarfs its 2 MB L2).
    htap_l2_size: int
    #: Matrix sizes for Figure 13 (paper: 32..1024).
    gemm_sizes: tuple[int, ...]


QUICK = Scale(
    name="quick",
    db_tuples=4096,
    db_transactions=200,
    htap_tuples=8192,
    htap_l2_size=64 * 1024,
    gemm_sizes=(16, 32),
)

DEFAULT = Scale(
    name="default",
    db_tuples=16384,
    db_transactions=600,
    htap_tuples=16384,
    htap_l2_size=128 * 1024,
    gemm_sizes=(16, 32, 64),
)

FULL = Scale(
    name="full",
    db_tuples=65536,
    db_transactions=2000,
    htap_tuples=32768,
    htap_l2_size=256 * 1024,
    gemm_sizes=(16, 32, 64, 96),
)

#: The paper's own evaluation sizes (Section 5). DB: 1M tuples x 64 B
#: = 64 MB table (fits the default 256 MB geometry), 10K transactions.
#: HTAP: 1M-tuple table against the paper's 2 MB L2 (32:1, as in the
#: paper). GEMM: up to n=1024; figure_specs and the bench run the
#: first (feasible) size, the full sweep is an explicit long run.
#: Fast-mode only in practice — event-mode wall-clock at this scale is
#: hours per figure.
PAPER = Scale(
    name="paper",
    db_tuples=1_000_000,
    db_transactions=10_000,
    htap_tuples=1_048_576,
    htap_l2_size=2 * 1024 * 1024,
    gemm_sizes=(128, 256, 512, 1024),
)

_PRESETS = {scale.name: scale for scale in (QUICK, DEFAULT, FULL, PAPER)}


def scale_names() -> tuple[str, ...]:
    """Valid preset names, in size order (CLI ``--scale`` choices)."""
    return tuple(_PRESETS)


def get_scale(name: str) -> Scale:
    """The preset called ``name``, or a :class:`ConfigError` naming the
    valid presets (never a bare KeyError)."""
    try:
        return _PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown scale {name!r}; expected one of "
            f"{', '.join(_PRESETS)}",
            valid_presets=sorted(_PRESETS),
        ) from None


def scale_by_name(name: str) -> Scale:
    """The preset called ``name`` (quick / default / full / paper)."""
    return get_scale(name)


def current_scale() -> Scale:
    """Scale selected by ``REPRO_SCALE`` (default: "default")."""
    return get_scale(os.environ.get("REPRO_SCALE", "default").lower())
