"""Numpy-vectorized batch kernels and the fast-path replay model.

The GS-DRAM mechanisms are tiny bitwise functions — the shuffle is an
XOR butterfly, the column translation logic an AND + XOR — but the
figure sweeps evaluate them per access in pure Python. This package
batches that math over whole ``numpy`` int64 arrays:

- :mod:`repro.vec.kernels` — array variants of the CTL translation
  and gather-address assembly, plus
  :func:`~repro.vec.kernels.loaded_addresses`, which maps an access
  stream to the addresses of the values it reads. The scalar functions
  in :mod:`repro.core.ctl` and :mod:`repro.check.oracle` remain the
  reference implementations; DRAM addresses are split and joined by
  :class:`repro.dram.address.AddressMapping`, whose one bit arithmetic
  takes ints and arrays alike.
- :mod:`repro.vec.hier` — :class:`DirtyReplay`, the fast path's one
  model of the caches, the DBI and the controller: a metadata-only
  replay of their accounting over prepared address arrays (no
  simulated machine, no byte movement, pattern ID in the tag per
  Section 4.1), plus the :func:`assert_fast_compatible` gate.
- :mod:`repro.vec.db` / :mod:`repro.vec.gemm` — the fast paths of
  the DB query engines (:mod:`repro.db.engine`) and the GEMM kernels
  (:mod:`repro.gemm.autotune`), dispatched via ``mode="fast"`` on the
  drivers and stat-identical to the event machine. Neither builds a
  stream of its own: ``vec.db`` replays the layouts' access streams
  and ``vec.gemm`` the kernels' (:mod:`repro.cpu.stream`); the fig7
  sweep (:mod:`repro.harness.patternscan`) replays its scan stream
  through :class:`DirtyReplay` directly.
- :mod:`repro.vec.shim` — observability stand-ins so fast runs appear
  in :mod:`repro.obs` sessions with the same stat names as real
  machines, and the event-side component snapshot the equivalence
  battery compares against.

Equivalence with the event-driven model is enforced by
:mod:`repro.check.fastpath` (see docs/PERFORMANCE.md).
"""

from repro.vec.hier import (
    DirtyReplay,
    RowProfile,
    assert_fast_compatible,
    fast_supported,
)
from repro.vec.kernels import (
    ctl_translate,
    effective_chip_ids,
    gather_addresses_batch,
    loaded_addresses,
)

__all__ = [
    "DirtyReplay",
    "RowProfile",
    "assert_fast_compatible",
    "ctl_translate",
    "effective_chip_ids",
    "fast_supported",
    "gather_addresses_batch",
    "loaded_addresses",
]
