"""Performance subsystem: parallel experiment runner, result cache, bench.

The figure harnesses sweep mechanism x scale grids of *independent*
simulations; :mod:`repro.perf.pool` fans those runs across a process
pool with deterministic result ordering, and :mod:`repro.perf.cache`
memoises each run on disk keyed by the full configuration plus the
code version, so harness reruns and CI skip already-simulated points.
:mod:`repro.perf.bench` times the tier-1 workloads and tracks the
wall-clock trajectory in ``BENCH_<date>.json`` baselines.
"""

from repro.perf.cache import ResultCache, code_version, default_cache
from repro.perf.pool import resolve_jobs, run_specs
from repro.perf.specs import RunSpec, cache_key, execute_spec, make_layout

__all__ = [
    "ResultCache",
    "RunSpec",
    "cache_key",
    "code_version",
    "default_cache",
    "execute_spec",
    "make_layout",
    "resolve_jobs",
    "run_specs",
]
