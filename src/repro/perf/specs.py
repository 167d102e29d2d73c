"""Declarative, picklable descriptions of single simulation runs.

The figure harnesses drive their workloads through generator closures,
which cannot cross a process boundary. A :class:`RunSpec` is the
process-safe alternative: a flat description (kind + layout + params +
config overrides + seed) that a worker rehydrates with
:func:`execute_spec` into the exact same driver call the serial
harness would have made. The same canonical form doubles as the cache
key (:func:`cache_key`), so pooled and cached execution agree on what
"the same run" means.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigError


@dataclass
class RunSpec:
    """One independent simulation run, by value.

    ``kind`` selects the driver (``transactions`` / ``analytics`` /
    ``htap`` / ``gemm`` / ``patternscan`` / ``pim``), ``layout`` names
    a storage layout from :func:`make_layout`, ``params`` are the
    driver's keyword arguments, and ``seed`` pins the workload
    generator.

    ``obs`` selects observability (see :mod:`repro.obs`): ``"off"``
    (default), ``"metrics"`` (registry snapshot, near-zero cost),
    ``"trace"`` (snapshot + structured event trace), or
    ``"trace-detail"`` (additionally one instant per engine event).
    Because ``obs`` is part of the canonical form, it is part of the
    cache key: a traced request is never served from an untraced cache
    entry, and vice versa.

    ``mode`` selects the execution substrate: ``"event"`` (default, the
    full timed machine) or ``"fast"`` (the timing-free fast path of
    :mod:`repro.vec` — identical functional counts, zero cycles; see
    docs/PERFORMANCE.md). Like ``obs`` it is part of the cache key, so
    fast and event results never collide in the result cache. The
    ``pim`` kind has no fast path and runs only in event mode.
    """

    kind: str
    layout: str | None = None
    params: dict = field(default_factory=dict)
    config_overrides: dict = field(default_factory=dict)
    seed: int | None = None
    obs: str = "off"
    mode: str = "event"

    def __post_init__(self) -> None:
        if self.obs not in ("off", "metrics", "trace", "trace-detail"):
            raise ConfigError(
                f"unknown obs mode {self.obs!r}; expected 'off', "
                "'metrics', 'trace', or 'trace-detail'"
            )
        if self.mode not in ("event", "fast"):
            raise ConfigError(
                f"unknown run mode {self.mode!r}; expected 'event' or 'fast'"
            )
        if self.mode == "fast" and self.kind == "pim":
            raise ConfigError(
                f"kind {self.kind!r} has no fast path; use mode='event'"
            )


def _canonical(value: Any) -> Any:
    """A JSON-able, deterministic form of ``value`` for hashing."""
    if isinstance(value, enum.Enum):
        return [type(value).__name__, value.value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return [type(value).__name__, _canonical(dataclasses.asdict(value))]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, bytes):
        return value.hex()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ConfigError(f"cannot canonicalise {type(value).__name__} for caching")


def cache_key(spec: RunSpec) -> str:
    """A stable string identifying ``spec`` (code version is added by
    the cache layer)."""
    return json.dumps(_canonical(dataclasses.asdict(spec)), sort_keys=True)


def make_layout(name: str):
    """Instantiate a storage layout by registry name.

    ``partial-gather-<p>`` builds the reduced-stride GS store used by
    the shuffle-stage sweep.
    """
    from repro.db.layouts import (
        ColumnStore,
        GSDRAMStore,
        PartialGatherStore,
        RowStore,
    )

    registry = {
        RowStore.name: RowStore,
        ColumnStore.name: ColumnStore,
        GSDRAMStore.name: GSDRAMStore,
    }
    if name in registry:
        return registry[name]()
    if name.startswith("partial-gather-"):
        return PartialGatherStore(int(name.rsplit("-", 1)[1]))
    raise ConfigError(f"unknown layout {name!r}")


def execute_spec(spec: RunSpec) -> Any:
    """Run one spec to completion; returns the driver's run record.

    This is the function process-pool workers call, so everything it
    touches must be importable from a bare interpreter and everything
    it returns must pickle. Observed specs (``obs != "off"``) run under
    an observability session and return an :class:`~repro.obs.ObsRun`
    envelope (record + metrics snapshot + optional trace events), which
    pickles across both the pool and the result cache.
    """
    if spec.obs != "off":
        import os

        from repro.obs.session import ObsRun, observe

        trace = spec.obs in ("trace", "trace-detail")
        # REPRO_TRACE_LIMIT reaches pool workers through the inherited
        # environment; a spec field would needlessly split cache keys.
        limit = int(os.environ.get("REPRO_TRACE_LIMIT", "1000000"))
        with observe(
            trace=trace,
            max_trace_events=limit,
            detail=spec.obs == "trace-detail",
        ) as session:
            record = _execute_driver(spec)
        tracer = session.tracer
        return ObsRun(
            record=record,
            metrics=session.snapshot(),
            trace_events=list(tracer.events) if tracer is not None else None,
            dropped_events=tracer.dropped if tracer is not None else 0,
        )
    return _execute_driver(spec)


def _execute_driver(spec: RunSpec) -> Any:
    """Dispatch to the figure driver named by ``spec.kind``."""
    from repro.db.engine import run_analytics, run_htap, run_transactions
    from repro.db.workload import AnalyticsQuery, TransactionMix

    params = dict(spec.params)
    if spec.kind == "transactions":
        mix = params.pop("mix")
        if not isinstance(mix, TransactionMix):
            mix = TransactionMix(*mix)
        if spec.seed is not None:
            params.setdefault("seed", spec.seed)
        return run_transactions(
            make_layout(spec.layout),
            mix,
            config_overrides=dict(spec.config_overrides),
            mode=spec.mode,
            **params,
        )
    if spec.kind == "analytics":
        query = params.pop("query")
        if not isinstance(query, AnalyticsQuery):
            query = AnalyticsQuery(tuple(query))
        return run_analytics(
            make_layout(spec.layout),
            query,
            config_overrides=dict(spec.config_overrides),
            mode=spec.mode,
            **params,
        )
    if spec.kind == "patternscan":
        from repro.harness.patternscan import run_patternscan

        return run_patternscan(
            params.pop("variant"),
            params.pop("stride"),
            config_overrides=dict(spec.config_overrides),
            mode=spec.mode,
            **params,
        )
    if spec.kind == "htap":
        # mode="fast" requires params["txn_count"] (the phased variant);
        # run_htap raises ConfigError for the open-ended fast combination.
        return run_htap(
            make_layout(spec.layout),
            config_overrides=dict(spec.config_overrides),
            mode=spec.mode,
            **params,
        )
    if spec.kind == "pim":
        from repro.pim.driver import run_pim

        workload = params.pop("workload")
        variant = params.pop("variant")
        overrides = dict(spec.config_overrides) or None
        if spec.seed is not None:
            params.setdefault("seed", spec.seed)
        return run_pim(
            workload,
            variant,
            config_overrides=overrides,
            **params,
        )
    if spec.kind == "gemm":
        from repro.gemm.autotune import run_gs, run_naive, run_tiled

        variant = params.pop("variant")
        overrides = dict(spec.config_overrides) or None
        if spec.seed is not None:
            params.setdefault("seed", spec.seed)
        if variant == "naive":
            return run_naive(overrides=overrides, mode=spec.mode, **params)
        if variant == "tiled":
            return run_tiled(overrides=overrides, mode=spec.mode, **params)
        if variant == "gs":
            return run_gs(overrides=overrides, mode=spec.mode, **params)
        raise ConfigError(f"unknown gemm variant {variant!r}")
    raise ConfigError(f"unknown run kind {spec.kind!r}")
