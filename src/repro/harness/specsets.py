"""Representative per-figure RunSpec sets, shared across tools.

One case per figure family, used by both ``repro bench`` (timing) and
the observability CLI (``repro trace`` / ``repro metrics``): the tools
agree on what "one representative fig9 run" means, and a spec simulated
for the bench can be served from the result cache when the same spec is
later profiled (and vice versa — modulo the ``obs`` flag, which is part
of the cache key precisely so observed and plain runs never alias).
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.harness.common import Scale
from repro.perf.specs import RunSpec

#: Figures with spec-based drivers (fig7 is a closed-form rendering and
#: has nothing to trace). "infer" is the ML-inference family
#: (repro.infer): not a paper figure, but the same figure-shaped
#: baseline-vs-GS comparison over GEMV / embedding / KV-cache gathers.
#: "pim" is the in-DRAM compute ablation (repro.pim): GS-DRAM gather +
#: CPU fold vs MRA+SHIFT programs executing inside the chips
#: (docs/INDRAM.md).
SPEC_FIGURES = ("fig9", "fig10", "fig11", "fig13", "infer", "pim")

#: The figures with a vectorized fast path (``mode="fast"``), where it
#: runs 2.5-19x faster than the event machine. This tuple is the one
#: place that list lives: the CLI, the bench suite, the fast-mode
#: goldens and their tests all read it. infer and pim have no fast
#: path (theirs measured 1.0-1.3x; see docs/PERFORMANCE.md), and
#: ``RunSpec`` rejects ``mode="fast"`` for those kinds.
FAST_FIGURES = ("fig9", "fig10", "fig11", "fig13")

#: Cache sizing for the inference family: the paper's interesting
#: regime has the gathered working set exceed the caches (its 64 MB
#: table vs 2 MB L2); at repro scale we shrink the caches instead so
#: the baseline's lane-walk thrashes while gathered lines stay
#: resident — the same trick the HTAP figure plays with htap_l2_size.
INFER_CACHE = {"l1_size": 1024, "l2_size": 8192}


def figure_specs(figure: str, scale: Scale,
                 mode: str = "event") -> list[RunSpec]:
    """The representative runs for ``figure`` at ``scale``.

    ``mode="fast"`` yields the vectorized twins of the same runs; only
    :data:`FAST_FIGURES` have them (for ``infer`` and ``pim`` the spec
    itself raises :class:`ConfigError`). Two figures need workload
    tweaks to stay within the fast path's deterministic envelope:
    fig10 drops the hardware prefetcher (the fast substrate has no
    timing for it to react to), and fig11 runs the phased fixed-count
    HTAP variant instead of the open-ended two-core race. Those
    parameter differences are visible in the spec (and therefore in
    the cache key), never silent.
    """
    from repro.db.workload import FIGURE9_MIXES

    if mode not in ("event", "fast"):
        raise ConfigError(
            f"unknown run mode {mode!r}; expected 'event' or 'fast'"
        )
    fast = mode == "fast"
    layouts = ("Row Store", "Column Store", "GS-DRAM")
    if figure == "fig9":
        mix = FIGURE9_MIXES[3]
        return [
            RunSpec(
                kind="transactions",
                layout=layout,
                params={
                    "mix": mix,
                    "num_tuples": scale.db_tuples,
                    "count": scale.db_transactions,
                },
                seed=42,
                mode=mode,
            )
            for layout in layouts
        ]
    if figure == "fig10":
        return [
            RunSpec(
                kind="analytics",
                layout=layout,
                params={
                    "query": (0,),
                    "num_tuples": scale.db_tuples,
                    "prefetch": not fast,
                },
                mode=mode,
            )
            for layout in layouts
        ]
    if figure == "fig11":
        params = {"num_tuples": scale.htap_tuples}
        if fast:
            params["txn_count"] = scale.db_transactions
        return [
            RunSpec(
                kind="htap",
                layout=layout,
                params=dict(params),
                config_overrides={"l2_size": scale.htap_l2_size},
                mode=mode,
            )
            for layout in ("Row Store", "GS-DRAM")
        ]
    if figure == "fig13":
        return [
            RunSpec(
                kind="gemm",
                params={"variant": variant, "n": scale.gemm_sizes[0], **extra},
                seed=3,
                mode=mode,
            )
            for variant, extra in (
                ("naive", {}),
                ("tiled", {"tile": 8}),
                ("gs", {"tile": 8}),
            )
        ]
    if figure == "infer":
        m, n, batch = scale.infer_gemv
        vocab, bags, bag_size = scale.infer_embed
        shapes = {
            "gemv": {"m": m, "n": n, "batch": batch},
            "embed": {"vocab": vocab, "bags": bags, "bag_size": bag_size},
            "kvcache": {"steps": scale.infer_kv_steps},
        }
        return [
            RunSpec(
                kind="infer",
                params={"workload": workload, "variant": variant, **shape},
                config_overrides=dict(INFER_CACHE),
                seed=11,
                mode=mode,
            )
            for workload, shape in shapes.items()
            for variant in ("baseline", "gs")
        ]
    if figure == "pim":
        # seed=1 reuses the memoized fig9/fig10 rows master, so the
        # ablation's table column is free when the DB figures already ran.
        return [
            RunSpec(
                kind="pim",
                params={
                    "workload": workload,
                    "variant": variant,
                    "num_tuples": scale.db_tuples,
                },
                seed=1,
                mode=mode,
            )
            for workload in ("sum", "filter")
            for variant in ("gs", "pim")
        ]
    raise ConfigError(
        f"unknown figure {figure!r}; expected one of {SPEC_FIGURES}"
    )


def spec_label(spec: RunSpec) -> str:
    """A short human label for one spec (trace track / log names)."""
    parts = [spec.kind]
    if spec.layout:
        parts.append(spec.layout)
    workload = spec.params.get("workload")
    if workload:
        parts.append(str(workload))
    variant = spec.params.get("variant")
    if variant:
        parts.append(str(variant))
    return ":".join(parts)
