"""Regenerate the committed figure goldens.

Usage: PYTHONPATH=src python tools/gen_goldens.py

Writes three families of files under ``benchmarks/results``:

- ``fastmode_<figure>.json``: the first RunSpec of each figure's fast
  spec set at the quick scale, executed on the vectorized engine,
  pinned as a flat result dict.
- ``eventmode_<figure>.json``: every RunSpec of each event spec set of
  fig9, fig10, fig11, fig13 and pim at the quick scale, executed on the
  timed event machine. Each record holds ``verified``, ``answer``,
  ``result.to_dict()`` and ``component_stats``, so the cycle counts,
  engine events and every component counter are pinned exactly.
  ``eventmode_fig13.json`` adds an n=32 GEMM tile sweep: naive, plus
  tiled and GS at tiles 8, 16 and 32.
- ``eventmode_sweep.json``: the six abl-6 strided-scan points
  (``run_patternscan`` at 256 lines) and the three partial-gather
  analytics runs of the shuffle-stage sweep, on the event machine.
  Scan records add ``values_digest`` and ``row_profile``.

Both machines are deterministic, so these files are byte-stable;
regenerate them only when an intentional model or accounting change
lands, and never to absorb a host-speed optimization.
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.db.workload import AnalyticsQuery
from repro.gemm.autotune import DEFAULT_TILES
from repro.harness.common import QUICK
from repro.harness.patternscan import SWEEP_STRIDES, VARIANTS, run_patternscan
from repro.harness.specsets import FAST_FIGURES, figure_specs, spec_label
from repro.perf.specs import RunSpec, execute_spec

RESULTS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "results"

#: The event spec sets pinned by ``eventmode_<figure>.json``.
EVENT_FIGURES = ("fig9", "fig10", "fig11", "fig13", "pim")

#: Matrix size of the GEMM tile sweep in ``eventmode_fig13.json``.
GEMM_SWEEP_N = 32

#: Lines per strided scan in ``eventmode_sweep.json``.
SWEEP_LINES = 256


def golden_record(figure: str) -> dict:
    spec = figure_specs(figure, QUICK, mode="fast")[0]
    record = execute_spec(spec)
    return {
        "figure": figure,
        "scale": QUICK.name,
        "spec": spec_label(spec),
        "verified": bool(record.verified),
        "answer": getattr(record, "answer", None),
        "result": record.result.to_dict(),
    }


def event_run(spec: RunSpec) -> dict:
    record = execute_spec(spec)
    return {
        "spec": spec_label(spec),
        "verified": bool(record.verified),
        "answer": getattr(record, "answer", None),
        "result": record.result.to_dict(),
        "component_stats": record.component_stats,
    }


def event_records(figure: str) -> dict:
    runs = [event_run(spec) for spec in figure_specs(figure, QUICK)]
    payload = {"figure": figure, "scale": QUICK.name, "runs": runs}
    if figure == "fig13":
        payload["tile_sweep"] = gemm_sweep_records()
    return payload


def gemm_sweep_records() -> list[dict]:
    """Event GEMM at n=32: naive, then tiled and GS at every default tile.

    The tiles give 4, 2 and 1 k-tile passes, so the partial-sum reload
    of every pass after the first is pinned too.
    """
    points = [("naive", None)] + [
        (variant, tile) for variant in ("tiled", "gs") for tile in DEFAULT_TILES
    ]
    runs = []
    for variant, tile in points:
        params = {"variant": variant, "n": GEMM_SWEEP_N}
        if tile is not None:
            params["tile"] = tile
        spec = RunSpec(kind="gemm", params=params, seed=3)
        runs.append({"n": GEMM_SWEEP_N, "tile": tile, **event_run(spec)})
    return runs


def sweep_records() -> dict:
    """The strided scans and the partial-gather analytics scans."""
    scans = []
    for stride in SWEEP_STRIDES:
        for variant in VARIANTS:
            run = run_patternscan(variant, stride, lines=SWEEP_LINES)
            scans.append({
                "variant": variant,
                "stride": stride,
                "verified": bool(run.verified),
                "answer": run.answer,
                "result": run.result.to_dict(),
                "component_stats": run.component_stats,
                "values_digest": run.values_digest,
                "row_profile": run.row_profile,
            })
    partial = []
    for stages in (1, 2, 3):
        # The specs ``sweep_shuffle_stages`` builds for its default table.
        spec = RunSpec(
            kind="analytics",
            layout=f"partial-gather-{(1 << stages) - 1}",
            params={"query": AnalyticsQuery((0,)),
                    "num_tuples": QUICK.db_tuples},
            config_overrides={"shuffle_stages": stages},
        )
        record = execute_spec(spec)
        partial.append({
            "spec": spec_label(spec),
            "verified": bool(record.verified),
            "answer": record.answer,
            "result": record.result.to_dict(),
            "component_stats": record.component_stats,
        })
    return {"lines": SWEEP_LINES, "scale": QUICK.name,
            "patternscan": scans, "partial_gather": partial}


def render(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def main() -> None:
    for figure in FAST_FIGURES:
        path = RESULTS / f"fastmode_{figure}.json"
        path.write_text(render(golden_record(figure)))
        print(f"wrote {path}")
    for figure in EVENT_FIGURES:
        path = RESULTS / f"eventmode_{figure}.json"
        path.write_text(render(event_records(figure)))
        print(f"wrote {path}")
    path = RESULTS / "eventmode_sweep.json"
    path.write_text(render(sweep_records()))
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
