"""Regenerate the committed figure goldens.

Usage: PYTHONPATH=src python tools/gen_goldens.py

Writes two families of files under ``benchmarks/results``:

- ``fastmode_<figure>.json``: the first RunSpec of each figure's fast
  spec set at the quick scale, executed on the vectorized engine,
  pinned as a flat result dict.
- ``eventmode_<figure>.json``: every RunSpec of each event spec set of
  fig9, fig10, fig11 and pim at the quick scale, executed on the timed
  event machine. Each record holds ``verified``, ``answer``,
  ``result.to_dict()`` and ``component_stats``, so the cycle counts,
  engine events and every component counter are pinned exactly.

Both machines are deterministic, so these files are byte-stable;
regenerate them only when an intentional model or accounting change
lands, and never to absorb a host-speed optimization.
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.harness.common import QUICK
from repro.harness.specsets import FAST_FIGURES, figure_specs, spec_label
from repro.perf.specs import execute_spec

RESULTS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "results"

#: The event spec sets pinned by ``eventmode_<figure>.json``.
EVENT_FIGURES = ("fig9", "fig10", "fig11", "pim")


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


def event_records(figure: str) -> dict:
    runs = []
    for spec in figure_specs(figure, QUICK):
        record = execute_spec(spec)
        runs.append({
            "spec": spec_label(spec),
            "verified": bool(record.verified),
            "answer": getattr(record, "answer", None),
            "result": record.result.to_dict(),
            "component_stats": record.component_stats,
        })
    return {"figure": figure, "scale": QUICK.name, "runs": runs}


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


if __name__ == "__main__":
    main()
