"""Regenerate the committed fast-mode figure goldens.

Usage: PYTHONPATH=src python tools/gen_fastmode_goldens.py

Writes ``benchmarks/results/fastmode_<figure>.json``: the first RunSpec
of each figure's fast spec set at the quick scale, executed on the
vectorized engine, pinned as a flat result dict. The fast path is fully
deterministic (no timing), so these are byte-stable; regenerate only
when an intentional accounting change lands, alongside the matching
event-mode goldens.
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


def main() -> None:
    for figure in FAST_FIGURES:
        payload = golden_record(figure)
        path = RESULTS / f"fastmode_{figure}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
