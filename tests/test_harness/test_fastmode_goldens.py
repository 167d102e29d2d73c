"""Golden regression tests for the fast-mode figure results.

``benchmarks/results/fastmode_<figure>.json`` pins one representative
fast-mode run per figure in ``FAST_FIGURES`` (the first RunSpec of
each figure's fast spec set at quick scale) next to the event-mode
goldens. Unlike the event-mode timing goldens, the fast path has no
timing at all, so the comparison is exact: every functional count must
match byte-for-byte.
Regenerate with ``python tools/gen_goldens.py`` when an
intentional accounting change lands — and expect the equivalence
battery (``repro check``) to demand the event machine move with it.
"""

import json
import pathlib

import pytest

from repro.harness.common import QUICK
from repro.harness.specsets import FAST_FIGURES, figure_specs
from repro.perf.specs import execute_spec

RESULTS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "results"


def _golden(figure: str) -> dict:
    path = RESULTS / f"fastmode_{figure}.json"
    if not path.exists():
        pytest.skip(f"golden file {path.name} not committed")
    return json.loads(path.read_text())


@pytest.mark.parametrize("figure", FAST_FIGURES)
def test_fast_mode_result_matches_golden(figure):
    golden = _golden(figure)
    spec = figure_specs(figure, QUICK, mode="fast")[0]
    record = execute_spec(spec)
    assert record.verified == golden["verified"]
    assert getattr(record, "answer", None) == golden["answer"]
    fresh = record.result.to_dict()
    assert fresh == golden["result"], {
        key: (golden["result"].get(key), fresh.get(key))
        for key in sorted(set(golden["result"]) | set(fresh))
        if golden["result"].get(key) != fresh.get(key)
    }
