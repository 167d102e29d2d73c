"""Exact golden regression tests for the event-mode figure runs.

``benchmarks/results/eventmode_<figure>.json`` pins every event RunSpec
of fig9, fig10, fig11, fig13 and pim at quick scale: the answer, the
verification flag, ``result.to_dict()`` (cycles and engine events
included) and the per-component counter dicts; ``eventmode_fig13.json``
adds an n=32 GEMM tile sweep (naive, tiled and GS at tiles 8, 16 and
32). The timed machine is
deterministic, so the comparison is exact, text for text: a host-speed
change to the cache hierarchy, controller or core must leave these
files byte-identical. ``eventmode_sweep.json`` pins the abl-6 strided
scans (with their value digests and row profiles) and the partial-gather
analytics scans of the shuffle-stage sweep the same way. Regenerate with
``python tools/gen_goldens.py`` only when an intentional model change
lands.
"""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
RESULTS = ROOT / "benchmarks" / "results"


def _tool():
    spec = importlib.util.spec_from_file_location(
        "gen_goldens", ROOT / "tools" / "gen_goldens.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gen_goldens = _tool()


def _assert_matches(path, payload):
    fresh = gen_goldens.render(payload)
    golden = path.read_text()
    assert fresh == golden, "\n".join(
        f"{old!r} -> {new!r}"
        for old, new in zip(golden.splitlines(), fresh.splitlines())
        if old != new
    )


@pytest.mark.parametrize("figure", gen_goldens.EVENT_FIGURES)
def test_event_mode_runs_match_golden(figure):
    _assert_matches(RESULTS / f"eventmode_{figure}.json",
                    gen_goldens.event_records(figure))


def test_event_mode_sweep_matches_golden():
    _assert_matches(RESULTS / "eventmode_sweep.json",
                    gen_goldens.sweep_records())
