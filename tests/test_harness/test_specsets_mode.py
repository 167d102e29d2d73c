"""Mode handling in the per-figure spec sets (satellite of phase 2).

Every fast-capable figure's fast spec set must (a) execute end-to-end
on the vectorized engine with verified results and (b) key the result
cache separately from its event twin. The other families must refuse
fast mode.
"""

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.harness.common import Scale
from repro.harness.specsets import FAST_FIGURES, SPEC_FIGURES, figure_specs
from repro.perf.specs import cache_key, execute_spec

#: Small enough that even the event twins stay sub-second.
TINY = Scale(
    name="tiny",
    db_tuples=256,
    db_transactions=20,
    htap_tuples=256,
    htap_l2_size=16 * 1024,
    gemm_sizes=(16,),
)


def all_fast_specs():
    return [
        (figure, spec)
        for figure in FAST_FIGURES
        for spec in figure_specs(figure, TINY, mode="fast")
    ]


class TestFastSpecSets:
    @pytest.mark.parametrize(
        "figure,spec", all_fast_specs(),
        ids=lambda value: value if isinstance(value, str) else "",
    )
    def test_fast_spec_round_trips(self, figure, spec):
        assert spec.mode == "fast"
        record = execute_spec(spec)
        assert record.verified
        assert record.result.cycles == 0
        assert record.result.extra.get("fast_path") == 1.0

    @pytest.mark.parametrize(
        "figure,spec", all_fast_specs(),
        ids=lambda value: value if isinstance(value, str) else "",
    )
    def test_fast_key_distinct_from_event_twin(self, figure, spec):
        event_twin = dataclasses.replace(spec, mode="event")
        assert cache_key(spec) != cache_key(event_twin)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            figure_specs("fig9", TINY, mode="approximate")
        for figure in [f for f in SPEC_FIGURES if f not in FAST_FIGURES]:
            with pytest.raises(ConfigError, match="mode='event'"):
                figure_specs(figure, TINY, mode="fast")

    def test_event_sets_are_unchanged_by_the_mode_parameter(self):
        # mode="event" must produce byte-identical cache keys to the
        # pre-mode-parameter spec sets (no silent cache invalidation).
        for figure in SPEC_FIGURES:
            default = figure_specs(figure, TINY)
            explicit = figure_specs(figure, TINY, mode="event")
            assert [cache_key(s) for s in default] == [
                cache_key(s) for s in explicit
            ]
