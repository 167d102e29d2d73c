"""Tests for the PIM ablation figure (repro.harness.pim)."""

import pytest

from repro.harness.common import QUICK
from repro.harness.pim import run_pim_ablation
from repro.harness.specsets import SPEC_FIGURES, figure_specs, spec_label

# The headline assertions need the quick scale's 4096-tuple table: the
# PIM programs have a fixed per-chunk cost (comparator MRAs, per-slice
# readback) that only amortises once the gather's traffic dominates.


class TestSpecs:
    def test_family_registered(self):
        assert "pim" in SPEC_FIGURES

    def test_four_quadrants(self):
        specs = figure_specs("pim", QUICK)
        assert len(specs) == 4
        assert {
            (s.params["workload"], s.params["variant"]) for s in specs
        } == {("sum", "gs"), ("sum", "pim"), ("filter", "gs"),
              ("filter", "pim")}
        assert all(s.kind == "pim" for s in specs)
        assert all(s.params["num_tuples"] == QUICK.db_tuples for s in specs)

    def test_labels_name_the_quadrant(self):
        labels = {spec_label(s) for s in figure_specs("pim", QUICK)}
        assert "pim:sum:gs" in labels
        assert "pim:filter:pim" in labels


class TestFigure:
    @pytest.fixture(scope="class")
    def event_outputs(self):
        return run_pim_ablation(QUICK)

    def test_figure_shape(self, event_outputs):
        figure, _ = event_outputs
        assert figure.xs == ["sum", "filter"]
        assert len(figure.series) == 2
        assert all(len(values) == 2 for values in figure.series.values())

    def test_gs_side_is_the_baseline(self, event_outputs):
        figure, _ = event_outputs
        assert figure.series["GS-DRAM gather + CPU"] == [1.0, 1.0]

    def test_summary_headlines(self, event_outputs):
        _, summary = event_outputs
        assert "filter: PIM gain over GS gather" in summary.ratios
        assert "sum: PIM DRAM traffic reduction" in summary.ratios
        assert "filter: PIM energy reduction" in summary.ratios

    def test_filter_wins_and_traffic_shrinks(self, event_outputs):
        _, summary = event_outputs
        assert summary.ratios["filter: PIM gain over GS gather"] > 1.0
        assert summary.ratios["filter: PIM energy reduction"] > 1.0
        assert summary.ratios["sum: PIM DRAM traffic reduction"] > 1.0
        assert summary.ratios["filter: PIM DRAM traffic reduction"] > 1.0
