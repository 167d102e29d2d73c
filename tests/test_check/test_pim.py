"""Tests for the ``repro check pim`` battery."""

from repro.check.pim import CHECK_TUPLES, PIMReport, run_pim_check
from repro.check.fastpath import FastPathDivergence


class TestRunPimCheck:
    def test_battery_passes(self):
        report = run_pim_check()
        assert report.ok, report.render()
        # Primitive trials + four quadrants, all compared.
        assert report.runs > 20
        assert report.values_compared > 30

    def test_check_shape_is_multi_level(self):
        # The tuple count must force several tree-reduction levels and
        # a multi-byte match mask, or the battery under-exercises ops.
        assert CHECK_TUPLES >= 64


class TestReportRendering:
    def test_ok_headline(self):
        report = PIMReport()
        report.runs = 3
        assert "OK" in report.render()
        assert report.render().startswith("pim:")

    def test_divergences_are_listed(self):
        report = PIMReport()
        report.divergences.append(
            FastPathDivergence("pim sum/pim", "answer: event=1 fast=2")
        )
        rendered = report.render()
        assert "1 DIVERGENCES" in rendered
        assert "answer: event=1 fast=2" in rendered
        assert not report.ok


class TestCLIWiring:
    def test_stage_registered(self):
        from repro.check.cli import STAGES

        assert "pim" in STAGES

    def test_list_stages_flag(self, capsys):
        from repro.check.cli import main

        assert main(["--list-stages"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "pim" in out
        assert "invariants" in out

    def test_skip_flag_exists(self):
        from repro.check.cli import build_parser

        args = build_parser().parse_args(["--skip-pim"])
        assert args.skip_pim
