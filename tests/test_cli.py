"""Tests for the python -m repro command-line interface."""

import pathlib

import pytest

import repro
from repro.__main__ import main
from repro.perf.cache import code_version


class TestCLI:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["bogus"])

    def test_report_regenerates(self, tmp_path, monkeypatch):
        main(["report"])
        output = pathlib.Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"
        assert output.exists()
        text = output.read_text()
        assert "paper vs measured" in text
        assert "Figure 9" in text

    def test_figures_scale_validation(self):
        with pytest.raises(SystemExit):
            main(["figures", "--scale", "gigantic"])

    @pytest.mark.parametrize("argv", [["bench", "--cluster", "2"],
                                      ["serve", "--cluster", "2"],
                                      ["check", "cluster"],
                                      ["submit", "--figure", "fig9"],
                                      ["jobs"],
                                      ["check", "service"],
                                      ["check", "--skip-service"],
                                      ["check", "inference"],
                                      ["check", "--skip-inference"],
                                      ["trace", "infer"],
                                      ["metrics", "infer"]])
    def test_cluster_surface_is_gone(self, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("flag", ["--version", "-V"])
    def test_version_prints_code_hash(self, flag, capsys):
        assert main([flag]) == 0
        expected = f"repro {repro.__version__} (code {code_version()[:16]})"
        assert capsys.readouterr().out == expected + "\n"


class TestCheckCommand:
    def test_clean_sweep_exits_zero(self, capsys):
        code = main(["check", "--skip-invariants", "--traces", "2"])
        captured = capsys.readouterr()
        assert code == 0
        assert "all checks passed" in captured.out

    def test_violations_exit_nonzero(self, capsys, monkeypatch):
        from repro.core.ctl import ColumnTranslationLogic

        original = ColumnTranslationLogic.translate

        def corrupted(self, column, pattern, is_column_command=True):
            result = original(self, column, pattern, is_column_command)
            return result ^ 1 if (is_column_command and pattern) else result

        monkeypatch.setattr(ColumnTranslationLogic, "translate", corrupted)
        code = main(["check", "--skip-invariants", "--traces", "4"])
        captured = capsys.readouterr()
        assert code == 1
        assert "FAILED" in captured.out

    def test_check_rejects_unknown_flag(self):
        with pytest.raises(SystemExit):
            main(["check", "--bogus"])

    def test_console_script_entry_point(self, capsys):
        from repro.check.cli import main as check_main

        assert check_main(["--skip-differential", "--skip-invariants"]) == 0
