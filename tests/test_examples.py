"""Compile-level checks for the example scripts.

Full example executions live outside the unit suite: CI runs every
example as its own step (each takes a few seconds at most, and checks
its own results). Here we guarantee each example at least parses, has
a main(), and documents itself.
"""

import ast
import pathlib

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[1] / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


class TestExamples:
    def test_expected_set_present(self):
        names = {path.stem for path in EXAMPLES}
        assert {"quickstart", "database_htap", "gemm_simd", "kvstore_scan",
                "graph_analytics", "extensions_tour"} <= names

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
    def test_parses_and_has_main(self, path):
        tree = ast.parse(path.read_text())
        assert ast.get_docstring(tree), f"{path.stem} lacks a module docstring"
        functions = {node.name for node in ast.walk(tree)
                     if isinstance(node, ast.FunctionDef)}
        assert "main" in functions

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
    def test_guarded_entry_point(self, path):
        assert 'if __name__ == "__main__":' in path.read_text()

    def test_quickstart_executes(self):
        """The quickstart is fast enough to run in the unit suite."""
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "quickstart_example", EXAMPLES_DIR / "quickstart.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.main()
