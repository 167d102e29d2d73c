"""Public API surface tests: the documented entry points stay stable."""

import doctest

import pytest

import repro


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_headline_types_importable(self):
        from repro import (
            GSDRAM,
            DRAMModule,
            Geometry,
            Mechanism,
            System,
            SystemConfig,
            pattload,
            pattstore,
            plain_dram_config,
            table1_config,
        )

        assert GSDRAM and System  # silence linters

    def test_subpackage_all_exports_resolve(self):
        import repro.cache
        import repro.core
        import repro.db
        import repro.dram
        import repro.energy
        import repro.gemm
        import repro.graph
        import repro.harness
        import repro.kvstore
        import repro.mem
        import repro.sim
        import repro.utils
        import repro.vm

        for module in (repro.cache, repro.core, repro.db, repro.dram,
                       repro.energy, repro.gemm, repro.graph, repro.harness,
                       repro.kvstore, repro.mem, repro.sim, repro.utils,
                       repro.vm):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"


class TestReadmeQuickstart:
    """The README's quickstart snippets must keep working verbatim."""

    def test_substrate_snippet(self):
        from repro import GSDRAM

        gs = GSDRAM.configure(chips=8, shuffle_stages=3, pattern_bits=3)
        for t in range(8):
            gs.write_values(t * 64, [10 * t + f for f in range(8)])
        assert gs.read_values(3 * 64) == [30 + f for f in range(8)]
        assert gs.read_values(0, pattern=7) == [10 * t for t in range(8)]
        gs.write_values(0, list(range(8)), pattern=7)
        assert "72 gates" in gs.hardware_cost().render()

    def test_system_snippet(self):
        from repro import System, table1_config
        from repro.cpu.isa import Load

        system = System(table1_config())
        base = system.pattmalloc(512 * 64, shuffle=True, pattern=7)
        system.mem_write(base, bytes(512 * 64))
        result = system.run([[Load(base)]])
        assert "cycles" in result.render()


class TestDoctests:
    """Doctests embedded in docstrings must pass."""

    @pytest.mark.parametrize("module_name", [
        "repro.core.pattern",
        "repro.utils.bitops",
        "repro.utils.tables",
    ])
    def test_module_doctests(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        results = doctest.testmod(module, verbose=False)
        assert results.failed == 0, f"{module_name}: {results.failed} failed"
        assert results.attempted > 0  # the module really has doctests
