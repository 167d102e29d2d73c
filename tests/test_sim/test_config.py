"""Tests for system configuration — asserts the paper's Table 1."""

import pytest

from repro.db.engine import run_analytics
from repro.db.layouts import GSDRAMStore
from repro.db.workload import AnalyticsQuery
from repro.dram.address import Geometry
from repro.errors import ConfigError
from repro.gemm.autotune import run_gs
from repro.harness.patternscan import run_patternscan
from repro.sim.config import (
    Mechanism,
    SchedulerKind,
    SystemConfig,
    plain_dram_config,
    require_gathers_in_row,
    table1_config,
)


class TestTable1Defaults:
    """The simulated-system parameters of the paper's Table 1."""

    def test_core(self):
        config = table1_config()
        assert config.cores == 1
        assert config.cpu_ghz == 4.0

    def test_l1(self):
        config = table1_config()
        assert config.l1_size == 32 * 1024
        assert config.l1_assoc == 8

    def test_l2(self):
        config = table1_config()
        assert config.l2_size == 2 * 1024 * 1024
        assert config.l2_assoc == 8

    def test_memory(self):
        config = table1_config()
        assert config.geometry.chips == 8          # 64-bit rank of x8 chips
        assert config.geometry.banks == 8
        assert config.scheduler is SchedulerKind.FR_FCFS
        assert config.cpu_per_bus == 5             # DDR3-1600 at 4 GHz

    def test_gs_dram_833(self):
        config = table1_config()
        assert config.mechanism is Mechanism.GS_DRAM
        assert config.shuffle_stages == 3
        assert config.pattern_bits == 3
        assert config.shuffle_latency == 3

    def test_line_size(self):
        assert table1_config().geometry.line_bytes == 64


class TestNewKnobs:
    def test_defaults_match_table1(self):
        config = table1_config()
        assert config.channels == 1
        assert config.open_row_policy is True
        assert config.store_buffer == 0
        assert config.auto_pattern is False

    def test_channels_validated(self):
        with pytest.raises(ConfigError):
            SystemConfig(channels=0)

    def test_impulse_config(self):
        from repro.sim.config import impulse_config

        config = impulse_config()
        assert config.mechanism is Mechanism.IMPULSE


class TestVariants:
    def test_plain_config(self):
        config = plain_dram_config()
        assert config.mechanism is Mechanism.PLAIN_DRAM
        assert not config.is_gs

    def test_with_overrides(self):
        config = table1_config(cores=2, prefetch=True)
        assert config.cores == 2
        assert config.prefetch

    def test_with_method(self):
        config = SystemConfig().with_(l2_size=1024 * 1024)
        assert config.l2_size == 1024 * 1024
        assert SystemConfig().l2_size == 2 * 1024 * 1024  # original untouched

    def test_validation(self):
        with pytest.raises(ConfigError):
            SystemConfig(cores=0)


NARROW = {"geometry": Geometry(columns_per_row=4)}

#: The three gathering drivers, each as (config overrides, mode) -> run.
GATHER_DRIVERS = {
    "analytics": lambda overrides, mode: run_analytics(
        GSDRAMStore(), AnalyticsQuery((0,)), num_tuples=256,
        config_overrides=overrides, mode=mode,
    ),
    "patternscan": lambda overrides, mode: run_patternscan(
        "gathered", 8, lines=64, mode=mode, config_overrides=overrides,
    ),
    "gemm": lambda overrides, mode: run_gs(
        16, tile=8, mode=mode, overrides=overrides,
    ),
}


class TestGatherLegality:
    """A gathering run refuses a config its gathers cannot hold on, by
    name, before anything is simulated."""

    @pytest.mark.parametrize("mode", ["event", "fast"])
    @pytest.mark.parametrize("driver", sorted(GATHER_DRIVERS))
    def test_narrow_rows_are_a_config_error(self, driver, mode):
        # 4 columns hold 2 column bits; the 3-bit CTL would rewrite a
        # bank bit too.
        with pytest.raises(ConfigError, match="columns_per_row"):
            GATHER_DRIVERS[driver](NARROW, mode)

    def test_predicate_reads_pattern_bits(self):
        narrow = table1_config(pattern_bits=2, **NARROW)
        assert require_gathers_in_row(narrow, "test") is narrow
        with pytest.raises(ConfigError, match="pattern_bits=3"):
            require_gathers_in_row(table1_config(**NARROW), "test")
