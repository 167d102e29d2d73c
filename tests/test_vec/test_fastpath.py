"""The fast path's compatibility gate and its random-trace battery."""

import pytest

from repro.check.fastpath import fast_configs, run_trace_equivalence
from repro.errors import ConfigError
from repro.sim.config import Mechanism, impulse_config, table1_config
from repro.vec.hier import DirtyReplay, assert_fast_compatible, fast_supported


class TestCompatibilityGate:
    def test_table1_is_supported(self):
        config = table1_config()
        assert_fast_compatible(config)
        assert fast_supported(config)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"cores": 2},
            {"channels": 2},
            {"prefetch": True},
            {"store_buffer": 4},
            {"refresh": True},
            {"open_row_policy": False},
            {"auto_pattern": True},
        ],
    )
    def test_unsupported_features_rejected(self, overrides):
        config = table1_config(**overrides)
        assert not fast_supported(config)
        with pytest.raises(ConfigError):
            assert_fast_compatible(config)

    def test_impulse_rejected(self):
        config = impulse_config()
        assert config.mechanism is Mechanism.IMPULSE
        assert not fast_supported(config)

    def test_constructor_enforces_gate(self):
        with pytest.raises(ConfigError):
            DirtyReplay(table1_config(cores=2))

    def test_gate_reports_every_problem(self):
        with pytest.raises(ConfigError) as info:
            assert_fast_compatible(table1_config(cores=2, prefetch=True))
        assert "cores" in str(info.value)
        assert "prefetch" in str(info.value)


class TestEventEquivalence:
    def test_random_trace_battery_small(self):
        configs = fast_configs()
        assert len(configs) >= 3
        report = run_trace_equivalence(
            traces_per_config=1, seed=1234, max_ops=24, configs=configs[:2]
        )
        assert report.ok, report.render()
        assert report.runs == 2
