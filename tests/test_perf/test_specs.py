"""RunSpec canonicalisation, cache keys, and worker-side rehydration."""

import pytest

from repro.db.engine import run_analytics
from repro.db.layouts import ColumnStore, GSDRAMStore, PartialGatherStore, RowStore
from repro.db.workload import AnalyticsQuery, TransactionMix
from repro.errors import ConfigError
from repro.perf.specs import RunSpec, cache_key, execute_spec, make_layout


class TestCacheKey:
    def test_identical_specs_share_a_key(self):
        a = RunSpec(kind="analytics", layout="GS-DRAM",
                    params={"query": (0,), "num_tuples": 512})
        b = RunSpec(kind="analytics", layout="GS-DRAM",
                    params={"query": (0,), "num_tuples": 512})
        assert cache_key(a) == cache_key(b)

    def test_param_order_does_not_matter(self):
        a = RunSpec(kind="analytics", layout="GS-DRAM",
                    params={"query": (0,), "num_tuples": 512})
        b = RunSpec(kind="analytics", layout="GS-DRAM",
                    params={"num_tuples": 512, "query": (0,)})
        assert cache_key(a) == cache_key(b)

    def test_every_field_is_significant(self):
        base = RunSpec(kind="analytics", layout="GS-DRAM",
                       params={"query": (0,), "num_tuples": 512})
        variants = [
            RunSpec(kind="analytics", layout="Row Store",
                    params={"query": (0,), "num_tuples": 512}),
            RunSpec(kind="analytics", layout="GS-DRAM",
                    params={"query": (0,), "num_tuples": 1024}),
            RunSpec(kind="analytics", layout="GS-DRAM",
                    params={"query": (0,), "num_tuples": 512}, seed=1),
            RunSpec(kind="analytics", layout="GS-DRAM",
                    params={"query": (0,), "num_tuples": 512},
                    config_overrides={"l2_size": 1}),
        ]
        keys = {cache_key(spec) for spec in variants}
        assert cache_key(base) not in keys
        assert len(keys) == len(variants)

    def test_dataclass_params_are_canonicalised(self):
        mix = TransactionMix(1, 2, 4)
        a = RunSpec(kind="transactions", layout="Row Store",
                    params={"mix": mix})
        b = RunSpec(kind="transactions", layout="Row Store",
                    params={"mix": TransactionMix(1, 2, 4)})
        assert cache_key(a) == cache_key(b)

    def test_query_dataclass_param(self):
        a = RunSpec(kind="analytics", layout="GS-DRAM",
                    params={"query": AnalyticsQuery((0, 1))})
        assert cache_key(a)  # canonicalises without raising

    def test_uncacheable_param_raises(self):
        spec = RunSpec(kind="analytics", layout="GS-DRAM",
                       params={"callback": object()})
        with pytest.raises(ConfigError):
            cache_key(spec)

    def test_mode_is_significant(self):
        event = RunSpec(kind="analytics", layout="GS-DRAM",
                        params={"query": (0,), "num_tuples": 512})
        fast = RunSpec(kind="analytics", layout="GS-DRAM",
                       params={"query": (0,), "num_tuples": 512},
                       mode="fast")
        assert cache_key(event) != cache_key(fast)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            RunSpec(kind="analytics", mode="approximate")
        # pim has no fast path; the spec says so up front instead of
        # failing later inside the driver.
        with pytest.raises(ConfigError, match="mode='event'"):
            RunSpec(kind="pim", mode="fast")
        assert RunSpec(kind="pim").mode == "event"


class TestMakeLayout:
    @pytest.mark.parametrize("cls", [RowStore, ColumnStore, GSDRAMStore])
    def test_registry_names(self, cls):
        assert isinstance(make_layout(cls.name), cls)

    def test_partial_gather(self):
        store = make_layout("partial-gather-3")
        assert store._scan_pattern == 3

    def test_unknown_layout(self):
        with pytest.raises(ConfigError):
            make_layout("Stripe Store")


class TestExecuteSpec:
    def test_unknown_kind_raises(self):
        with pytest.raises(ConfigError):
            execute_spec(RunSpec(kind="raytrace"))

    def test_unknown_gemm_variant_raises(self):
        with pytest.raises(ConfigError):
            execute_spec(RunSpec(kind="gemm",
                                 params={"variant": "strassen", "n": 16}))

    def test_analytics_rehydrates_query_tuple(self):
        record = execute_spec(
            RunSpec(kind="analytics", layout="Row Store",
                    params={"query": (0,), "num_tuples": 256})
        )
        assert record.verified

    def test_transactions_rehydrates_mix_and_seed(self):
        from repro.db.workload import FIGURE9_MIXES

        mix = FIGURE9_MIXES[0]
        spec = RunSpec(
            kind="transactions",
            layout="Row Store",
            params={"mix": mix, "num_tuples": 256, "count": 20},
            seed=42,
        )
        first = execute_spec(spec)
        second = execute_spec(spec)
        assert first.verified
        assert first == second  # seeded => bit-identical records

    def test_patternscan_dispatch(self):
        record = execute_spec(
            RunSpec(kind="patternscan",
                    params={"variant": "gathered", "stride": 4, "lines": 64},
                    mode="fast")
        )
        assert record.verified
        assert record.result.extra["fast_path"] == 1.0

    def test_fast_mode_runs_db_drivers(self):
        record = execute_spec(
            RunSpec(kind="analytics", layout="GS-DRAM",
                    params={"query": (0,), "num_tuples": 256}, mode="fast")
        )
        assert record.verified
        assert record.result.cycles == 0

    def test_fast_mode_rejected_for_open_ended_htap(self):
        # Without txn_count the HTAP committed-transaction count is
        # timing-dependent; only the phased variant has a fast path.
        with pytest.raises(ConfigError, match="no fast path"):
            execute_spec(RunSpec(kind="htap", layout="Row Store", params={},
                                 mode="fast"))

    def test_fast_mode_rejected_for_partial_gather(self):
        # Only the layouts repro.vec.db models exactly have a fast path.
        with pytest.raises(ConfigError, match="no fast path"):
            run_analytics(PartialGatherStore(3), AnalyticsQuery((0,)),
                          num_tuples=256, mode="fast")
        with pytest.raises(ConfigError, match="no fast path"):
            execute_spec(RunSpec(kind="analytics", layout="partial-gather-3",
                                 params={"query": (0,), "num_tuples": 256},
                                 mode="fast"))

    def test_fast_mode_runs_phased_htap(self):
        record = execute_spec(
            RunSpec(kind="htap", layout="Row Store",
                    params={"num_tuples": 256, "txn_count": 20}, mode="fast")
        )
        assert record.verified
        assert record.result.cycles == 0

    def test_fast_mode_runs_gemm(self):
        record = execute_spec(
            RunSpec(kind="gemm", params={"variant": "gs", "n": 16, "tile": 8},
                    mode="fast")
        )
        assert record.verified
        assert record.result.cycles == 0
