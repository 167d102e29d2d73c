"""The fast path's compatibility gate, its batch checks, hand-built
traces and its random-trace battery."""

import pytest

from repro.check.fastpath import fast_configs, run_trace_equivalence, run_trace_pair
from repro.check.strategies import RegionSpec, TraceOp, TraceSpec
from repro.dram.address import MappingPolicy
from repro.errors import ConfigError, ProtocolError
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

    def test_random_trace_battery_bank_interleaved(self):
        # DirtyReplay reads its bank, row and column shifts off the
        # mapping; one trace under this config can miss a wrong shift.
        config = fast_configs()[4]
        assert config.mapping_policy is MappingPolicy.BANK_INTERLEAVED
        report = run_trace_equivalence(
            traces_per_config=2, seed=1234, max_ops=24, configs=[config]
        )
        assert report.ok, report.render()
        assert report.runs == 2


class TestBatchValidation:
    """A batch the event controller or the line key cannot take raises
    before anything is counted."""

    @pytest.mark.parametrize(
        "line_address, pattern",
        [(0, -1), (0, 64), (8, 0)],
        ids=["negative-pattern", "pattern-past-line", "unaligned"],
    )
    def test_rejected(self, line_address, pattern):
        replay = DirtyReplay(table1_config())
        with pytest.raises(ProtocolError):
            replay.run([0, line_address], [0, pattern], [0, 0],
                       [False, False], [False, False])
        assert not any(replay.counts.values())

    def test_ragged_batch_rejected(self):
        replay = DirtyReplay(table1_config())
        with pytest.raises(ValueError):
            replay.run([0, 64], [0, 0], [0, 0], [True], [False, False])
        assert not any(replay.counts.values())

    def test_largest_pattern_accepted(self):
        replay = DirtyReplay(table1_config())
        replay.run([64], [63], [63], [True], [True])
        assert replay.counts["requests_patterned"] == 1


def _trace(alt: int, steps, lines: int = 8) -> TraceSpec:
    """One shuffled region; ``steps`` are (kind, line, pattern)."""
    ops = tuple(
        TraceOp(kind=kind, line=line, pattern=pattern,
                payload=bytes(range(8)) if kind == "store" else None)
        for kind, line, pattern in steps
    )
    region = RegionSpec(lines=lines, shuffled=True, alt_pattern=alt)
    return TraceSpec(seed=0, cores=1, regions=(region,), ops=ops)


def _assert_matches_event_machine(trace: TraceSpec) -> None:
    report = run_trace_pair(fast_configs()[0], trace)
    assert report.ok, report.render()


class TestHandBuiltTraces:
    """Hand-built traces that the replay must count exactly as the
    event machine does, on the 1 KB 2-way L1 of ``fast_configs()[0]``.
    Line 1 holds part of the data that pattern 3 gathers at line 0."""

    @pytest.mark.parametrize("alt, pattern", [(0, 3), (7, 3), (7, 7), (3, 3)])
    def test_store_refetch_store(self, alt, pattern):
        # A dirty pattern-`pattern` line, a pattern-0 fetch of a line
        # it overlaps, then a repeated access and a second store to the
        # dirty line: the store must evict the pattern-0 line again
        # unless the fetch already flushed the dirty line.
        steps = [("store", 0, pattern), ("load", 1, 0), ("load", 0, pattern),
                 ("store", 0, pattern), ("load", 1, 0)]
        _assert_matches_event_machine(_trace(alt, steps))

    @pytest.mark.parametrize("first", ["load", "store"])
    @pytest.mark.parametrize("alt, pattern", [(0, 0), (7, 0), (7, 7)])
    def test_run_on_one_line(self, first, alt, pattern):
        steps = [(first, 2, pattern)] + [("store", 2, pattern)] * 3
        steps += [("load", 2, pattern), ("load", 3, 0), ("store", 2, pattern)]
        _assert_matches_event_machine(_trace(alt, steps))

    def test_victim_order_decides_the_stats(self):
        # Lines 0, 8, 16 and 24 share L1 set 0. Hits reorder the set,
        # so evicting in fill order instead of recency order would
        # drop a line the trace then reloads.
        steps = [("load", 0, 0), ("store", 8, 0), ("load", 0, 0),
                 ("load", 16, 0), ("load", 0, 0), ("store", 8, 0),
                 ("load", 16, 0), ("store", 24, 0), ("load", 0, 0),
                 ("load", 16, 0), ("load", 8, 0), ("store", 0, 0)]
        _assert_matches_event_machine(_trace(0, steps, lines=32))
