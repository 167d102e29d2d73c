"""The strided-scan harness: event/fast agreement + spec plumbing."""

import pytest

from repro.check.fastpath import run_sweep_equivalence
from repro.dram.address import MappingPolicy
from repro.errors import ConfigError
from repro.harness.patternscan import (
    SWEEP_STRIDES,
    VARIANTS,
    pattern_sweep_specs,
    run_patternscan,
)
from repro.obs import observe
from repro.perf.specs import cache_key


class TestRunPatternscan:
    @pytest.mark.parametrize("mode", ["event", "fast"])
    def test_gathered_scan_verifies(self, mode):
        run = run_patternscan("gathered", 4, lines=64, mode=mode)
        assert run.verified
        assert run.answer == run.expected
        assert run.result.loads > 0

    def test_scalar_and_gathered_same_answer(self):
        scalar = run_patternscan("scalar", 8, lines=64, mode="fast")
        gathered = run_patternscan("gathered", 8, lines=64, mode="fast")
        assert scalar.answer == gathered.answer
        # The whole point of the paper: a gathered line carries 8 useful
        # values, so the strided scan needs 8x fewer DRAM reads.
        assert gathered.result.dram_reads * 8 == scalar.result.dram_reads

    def test_modes_agree_per_point(self):
        event = run_patternscan("gathered", 2, lines=64, mode="event")
        fast = run_patternscan("gathered", 2, lines=64, mode="fast")
        assert event.values_digest == fast.values_digest
        assert event.row_profile == fast.row_profile
        assert event.result.l1_hits == fast.result.l1_hits
        assert event.result.l2_misses == fast.result.l2_misses
        assert event.component_stats == fast.component_stats

    def test_full_sweep_equivalence(self):
        report = run_sweep_equivalence(lines=64)
        assert report.ok, report.render()
        assert report.runs == len(SWEEP_STRIDES) * len(VARIANTS)

    @pytest.mark.parametrize(
        "variant,stride,lines",
        [("diagonal", 4, 64), ("scalar", 3, 64), ("scalar", 16, 64),
         ("scalar", 4, 0), ("scalar", 4, 12)],
    )
    def test_invalid_points_rejected(self, variant, stride, lines):
        with pytest.raises(ConfigError):
            run_patternscan(variant, stride, lines=lines)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            run_patternscan("scalar", 4, lines=64, mode="approximate")

    @pytest.mark.parametrize("mode", ["event", "fast"])
    def test_gathered_scan_needs_row_bank_column(self, mode):
        # Stepping ``stride`` columns per gather assumes consecutive
        # lines share a DRAM row; bank interleaving breaks that.
        with pytest.raises(ConfigError, match="mapping_policy"):
            run_patternscan(
                "gathered", 4, lines=64, mode=mode,
                config_overrides={
                    "mapping_policy": MappingPolicy.BANK_INTERLEAVED
                },
            )

    def test_fast_mode_emits_snapshot(self):
        with observe() as session:
            run_patternscan("gathered", 4, lines=64, mode="fast")
            snapshot = session.snapshot()
        assert snapshot.get("cpu.core0", "instructions") > 0
        assert snapshot.get("mem.controller", "requests_patterned") > 0
        assert snapshot.get("cache.dbi", "overlap_queries") > 0
        assert "cache.l2" in snapshot.paths()


class TestPatternSweepSpecs:
    def test_covers_every_point(self):
        specs = pattern_sweep_specs(lines=64)
        assert len(specs) == len(SWEEP_STRIDES) * len(VARIANTS)
        points = {(s.params["variant"], s.params["stride"]) for s in specs}
        assert points == {
            (variant, stride)
            for variant in VARIANTS
            for stride in SWEEP_STRIDES
        }

    def test_mode_is_in_the_cache_key(self):
        event, fast = (
            pattern_sweep_specs(lines=64, mode=mode)[0]
            for mode in ("event", "fast")
        )
        assert cache_key(event) != cache_key(fast)
