"""Tests for the GS-vs-PIM ablation driver (repro.pim.driver)."""

import pytest

from repro.errors import ConfigError
from repro.perf.specs import RunSpec, execute_spec
from repro.pim.driver import run_pim

TUPLES = 256


@pytest.fixture(scope="module")
def quadrants():
    """All four (workload, variant) pairs, one table."""
    return {
        (workload, variant): run_pim(workload, variant, num_tuples=TUPLES)
        for workload in ("sum", "filter")
        for variant in ("gs", "pim")
    }


class TestQuadrants:
    def test_every_run_verifies(self, quadrants):
        assert all(run.verified for run in quadrants.values())
        assert all(run.cycles > 0 for run in quadrants.values())

    @pytest.mark.parametrize("workload", ["sum", "filter"])
    def test_variants_agree_on_the_answer(self, quadrants, workload):
        answers = {
            quadrants[(workload, variant)].answer
            for variant in ("gs", "pim")
        }
        assert len(answers) == 1

    def test_filter_moves_less_data(self, quadrants):
        # The mask readback is 1 line; the gather moves tuples/8 lines.
        gs = quadrants[("filter", "gs")]
        pim = quadrants[("filter", "pim")]
        assert pim.result.memory_accesses < gs.result.memory_accesses

    def test_sum_readback_is_per_slice_not_per_tuple(self, quadrants):
        # Sum readback cost scales with bit width (one line per
        # accumulator slice), not with the tuple count — the reason
        # its traffic win only appears at larger tables.
        pim = quadrants[("sum", "pim")]
        assert pim.result.memory_accesses < 64  # ~width lines, not 256/8

    def test_pim_run_records_command_mix(self, quadrants):
        run = quadrants[("sum", "pim")]
        assert run.result.extra["cmd_MRA2"] > 0
        assert run.result.extra["cmd_MRA3"] > 0
        assert run.result.extra["cmd_SHIFT"] > 0
        assert run.result.mechanism == "pim"
        stats = run.component_stats["pim"]
        assert stats["cmd_MRA3"] == run.result.extra["cmd_MRA3"]

    def test_pim_energy_counts_compute_commands(self, quadrants):
        run = quadrants[("filter", "pim")]
        assert run.result.energy.dram.dynamic_mj > 0

    def test_params_record_threshold(self, quadrants):
        run = quadrants[("filter", "pim")]
        assert run.params["threshold"] > 0
        assert run.params["num_tuples"] == TUPLES


class TestValidation:
    def test_unknown_workload(self):
        with pytest.raises(ConfigError):
            run_pim("median", "gs")

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            run_pim("sum", "cpu")


class TestSpecDispatch:
    def test_execute_spec_round_trip(self):
        spec = RunSpec(
            kind="pim",
            params={"workload": "filter", "variant": "pim",
                    "num_tuples": TUPLES},
            seed=1,
        )
        run = execute_spec(spec)
        assert run.verified
        assert (run.workload, run.variant) == ("filter", "pim")
        assert run.params["seed"] == 1
