"""Mutation smoke-tests: the checkers must catch seeded bugs.

A correctness battery that never fails is indistinguishable from one
that checks nothing. Here we monkeypatch a one-bit fault into the
production Column Translation Logic — chip columns for non-zero
patterns come back off by one — and assert that both the differential
oracle and the CTL invariant checker flag it. A second fault drops the
Section 4.1 coherence actions from the fast path's
:class:`~repro.vec.hier.DirtyReplay`, which the fast-path trace stage
must flag. The same probes are clean without the mutations.
"""

import pytest

from repro.check.differential import differential_configs, run_differential
from repro.check.fastpath import fast_configs, run_trace_equivalence
from repro.check.invariants import check_ctl_translation
from repro.core.ctl import ColumnTranslationLogic
from repro.vec.hier import DirtyReplay


@pytest.fixture
def mutated_ctl(monkeypatch):
    """XOR the translated chip column with 1 for patterned accesses.

    XOR keeps the result inside the (power-of-two) row width, so the
    fault corrupts *which* values are gathered without tripping any
    range check — the hardest kind of bug to see from timing alone.
    """
    original = ColumnTranslationLogic.translate

    def translate(self, column, pattern, is_column_command=True):
        result = original(self, column, pattern, is_column_command)
        if is_column_command and pattern:
            return result ^ 1
        return result

    monkeypatch.setattr(ColumnTranslationLogic, "translate", translate)


@pytest.fixture
def no_overlaps(monkeypatch):
    """Report no other-pattern overlaps, skipping every invalidation
    and flush the pattern-ID coherence rules require."""
    monkeypatch.setattr(
        DirtyReplay, "_overlap_keys",
        lambda self, line_address, pattern, alt: ((), frozenset()),
    )


class TestMutationIsCaught:
    def test_differential_oracle_catches_ctl_fault(self, mutated_ctl):
        config = differential_configs()[0]
        report = run_differential(traces_per_config=8, configs=[config])
        assert not report.ok, (
            "a corrupted CTL produced zero differential mismatches — "
            "the oracle is not actually checking gathered values"
        )
        kinds = {mismatch.kind for mismatch in report.mismatches}
        assert kinds <= {"load-value", "memory-image", "exception", "shortfall"}

    def test_invariant_checker_catches_ctl_fault(self, mutated_ctl):
        report = check_ctl_translation(chip_counts=(8,), columns_per_row=16)
        assert not report.ok
        assert any(
            "gather set" in v.detail or "involution" in v.detail
            for v in report.violations
        )

    def test_fastpath_trace_stage_catches_coherence_fault(self, no_overlaps):
        report = run_trace_equivalence(
            traces_per_config=8, configs=[fast_configs()[0]]
        )
        assert not report.ok, (
            "a DirtyReplay without overlap coherence matched the event "
            "machine on every trace — the stage is not comparing it"
        )


class TestControl:
    """The same probes pass without the mutation."""

    def test_differential_clean_without_mutation(self):
        config = differential_configs()[0]
        report = run_differential(traces_per_config=8, configs=[config])
        assert report.ok, report.render()

    def test_invariants_clean_without_mutation(self):
        assert check_ctl_translation(chip_counts=(8,), columns_per_row=16).ok

    def test_fastpath_trace_stage_clean_without_mutation(self):
        report = run_trace_equivalence(
            traces_per_config=8, configs=[fast_configs()[0]]
        )
        assert report.ok, report.render()
