"""PIM differentials: device semantics vs numpy, GS gather vs in-DRAM.

The ``repro.pim`` subsystem makes two falsifiable promises:

1. **Primitive fidelity** — every MRA (AND/OR over 2-3 rows, MAJ over
   3) and every SHIFT executed against the real per-chip byte arrays
   is byte-for-byte identical to the numpy reference semantics in
   :mod:`repro.pim.reference`, over seeded random row contents,
   operand counts, shift amounts and directions.
2. **Variant agreement** — each ablation quadrant (sum/filter x
   gs/pim) passes its numpy oracle with a positive cycle count, and
   the two variants agree on the aggregate.

``run_pim_check`` bundles both for ``repro check pim``.
"""

from __future__ import annotations

import numpy as np

from repro.check.fastpath import FastPathDivergence, FastPathReport
from repro.dram.module import DRAMModule
from repro.pim.driver import WORKLOADS, run_pim
from repro.pim.executor import PIMExecutor
from repro.pim.reference import combine_reference, shift_reference
from repro.sim.config import plain_dram_config

#: Small enough for seconds of event-mode wall clock, large enough to
#: exercise multi-level tree reduction and a multi-byte match mask.
CHECK_TUPLES = 512

#: (op, fan-in) pairs the command set admits.
PRIMITIVE_CASES = (("AND", 2), ("AND", 3), ("OR", 2), ("OR", 3), ("MAJ", 3))


class PIMReport(FastPathReport):
    """FastPathReport with a PIM-flavoured headline."""

    def render(self) -> str:
        status = "OK" if self.ok else f"{len(self.divergences)} DIVERGENCES"
        lines = [
            f"pim: {self.runs} runs, {self.values_compared} values "
            f"compared, {status}"
        ]
        lines.extend(f"  {d.render()}" for d in self.divergences[:20])
        return "\n".join(lines)


def _diverge(report, where: str, what: str) -> None:
    report.divergences.append(FastPathDivergence(where, what))


def _check_primitives(report: PIMReport, seed: int, trials: int = 4) -> None:
    """Every MRA/SHIFT shape on the device vs the numpy reference."""
    config = plain_dram_config()
    module = DRAMModule(
        geometry=config.geometry,
        cpu_per_bus=config.cpu_per_bus,
        policy=config.mapping_policy,
    )
    executor = PIMExecutor(module)
    row_bytes = module.geometry.row_bytes
    rng = np.random.default_rng(seed)
    top = module.geometry.rows_per_bank
    for trial in range(trials):
        bank = int(rng.integers(module.geometry.banks))
        src = [top - 1 - i for i in range(3)]
        dest = top - 4
        contents = rng.integers(0, 256, size=(3, row_bytes), dtype=np.uint8)
        for row, data in zip(src, contents):
            executor.load_row(bank, row, data.tobytes())
        for op, fan_in in PRIMITIVE_CASES:
            report.runs += 1
            executor.mra(bank, tuple(src[:fan_in]), dest, op)
            device = module.rank.read_row(bank, dest)
            expected = combine_reference(
                [c.tobytes() for c in contents[:fan_in]], op)
            report.values_compared += 1
            if device != expected:
                _diverge(
                    report, f"pim primitive {op}{fan_in} trial {trial}",
                    "device row differs from numpy reference",
                )
        for direction in ("left", "right"):
            amount = int(rng.integers(1, 4 * row_bytes))
            report.runs += 1
            executor.load_row(bank, dest, contents[0].tobytes())
            executor.shift(bank, dest, amount, direction)
            device = module.rank.read_row(bank, dest)
            expected = shift_reference(contents[0].tobytes(), amount,
                                       direction)
            report.values_compared += 1
            if device != expected:
                _diverge(
                    report,
                    f"pim shift {direction} by {amount} trial {trial}",
                    "device row differs from numpy reference",
                )
    report.values_compared += 1
    if executor.cycles <= 0:
        _diverge(report, "pim primitives", "timed executor reported 0 cycles")


def _check_quadrant(report: PIMReport, workload: str, variant: str):
    """One ablation quadrant against its oracle; returns the run."""
    where = f"pim {workload}/{variant}"
    report.runs += 1
    run = run_pim(workload, variant, num_tuples=CHECK_TUPLES)
    report.values_compared += 1
    if not run.verified:
        _diverge(report, where, "run failed its numpy oracle")
    report.values_compared += 1
    if run.cycles <= 0:
        _diverge(report, where, "run reported 0 cycles")
    return run


def run_pim_check(seed: int = 2015) -> PIMReport:
    """The full PIM battery; see the module docstring."""
    report = PIMReport()
    _check_primitives(report, seed=seed)
    for workload in WORKLOADS:
        runs = {
            variant: _check_quadrant(report, workload, variant)
            for variant in ("gs", "pim")
        }
        report.values_compared += 1
        if runs["gs"].answer != runs["pim"].answer:
            _diverge(
                report, f"pim {workload}",
                f"variants disagree: gs={runs['gs'].answer} "
                f"pim={runs['pim'].answer}",
            )
    return report
