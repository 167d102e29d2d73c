"""repro.pim: modeled in-DRAM compute (many-row activation + shift).

The subsystem layers over the existing DRAM model (docs/INDRAM.md):

- :mod:`repro.pim.reference` — numpy reference semantics for the MRA
  and SHIFT primitives; the device implementation in
  :mod:`repro.dram` is held byte-identical to it by tests and the
  ``repro check pim`` stage.
- :mod:`repro.pim.executor` — issues MRA/SHIFT/readback command
  streams against a real module, walking the per-bank timing windows
  and counting commands.
- :mod:`repro.pim.ops` — compiles analytics aggregates (bit-serial
  column sum, predicate filter) into MRA+SHIFT programs over
  bit-sliced row groups placed by
  :class:`repro.mem.mapping.PIMRowGroupPolicy`.
- :mod:`repro.pim.driver` — ``run_pim``: the GS-gather-vs-PIM
  ablation runs behind ``kind="pim"`` RunSpecs.
"""

from repro.pim.driver import PIMRun, run_pim
from repro.pim.executor import PIMExecutor
from repro.pim.reference import combine_reference, shift_reference

__all__ = [
    "PIMExecutor",
    "PIMRun",
    "combine_reference",
    "run_pim",
    "shift_reference",
]
