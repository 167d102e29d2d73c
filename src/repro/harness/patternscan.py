"""Strided-scan driver with an event-exact vectorized fast path.

``run_patternscan`` runs one point of the abl-6 / Figure-7-style sweep:
a scalar strided scan (pattern 0) or the equivalent gathered scan
(pattern ``stride - 1``) over the same data, returning functional
counts, the scan answer, a digest of every loaded value, and the DRAM
row-locality profile.

Two execution modes produce bit-identical functional results:

- ``mode="event"`` — the full event-driven machine, exactly as
  :func:`repro.harness.ablations.run_pattern_sweep` builds it (same
  config, same allocation, same op stream, same PCs). Timing outputs
  (cycles, queue delays) are meaningful.
- ``mode="fast"`` — no machine at all: the access stream and the
  gathered values come from the batched kernels of :mod:`repro.vec`,
  and the cache behaviour and row-buffer locality from replaying that
  stream through :class:`~repro.vec.hier.DirtyReplay`. Timing outputs
  are zero.

Equivalence between the two is not assumed: :mod:`repro.check.fastpath`
diffs them access-for-access, and the bench harness
(:mod:`repro.perf.bench`) records the speedup. The exactness argument
is the read-only single-core one documented in docs/PERFORMANCE.md:
with one blocking core there is never more than one outstanding miss,
so cache replacement and per-bank DRAM service order are both exactly
the program order the fast path replays.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

import numpy as np

from repro.cpu.isa import Compute, Load, pattload
from repro.dram.address import MappingPolicy
from repro.errors import ConfigError, WorkloadError
from repro.perf.specs import RunSpec
from repro.sim.config import SystemConfig, table1_config
from repro.sim.results import RunResult, StageTimer
from repro.sim.system import System
from repro.utils.bitops import is_power_of_two
from repro.vec.hier import DirtyReplay
from repro.vec.kernels import gather_addresses_batch
from repro.vec.shim import component_snapshot
from repro.vm.pattmalloc import PattAllocator

#: Strides of the standard sweep: every multi-value stride the 3-bit
#: pattern space supports with 8 values per line.
SWEEP_STRIDES = (2, 4, 8)
VARIANTS = ("scalar", "gathered")


@dataclass
class PatternScanRun:
    """Outcome of one (variant, stride) scan in one mode."""

    variant: str
    stride: int
    lines: int
    mode: str
    result: RunResult
    answer: int
    expected: int
    verified: bool
    #: sha256 over the loaded values, in program order, as little-endian
    #: u64 bytes — equal across modes iff every loaded value is equal.
    values_digest: str
    #: Row-buffer locality of the DRAM read stream (RowProfile.as_dict
    #: shape: totals + per-bank counts).
    row_profile: dict = field(default_factory=dict)
    #: Per-component stat dicts (controller/l1/l2/hierarchy/dbi) for the
    #: event-vs-fast equivalence battery.
    component_stats: dict | None = None


def _scan_config(variant: str, config_overrides: dict | None) -> SystemConfig:
    overrides = {"l2_size": 64 * 1024}
    overrides.update(config_overrides or {})
    config = table1_config(**overrides)
    # The gathered scan steps ``stride`` columns per gather, which
    # assumes consecutive lines share a DRAM row.
    if (variant == "gathered"
            and config.mapping_policy is not MappingPolicy.ROW_BANK_COLUMN):
        raise ConfigError(
            "the gathered scan needs mapping_policy="
            f"{MappingPolicy.ROW_BANK_COLUMN.value!r}, got "
            f"{config.mapping_policy.value!r}"
        )
    return config


def _check_point(variant: str, stride: int, lines: int) -> None:
    if variant not in VARIANTS:
        raise ConfigError(f"unknown patternscan variant {variant!r}")
    if not is_power_of_two(stride) or not 2 <= stride <= 8:
        raise ConfigError(f"stride must be 2, 4, or 8, got {stride}")
    if lines <= 0 or lines % 8:
        raise ConfigError(f"lines must be a positive multiple of 8: {lines}")


def run_patternscan(
    variant: str,
    stride: int,
    lines: int = 2048,
    mode: str = "event",
    config_overrides: dict | None = None,
) -> PatternScanRun:
    """Run one strided-scan point; see the module docstring."""
    _check_point(variant, stride, lines)
    if mode == "event":
        return _run_event(variant, stride, lines, config_overrides)
    if mode == "fast":
        return _run_fast(variant, stride, lines, config_overrides)
    raise ConfigError(f"unknown patternscan mode {mode!r}")


def pattern_sweep_specs(
    lines: int = 2048, mode: str = "event", obs: str = "off"
) -> list[RunSpec]:
    """RunSpecs for the full sweep (every stride x both variants)."""
    return [
        RunSpec(
            kind="patternscan",
            params={"variant": variant, "stride": stride, "lines": lines},
            mode=mode,
            obs=obs,
        )
        for stride in SWEEP_STRIDES
        for variant in VARIANTS
    ]


# ----------------------------------------------------------------------
# Event mode: the full machine, instrumented for the row profile
# ----------------------------------------------------------------------
def _run_event(
    variant: str, stride: int, lines: int, config_overrides: dict | None
) -> PatternScanRun:
    timer = StageTimer()
    with timer.stage("setup"):
        config = _scan_config(variant, config_overrides)
        pattern = stride - 1
        total_values = lines * 8

        system = System(config)
        # The per-bank row profile is derived from the actual command
        # stream, so the fast path's analytics are checked against
        # commands the controller really issued, not a second model of
        # them.
        system.controller.trace_commands = True
        base = system.pattmalloc(lines * 64, shuffle=True, pattern=pattern)
    with timer.stage("generate"):
        system.mem_write(
            base, struct.pack(f"<{total_values}Q", *range(total_values))
        )

    chunks: list[bytes] = []
    k = stride.bit_length() - 1

    def scalar_ops():
        for index in range(0, total_values, stride):
            yield Load(base + index * 8, pc=0x7000 + k, on_value=chunks.append)
            yield Compute(1)

    def gathered_ops():
        gathers = total_values // (stride * 8)
        for g in range(gathers):
            column = g * stride
            for j in range(8):
                yield pattload(
                    base + column * 64 + j * 8,
                    pattern=pattern,
                    pc=(0x7100 if j else 0x7180) + k,
                    on_value=chunks.append,
                )
                yield Compute(1)

    ops = scalar_ops() if variant == "scalar" else gathered_ops()
    with timer.stage("run"):
        result = system.run([ops])

    with timer.stage("verify"):
        answer = sum(struct.unpack("<Q", chunk)[0] for chunk in chunks)
        expected = sum(range(0, total_values, stride))
    timer.attach(result)
    return PatternScanRun(
        variant=variant,
        stride=stride,
        lines=lines,
        mode="event",
        result=result,
        answer=answer,
        expected=expected,
        verified=answer == expected,
        values_digest=hashlib.sha256(b"".join(chunks)).hexdigest(),
        row_profile=_profile_from_commands(system.controller.command_trace),
        component_stats=component_snapshot(system),
    )


def _profile_from_commands(command_trace) -> dict:
    """Per-bank row-locality counts from the controller's command log.

    Every row miss issues exactly one ACT (preceded by a PRE unless the
    bank was closed), so per bank: misses = ACTs, hits = RD+WR - ACTs.
    """
    per_bank: dict[int, dict[str, int]] = {}
    for _time, command in command_trace:
        counts = per_bank.setdefault(
            command.bank,
            {"reads": 0, "row_hits": 0, "row_misses": 0,
             "activates": 0, "precharges": 0},
        )
        kind = command.kind.value
        if kind in ("RD", "WR"):
            counts["reads"] += 1
        elif kind == "ACT":
            counts["activates"] += 1
        elif kind == "PRE":
            counts["precharges"] += 1
    for counts in per_bank.values():
        counts["row_misses"] = counts["activates"]
        counts["row_hits"] = counts["reads"] - counts["activates"]
    return {
        "row_hits": sum(c["row_hits"] for c in per_bank.values()),
        "row_misses": sum(c["row_misses"] for c in per_bank.values()),
        "activates": sum(c["activates"] for c in per_bank.values()),
        "precharges": sum(c["precharges"] for c in per_bank.values()),
        "per_bank": {
            str(bank): dict(counts)
            for bank, counts in sorted(per_bank.items())
        },
    }


# ----------------------------------------------------------------------
# Fast mode: batched kernels + DirtyReplay, no machine
# ----------------------------------------------------------------------
def _run_fast(
    variant: str, stride: int, lines: int, config_overrides: dict | None
) -> PatternScanRun:
    timer = StageTimer()
    with timer.stage("setup"):
        config = _scan_config(variant, config_overrides)
        geometry = config.geometry
        line_bytes = geometry.line_bytes
        pattern = stride - 1
        total_values = lines * 8

        # Identical physical placement: the same bump allocator the
        # System uses, so base addresses (and therefore bank/row
        # coordinates) match the event run byte for byte.
        allocator = PattAllocator(
            capacity_bytes=geometry.capacity_bytes,
            line_bytes=line_bytes,
            row_bytes=geometry.row_bytes,
        )
        base = allocator.pattmalloc(lines * 64, shuffle=True, pattern=pattern)
    with timer.stage("generate"):
        payload = np.arange(total_values, dtype=np.int64)

    with timer.stage("run"):
        if variant == "scalar":
            value_indices = np.arange(0, total_values, stride, dtype=np.int64)
            addresses = base + value_indices * 8
            line_addresses = addresses & ~np.int64(line_bytes - 1)
            patterns = np.zeros_like(line_addresses)
            values = payload[value_indices]
        else:
            gathers = total_values // (stride * 8)
            columns = np.arange(gathers, dtype=np.int64) * stride
            gathered_lines = base + columns * line_bytes
            slots = gather_addresses_batch(
                gathered_lines,
                np.full(gathers, pattern, dtype=np.int64),
                chips=geometry.chips,
                banks=geometry.banks,
                rows_per_bank=geometry.rows_per_bank,
                columns_per_row=geometry.columns_per_row,
                column_bytes=geometry.column_bytes,
                shuffle_stages=config.shuffle_stages,
                pattern_bits=config.pattern_bits,
                bank_interleaved=(
                    config.mapping_policy is MappingPolicy.BANK_INTERLEAVED
                ),
            )
            source_indices = slots - base
            if source_indices.size and (
                int(source_indices.min()) < 0
                or int(source_indices.max()) >= total_values * 8
                or (source_indices % 8).any()
            ):
                raise WorkloadError(
                    "gathered value addresses escaped the allocation"
                )
            values = payload[source_indices // 8].reshape(-1)
            line_addresses = np.repeat(gathered_lines, geometry.chips)
            patterns = np.full_like(line_addresses, pattern)

        # Every access is a load from the region pattmalloc'd above
        # (shuffled, alternate pattern ``pattern``).
        accesses = int(line_addresses.size)
        replay = DirtyReplay(config)
        replay.run(
            line_addresses,
            patterns,
            np.full(accesses, pattern, dtype=np.int64),
            np.zeros(accesses, dtype=bool),
            np.ones(accesses, dtype=bool),
        )
        result = replay.collect_result(
            instructions=2 * accesses, loads=accesses, stores=0
        )
        profile = replay.row_profile()

    with timer.stage("verify"):
        answer = int(values.sum())
        expected = sum(range(0, total_values, stride))
        digest = hashlib.sha256(values.astype("<u8").tobytes()).hexdigest()

    timer.attach(result)
    replay.attach_session(result)
    return PatternScanRun(
        variant=variant,
        stride=stride,
        lines=lines,
        mode="fast",
        result=result,
        answer=answer,
        expected=expected,
        verified=answer == expected,
        values_digest=digest,
        row_profile=profile.as_dict(),
        component_stats=replay.component_stats(),
    )
