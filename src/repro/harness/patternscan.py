"""Strided-scan driver with an event-exact vectorized fast path.

``run_patternscan`` runs one point of the abl-6 / Figure-7-style sweep:
a scalar strided scan (pattern 0) or the equivalent gathered scan
(pattern ``stride - 1``) over the same data, returning functional
counts, the scan answer, a digest of every loaded value, and the DRAM
row-locality profile.

Both execution modes consume one access stream (:func:`_scan_stream`)
and produce bit-identical functional results:

- ``mode="event"`` — the full event-driven machine runs the stream
  through :func:`~repro.cpu.stream.scan_ops`. Timing outputs (cycles,
  queue delays) are meaningful; abl-6
  (:func:`repro.harness.ablations.run_pattern_sweep`) reports them.
- ``mode="fast"`` — no machine at all: the gathered values come from
  :func:`~repro.vec.kernels.loaded_addresses`, and the cache behaviour
  and row-buffer locality from replaying the stream through
  :class:`~repro.vec.hier.DirtyReplay`. Timing outputs are zero.

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
from dataclasses import dataclass, field

import numpy as np

from repro.cpu.stream import AccessStream, scan_ops
from repro.errors import ConfigError, WorkloadError
from repro.perf.specs import RunSpec
from repro.sim.config import (
    SystemConfig,
    require_gathers_in_row,
    table1_config,
)
from repro.sim.results import RunResult, StageTimer
from repro.sim.system import System
from repro.utils.bitops import is_power_of_two
from repro.vec.hier import DirtyReplay
from repro.vec.kernels import loaded_addresses
from repro.vec.shim import component_snapshot
from repro.vm.pattmalloc import PattAllocator

#: Strides of the standard sweep: every multi-value stride the 3-bit
#: pattern space supports with 8 values per line.
SWEEP_STRIDES = (2, 4, 8)
VARIANTS = ("scalar", "gathered")

#: The scanned data: 8-byte values, 8 to a 64-byte line.
_LINE_BYTES = 64
_VALUE_BYTES = 8


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
    if variant == "gathered":
        return require_gathers_in_row(config, "the gathered scan")
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


def _scan_stream(variant: str, stride: int, lines: int,
                 base: int) -> AccessStream:
    """Every ``stride``-th value of ``lines`` lines at ``base``.

    The data is allocated shuffled with alternate pattern
    ``stride - 1``. The scalar scan loads each value through pattern 0
    (one line per ``8 / stride`` useful values); the gathered scan
    issues 8 pattloads per gathered line, one line per ``stride``
    columns.
    """
    pattern = stride - 1
    k = stride.bit_length() - 1
    total_values = lines * 8
    if variant == "scalar":
        indices = np.arange(0, total_values, stride, dtype=np.int64)
        return AccessStream.build(base + indices * _VALUE_BYTES, 0, 0x7000 + k,
                                  alt=pattern, shuffled=True)
    gathers = total_values // (stride * 8)
    columns = np.arange(gathers, dtype=np.int64) * stride
    positions = np.arange(8, dtype=np.int64)
    addresses = (base + columns[:, None] * _LINE_BYTES
                 + positions[None, :] * _VALUE_BYTES)
    pcs = np.where(positions == 0, 0x7180, 0x7100) + k
    return AccessStream.build(
        addresses.reshape(-1), pattern, np.tile(pcs, gathers),
        alt=pattern, shuffled=True,
    )


def _scan_run(variant: str, stride: int, lines: int, mode: str,
              result: RunResult, values: np.ndarray,
              **observed) -> PatternScanRun:
    answer = int(values.sum())
    expected = sum(range(0, lines * 8, stride))
    return PatternScanRun(
        variant=variant,
        stride=stride,
        lines=lines,
        mode=mode,
        result=result,
        answer=answer,
        expected=expected,
        verified=answer == expected,
        values_digest=hashlib.sha256(values.astype("<u8").tobytes()).hexdigest(),
        **observed,
    )


# ----------------------------------------------------------------------
# Event mode: the full machine, instrumented for the row profile
# ----------------------------------------------------------------------
def _run_event(
    variant: str, stride: int, lines: int, config_overrides: dict | None
) -> PatternScanRun:
    timer = StageTimer()
    with timer.stage("setup"):
        config = _scan_config(variant, config_overrides)
        system = System(config)
        # The per-bank row profile is derived from the actual command
        # stream, so the fast path's analytics are checked against
        # commands the controller really issued, not a second model of
        # them.
        system.controller.trace_commands = True
        base = system.pattmalloc(lines * _LINE_BYTES, shuffle=True,
                                 pattern=stride - 1)
    with timer.stage("generate"):
        system.mem_write(base, np.arange(lines * 8, dtype="<u8").tobytes())
        stream = _scan_stream(variant, stride, lines, base)

    chunks: list[bytes] = []
    with timer.stage("run"):
        result = system.run([scan_ops(stream, chunks.append)])

    with timer.stage("verify"):
        run = _scan_run(
            variant, stride, lines, "event", result,
            np.frombuffer(b"".join(chunks), dtype="<u8"),
            row_profile=_profile_from_commands(system.controller.command_trace),
            component_stats=component_snapshot(system),
        )
    timer.attach(result)
    return run


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
# Fast mode: the same stream through DirtyReplay, no machine
# ----------------------------------------------------------------------
def _run_fast(
    variant: str, stride: int, lines: int, config_overrides: dict | None
) -> PatternScanRun:
    timer = StageTimer()
    with timer.stage("setup"):
        config = _scan_config(variant, config_overrides)
        geometry = config.geometry
        # Identical physical placement: the same bump allocator the
        # System uses, so base addresses (and therefore bank/row
        # coordinates) match the event run byte for byte.
        allocator = PattAllocator(
            capacity_bytes=geometry.capacity_bytes,
            line_bytes=geometry.line_bytes,
            row_bytes=geometry.row_bytes,
        )
        base = allocator.pattmalloc(lines * _LINE_BYTES, shuffle=True,
                                    pattern=stride - 1)
    with timer.stage("generate"):
        payload = np.arange(lines * 8, dtype=np.int64)
        stream = _scan_stream(variant, stride, lines, base)

    with timer.stage("run"):
        replay = DirtyReplay(config)
        replay.run(stream.line_addresses(geometry.line_bytes), stream.patterns,
                   stream.alts, stream.writes, stream.shuffled)
        result = replay.collect_result(
            instructions=2 * len(stream), loads=len(stream), stores=0
        )

    with timer.stage("verify"):
        offsets = loaded_addresses(stream.addresses, stream.patterns,
                                   config) - base
        if offsets.size and (
            int(offsets.min()) < 0
            or int(offsets.max()) >= payload.size * _VALUE_BYTES
            or (offsets % _VALUE_BYTES).any()
        ):
            raise WorkloadError("loaded value addresses escaped the allocation")
        run = _scan_run(
            variant, stride, lines, "fast", result,
            payload[offsets // _VALUE_BYTES],
            row_profile=replay.row_profile().as_dict(),
            component_stats=replay.component_stats(),
        )

    timer.attach(result)
    replay.attach_session(result)
    return run
