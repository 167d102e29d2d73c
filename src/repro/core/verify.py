"""Exhaustive self-verification of a GS-DRAM configuration.

For small geometries these checks are *complete* (every pattern x
column x payload-structure combination), making them a useful sanity
gate when experimenting with custom shuffle functions, wide pattern
IDs, or unusual chip counts:

- **involution** — write-then-read round-trips for every pattern;
- **coverage** — a gather touches one value per chip, no duplicates;
- **family correctness** — each pattern gathers its intended index
  family (stride ``p+1`` for full patterns);
- **overlap symmetry** — the coherence overlap relation is symmetric;
- **scatter/gather duality** — scattering then gathering returns the
  payload, and the scattered values land at their constituents.

``GSDRAM.self_check()`` runs all of them and returns a report.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field


@dataclass
class CheckReport:
    """Outcome of a self-check run."""

    checks_run: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def note_failure(self, message: str) -> None:
        self.failures.append(message)

    def render(self) -> str:
        status = "OK" if self.ok else f"{len(self.failures)} FAILURES"
        lines = [f"self-check: {self.checks_run} checks, {status}"]
        lines.extend(f"  FAIL: {message}" for message in self.failures[:20])
        return "\n".join(lines)


def _pack(values: list[int]) -> bytes:
    return struct.pack(f"<{len(values)}Q", *values)


def verify_substrate(gs, columns: int | None = None,
                     patterns: list[int] | None = None) -> CheckReport:
    """Run the exhaustive checks against a GSDRAM facade.

    ``columns`` bounds the column sweep (default: one full row);
    ``patterns`` defaults to every pattern the configuration encodes.
    """
    from repro.core.pattern import gather_spec, stride_for_pattern

    report = CheckReport()
    module = gs.module
    chips = gs.chips
    if columns is None:
        columns = module.geometry.columns_per_row
    if patterns is None:
        patterns = list(range(1 << gs.pattern_bits))
    row_values = columns * chips

    # Populate one row with value == global index.
    for column in range(columns):
        gs.write_values(column * gs.line_bytes,
                        list(range(column * chips, (column + 1) * chips)))

    supported = set(gs.supported_strides())
    for pattern in patterns:
        stride = stride_for_pattern(pattern)
        for column in range(columns):
            address = column * gs.line_bytes
            gathered = gs.read_values(address, pattern=pattern)
            spec = gather_spec(chips, pattern, column)

            report.checks_run += 1
            if len(set(gathered)) != chips:
                report.note_failure(
                    f"pattern {pattern} col {column}: duplicate values"
                )

            report.checks_run += 1
            if gathered != sorted(gathered):
                report.note_failure(
                    f"pattern {pattern} col {column}: not in address order"
                )

            report.checks_run += 1
            if module.shuffle.stages == (chips - 1).bit_length():
                if tuple(gathered) != spec.indices:
                    report.note_failure(
                        f"pattern {pattern} col {column}: family mismatch "
                        f"{gathered} != {list(spec.indices)}"
                    )

            if stride is not None and stride in supported:
                report.checks_run += 1
                gaps = {b - a for a, b in zip(gathered, gathered[1:])}
                if gaps != {stride}:
                    report.note_failure(
                        f"pattern {pattern} col {column}: stride {gaps} "
                        f"!= {stride}"
                    )

        # Overlap symmetry.
        for column in range(columns):
            report.checks_run += 1
            for other in module.overlapping_columns(column, pattern):
                if column not in module.overlapping_columns(other, pattern):
                    report.note_failure(
                        f"pattern {pattern}: overlap not symmetric "
                        f"({column} -> {other})"
                    )
                    break

    # Scatter/gather duality on a fresh region (second row).
    row_bytes = module.geometry.row_bytes
    for pattern in patterns:
        for column in range(min(columns, 8)):
            address = row_bytes + column * gs.line_bytes
            payload = [0x1000 * (pattern + 1) + i for i in range(chips)]
            gs.write_values(address, payload, pattern=pattern)
            report.checks_run += 1
            if gs.read_values(address, pattern=pattern) != payload:
                report.note_failure(
                    f"pattern {pattern} col {column}: scatter/gather "
                    "round-trip failed"
                )
            # Each value must sit at its constituent location.
            report.checks_run += 1
            for position, (line, offset) in enumerate(
                module.constituents(address, pattern)
            ):
                line_values = gs.read_values(line)
                if line_values[offset // 8] != payload[position]:
                    report.note_failure(
                        f"pattern {pattern} col {column}: constituent "
                        f"{position} misplaced"
                    )
                    break
    return report
