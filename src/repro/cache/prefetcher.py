"""PC-based stride prefetcher [Baer & Chen], degree 4 (Section 5.1).

The paper's analytics evaluation uses "a PC-based stride prefetcher
(with prefetching degree of 4) that prefetches data into the L2
cache". Each static load PC gets a table entry tracking its last
address and stride with a two-bit confidence state; once confident, the
prefetcher emits ``degree`` prefetch candidates ahead of the demand
stream.

Prefetches inherit the demand access's pattern ID: a strided pattload
stream prefetches *gathered* lines, which is precisely how GS-DRAM and
a column store both enjoy prefetching in Figure 10.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.utils.statistics import StatGroup


class _State(enum.Enum):
    INITIAL = 0
    TRANSIENT = 1
    STEADY = 2
    NO_PRED = 3


# Bound once: reading a member off an enum class runs Python-level code,
# and the state machine runs on every L1 miss.
_INITIAL = _State.INITIAL
_TRANSIENT = _State.TRANSIENT
_STEADY = _State.STEADY
_NO_PRED = _State.NO_PRED


@dataclass
class _Entry:
    last_address: int
    stride: int = 0
    state: _State = _State.INITIAL


@dataclass(frozen=True)
class PrefetchCandidate:
    """One address the prefetcher wants in L2, with its access context."""

    address: int
    pattern: int
    shuffled: bool
    alt_pattern: int


class StridePrefetcher:
    """Reference-prediction-table stride prefetcher."""

    def __init__(self, degree: int = 4, table_size: int = 256,
                 line_bytes: int = 64) -> None:
        self.degree = degree
        self.table_size = table_size
        self.line_bytes = line_bytes
        self._table: dict[tuple[int, int], _Entry] = {}
        self.stats = StatGroup("prefetcher")

    def observe(
        self,
        pc: int,
        address: int,
        pattern: int,
        shuffled: bool,
        alt_pattern: int,
        core_id: int = 0,
    ) -> list[PrefetchCandidate]:
        """Train on a demand access; return prefetch candidates (if any).

        Each candidate carries the demand access's pattern context.
        """
        return [
            PrefetchCandidate(target, pattern, shuffled, alt_pattern)
            for target in self.train(pc, address, core_id)
        ]

    def train(self, pc: int, address: int, core_id: int = 0) -> list[int]:
        """Train on a demand access; return the addresses to prefetch.

        The table is keyed by (core, pc): each core has its own view of
        a static instruction's stride, as per-core hardware would. The
        cache hierarchy calls this rather than :meth:`observe`: every
        prefetch inherits the demand access's pattern context, so a
        plain address list is all it needs, and most predictions are
        dropped as already in flight or cached.
        """
        key = (core_id, pc)
        entry = self._table.get(key)
        if entry is None:
            if len(self._table) >= self.table_size:
                # Evict an arbitrary (oldest-inserted) entry.
                self._table.pop(next(iter(self._table)))
            self._table[key] = _Entry(last_address=address)
            return []

        # Baer-Chen reference prediction table transitions. On a match:
        # INITIAL/TRANSIENT -> STEADY, NO_PRED -> TRANSIENT (a mispredicted
        # entry needs the full three confirmations before bursting again).
        # On a mismatch: INITIAL -> TRANSIENT, TRANSIENT -> NO_PRED,
        # STEADY -> INITIAL (the learned stride keeps one chance to
        # recover from a lone irregular access, so it is not overwritten).
        stride = address - entry.last_address
        state = entry.state
        if stride == entry.stride and stride != 0:
            if state is _INITIAL or state is _TRANSIENT:
                entry.state = state = _STEADY
            elif state is _NO_PRED:
                entry.state = state = _TRANSIENT
        else:
            if state is _STEADY:
                entry.state = _INITIAL
                entry.last_address = address
                return []
            entry.state = _TRANSIENT if state is _INITIAL else _NO_PRED
            entry.stride = stride
            entry.last_address = address
            return []
        entry.stride = stride
        entry.last_address = address

        if state is not _STEADY:
            return []
        self.stats.add("predictions")
        # Sub-line strides are a stream sweeping consecutive cache lines;
        # prefetch at line granularity so the lookahead depth (in lines)
        # matches what the same prefetcher achieves on larger strides.
        if 0 < abs(stride) < self.line_bytes:
            step = self.line_bytes if stride > 0 else -self.line_bytes
            base = address - (address % self.line_bytes)
        else:
            step = stride
            base = address
        targets = []
        for k in range(1, self.degree + 1):
            target = base + step * k
            if target < 0:
                break
            targets.append(target)
        self.stats.add("candidates", len(targets))
        return targets
