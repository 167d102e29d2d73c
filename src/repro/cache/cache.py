"""A set-associative, write-back cache with pattern-tagged lines.

The set index is derived from the line address only; the pattern ID
extends the *tag* (Section 4.1), so a pattern-0 line and a gathered
line for the same column may coexist in one set. Replacement is LRU,
kept by dict order: each set's dict runs from least to most recently
used, a touch moves the line to the end, and the victim is the first
key.

The cache is a passive container: miss handling, writebacks, and
coherence live in :class:`repro.cache.hierarchy.CacheHierarchy`.
"""

from __future__ import annotations

from repro.cache.line import CacheLine
from repro.errors import ConfigError
from repro.utils.bitops import ilog2, is_power_of_two
from repro.utils.statistics import StatGroup


class Cache:
    """One cache level (L1 or L2) as a set-associative line store."""

    def __init__(
        self,
        name: str,
        size_bytes: int,
        associativity: int,
        line_bytes: int = 64,
        hit_latency: int = 4,
    ) -> None:
        if size_bytes % (associativity * line_bytes) != 0:
            raise ConfigError(
                f"{name}: size {size_bytes} not divisible by "
                f"assoc*line ({associativity}*{line_bytes})"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.associativity = associativity
        self.line_bytes = line_bytes
        self.hit_latency = hit_latency
        self.num_sets = size_bytes // (associativity * line_bytes)
        if not is_power_of_two(self.num_sets):
            raise ConfigError(f"{name}: set count {self.num_sets} not a power of two")
        self._offset_bits = ilog2(line_bytes)
        self._set_mask = self.num_sets - 1
        #: One dict per set, in recency order (least recent first).
        self._sets: list[dict[tuple[int, int], CacheLine]] = [
            {} for _ in range(self.num_sets)
        ]
        self.stats = StatGroup(name)

    # ------------------------------------------------------------------
    def set_index(self, line_address: int) -> int:
        """Set selected by a line address (pattern-independent)."""
        return (line_address >> self._offset_bits) & self._set_mask

    # ------------------------------------------------------------------
    def lookup(self, line_address: int, pattern: int, touch: bool = True) -> CacheLine | None:
        """Return the resident line for (address, pattern), or None.

        ``touch`` makes the line the most recently used of its set.
        """
        # ``set_index`` inlined: this runs on every access.
        lines = self._sets[(line_address >> self._offset_bits) & self._set_mask]
        key = (line_address, pattern)
        if not touch:
            return lines.get(key)
        line = lines.pop(key, None)
        if line is not None:
            lines[key] = line
        return line

    def fill(
        self,
        line_address: int,
        pattern: int,
        data: bytearray,
        dirty: bool = False,
        shuffled: bool | None = None,
    ) -> tuple[CacheLine, CacheLine | None]:
        """Insert a line; returns ``(line, victim)``.

        ``line`` is the resident line and ``victim`` the evicted one
        (None if no eviction). If the line is already resident its data
        is replaced in place (used when a newer copy arrives from an
        inner level). ``shuffled`` becomes the line's
        ``annotation_shuffled``; a resident line keeps its own when
        ``shuffled`` is None.
        """
        lines = self._sets[self.set_index(line_address)]
        key = (line_address, pattern)
        line = lines.pop(key, None)
        if line is not None:
            line.data = data
            line.dirty = line.dirty or dirty
            if shuffled is not None:
                line.annotation_shuffled = shuffled
            lines[key] = line
            return line, None
        victim = None
        if len(lines) >= self.associativity:
            victim = lines.pop(next(iter(lines)))
            self.stats.add("evictions")
            if victim.dirty:
                self.stats.add("dirty_evictions")
        line = CacheLine(line_address, pattern, data, dirty)
        line.annotation_shuffled = shuffled
        lines[key] = line
        self.stats.add("fills")
        return line, victim

    def invalidate(self, line_address: int, pattern: int) -> CacheLine | None:
        """Remove (address, pattern) if resident; returns the removed line.

        The caller decides what to do with a dirty victim (write back or
        discard); the cache only tracks the invalidation.
        """
        lines = self._sets[self.set_index(line_address)]
        line = lines.pop((line_address, pattern), None)
        if line is not None:
            self.stats.add("invalidations")
        return line

    # ------------------------------------------------------------------
    def resident_lines(self) -> list[CacheLine]:
        """All resident lines (diagnostics and drain logic)."""
        return [line for s in self._sets for line in s.values()]

    def dirty_lines(self) -> list[CacheLine]:
        """All dirty resident lines (flush-at-end-of-run support)."""
        return [line for line in self.resident_lines() if line.dirty]

    def occupancy(self) -> float:
        """Fraction of capacity in use."""
        used = sum(len(s) for s in self._sets)
        return used / (self.num_sets * self.associativity)
