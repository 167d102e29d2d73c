"""Two-level cache hierarchy with pattern-overlap coherence.

Models the paper's memory system (Table 1): per-core 32 KB L1s, a
shared 2 MB L2, all with 64-byte lines, backed by one memory channel.

Design notes:

- **Functional + timed.** Lines hold real bytes. Stores apply to cache
  data immediately; fetch fills read the DRAM module functionally at
  completion time; writebacks write the module functionally at eviction
  time and submit a timed WRITE for bandwidth accounting. This keeps
  simulated answers exact while the timing model stays event-driven.
- **Synchronous hit fast path.** ``access`` returns ``(latency, data)``
  synchronously for cache hits so hits cost no simulation events; only
  misses schedule events. ``start_time`` lets a core issue an access
  logically in the future (it accumulates compute cycles locally).
- **Pattern coherence (Section 4.1).** Each data structure uses pattern
  0 plus one alternate pattern (from its page). On a store, the <= c
  overlapping lines of the other pattern are invalidated (flushed first
  if dirty); before a fetch, dirty overlapping lines of the other
  pattern are flushed. The Dirty-Block Index accelerates the dirty
  checks. Invariant: a dirty L1 line never has a stale L2 copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.cache.cache import Cache
from repro.cache.dbi import DirtyBlockIndex
from repro.cache.prefetcher import StridePrefetcher
from repro.errors import CoherenceError
from repro.mem.controller import MemoryController
from repro.mem.request import MemoryRequest, RequestKind
from repro.utils.events import Engine
from repro.utils.statistics import StatGroup

# Bound once: reading a member off an enum class runs Python-level code.
_READ = RequestKind.READ
_WRITE = RequestKind.WRITE
_PREFETCH = RequestKind.PREFETCH

#: A demand access merged into an outstanding miss, as a plain tuple
#: (one is built per miss): (core_id, offset, size, is_write, payload,
#: callback).
_Waiter = tuple[int, int, int, bool, "bytes | None",
                "Callable[[bytes], None] | None"]


@dataclass(slots=True)
class _Miss:
    """One outstanding fetch (MSHR entry)."""

    line_address: int
    pattern: int
    shuffled: bool
    alt_pattern: int
    demand: bool
    waiters: list[_Waiter]
    issued_at: int


class CacheHierarchy:
    """L1s + shared L2 + miss handling over a memory controller."""

    def __init__(
        self,
        engine: Engine,
        controller: MemoryController,
        num_cores: int = 1,
        l1_size: int = 32 * 1024,
        l1_assoc: int = 8,
        l1_latency: int = 4,
        l2_size: int = 2 * 1024 * 1024,
        l2_assoc: int = 8,
        l2_latency: int = 12,
        prefetcher: StridePrefetcher | None = None,
    ) -> None:
        self.engine = engine
        self.controller = controller
        self.module = controller.module
        line_bytes = self.module.line_bytes
        self.line_bytes = line_bytes
        self._line_mask = ~(line_bytes - 1)
        self._capacity = self.module.geometry.capacity_bytes
        self._patterns = self.module.supports_patterns
        self.l1s = [
            Cache(f"l1_core{i}", l1_size, l1_assoc, line_bytes, l1_latency)
            for i in range(num_cores)
        ]
        self.l2 = Cache("l2", l2_size, l2_assoc, line_bytes, l2_latency)
        self.dbi = DirtyBlockIndex()
        self.prefetcher = prefetcher
        self._misses: dict[tuple[int, int], _Miss] = {}
        self.stats = StatGroup("hierarchy")
        #: Optional structured tracer (:mod:`repro.obs.tracer`); hooks
        #: live on miss paths only, so ``None`` costs one check there
        #: and nothing on the synchronous hit fast path.
        self.tracer = None

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _row_key(self, line_address: int) -> tuple[int, int]:
        loc = self.module.decode(line_address)
        return (loc.bank, loc.row)

    def _mark_dirty(self, line_address: int, pattern: int) -> None:
        self.dbi.mark_dirty(self._row_key(line_address), (line_address, pattern))

    def _mark_clean(self, line_address: int, pattern: int) -> None:
        self.dbi.mark_clean(self._row_key(line_address), (line_address, pattern))

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def access(
        self,
        core_id: int,
        address: int,
        *,
        size: int = 8,
        is_write: bool = False,
        payload: bytes | None = None,
        pattern: int = 0,
        shuffled: bool = False,
        alt_pattern: int = 0,
        pc: int = 0,
        start_time: int | None = None,
        callback: Callable[[bytes], None] | None = None,
    ) -> tuple[int, bytes] | None:
        """One load/store/pattload/pattstore.

        Returns ``(latency, data)`` synchronously on a cache hit, or
        ``None`` when the access misses — then ``callback(data)`` fires
        when the fill completes (read ``engine.now`` for the time).
        ``start_time`` is the logical issue time (>= engine.now).
        """
        if start_time is None:
            start_time = self.engine.now
        line_address = address & self._line_mask
        offset = address - line_address
        if offset + size > self.line_bytes:
            raise CoherenceError(
                f"access of {size} bytes crosses a line boundary",
                core=core_id,
                address=address,
                pattern=pattern,
                cycle=start_time,
            )
        if is_write and payload is not None and len(payload) != size:
            raise CoherenceError(
                f"payload size {len(payload)} != access size {size}",
                core=core_id,
                address=address,
                pattern=pattern,
                cycle=start_time,
            )

        l1 = self.l1s[core_id]
        line = l1.lookup(line_address, pattern)
        if line is not None:
            l1.stats.add("hits")
            if is_write:
                # Upgrade: a store hit on a (possibly shared) line must
                # invalidate other cores' copies before writing.
                self._snoop_flush(line_address, pattern, exclude_core=core_id,
                                  start_time=start_time, invalidate=True)
                self._apply_store(core_id, line, offset, payload, pattern,
                                  shuffled, alt_pattern, start_time)
            return (l1.hit_latency, line.read(offset, size))
        l1.stats.add("misses")
        if self.tracer is not None:
            self.tracer.instant(
                "cache", "l1_miss", start_time, tid=core_id,
                args={"address": address, "pattern": pattern,
                      "write": is_write},
            )
        # Train the prefetcher on L1 misses only (standard practice; also
        # keeps gathered-line streams from triggering bogus next-line
        # prefetches on their intra-line hit sequences).
        self._train_prefetcher(core_id, pc, address, pattern, shuffled,
                               alt_pattern, start_time)

        # Another core may hold a dirty copy (write-invalidate protocol).
        self._snoop_flush(line_address, pattern, exclude_core=core_id,
                          start_time=start_time, invalidate=is_write)

        l2_line = self.l2.lookup(line_address, pattern)
        if l2_line is not None:
            self.l2.stats.add("hits")
            data = bytearray(l2_line.data)
            new_line = self._fill_l1(core_id, line_address, pattern, data, start_time)
            if is_write:
                # Dirty L1 lines must not leave a stale L2 copy behind.
                self.l2.invalidate(line_address, pattern)
                self._apply_store(core_id, new_line, offset, payload, pattern,
                                  shuffled, alt_pattern, start_time)
            latency = l1.hit_latency + self.l2.hit_latency
            return (latency, new_line.read(offset, size))
        self.l2.stats.add("misses")

        waiter = (core_id, offset, size, is_write, payload, callback)
        self._start_fetch(
            line_address, pattern, shuffled, alt_pattern, pc,
            demand=True, waiter=waiter, start_time=start_time, core_id=core_id,
        )
        return None

    def drain_dirty(self) -> int:
        """Functionally write back every dirty line (end-of-run check).

        Returns the number of lines written. Timing-free: used by tests
        and oracles that compare final DRAM state.
        """
        written = 0
        for cache in [*self.l1s, self.l2]:
            for line in cache.dirty_lines():
                self.module.write_line(
                    line.line_address, bytes(line.data), line.pattern,
                    shuffled=self._line_shuffled(line),
                )
                line.dirty = False
                self._mark_clean(line.line_address, line.pattern)
                written += 1
        return written

    # ------------------------------------------------------------------
    # Stores and pattern-overlap coherence (Section 4.1)
    # ------------------------------------------------------------------
    def _apply_store(
        self,
        core_id: int,
        line,
        offset: int,
        payload: bytes | None,
        pattern: int,
        shuffled: bool,
        alt_pattern: int,
        start_time: int,
    ) -> None:
        if payload is None:
            raise CoherenceError("store without payload")
        was_dirty = line.dirty
        line.write(offset, payload)
        line.annotation_shuffled = shuffled  # remembered for writeback
        if not was_dirty:
            self._mark_dirty(line.line_address, pattern)
        # A dirty L1 line must not coexist with an L2 copy.
        self.l2.invalidate(line.line_address, pattern)
        self._invalidate_overlaps(
            line.line_address, pattern, alt_pattern, shuffled, start_time
        )

    def _overlap_keys(
        self, line_address: int, pattern: int, alt_pattern: int
    ) -> tuple[tuple[int, int] | None, list[tuple[int, int]]]:
        """Line keys of the *other* pattern sharing data with this line.

        Returned with the line's DRAM row key (``None`` when there are
        no keys), since every overlapping line lives in that row.
        """
        other = alt_pattern if pattern == 0 else 0
        nonzero = pattern if pattern != 0 else alt_pattern
        if nonzero == 0 or not self._patterns:
            return None, []
        loc = self.module.decode(line_address)
        columns = self.module.overlapping_columns(loc.column, nonzero)
        encode = self.module.mapping.encode
        keys = [
            (encode(loc.bank, loc.row, column), other)
            for column in sorted(columns)
        ]
        return (loc.bank, loc.row), keys

    def _invalidate_overlaps(
        self,
        line_address: int,
        pattern: int,
        alt_pattern: int,
        shuffled: bool,
        start_time: int,
    ) -> None:
        """On a store: invalidate overlapping other-pattern lines everywhere."""
        _row_key, keys = self._overlap_keys(line_address, pattern, alt_pattern)
        for other_address, other_pattern in keys:
            self._evict_everywhere(other_address, other_pattern, shuffled, start_time)

    def _flush_dirty_overlaps(
        self,
        line_address: int,
        pattern: int,
        alt_pattern: int,
        shuffled: bool,
        start_time: int,
    ) -> None:
        """Before a fetch: flush dirty overlapping other-pattern lines."""
        row_key, candidates = self._overlap_keys(
            line_address, pattern, alt_pattern
        )
        if not candidates:
            return
        dirty = self.dbi.dirty_overlaps(row_key, set(candidates))
        for other_address, other_pattern in dirty:
            self.stats.add("prefetch_flushes")
            self._evict_everywhere(other_address, other_pattern, shuffled, start_time)

    def _evict_everywhere(
        self, line_address: int, pattern: int, shuffled: bool, start_time: int
    ) -> None:
        """Invalidate (line, pattern) in every cache, writing back if dirty.

        L2 is flushed before L1s so the freshest copy (L1) lands last in
        DRAM.
        """
        flushed = False
        for cache in [self.l2, *self.l1s]:
            line = cache.invalidate(line_address, pattern)
            if line is None:
                continue
            self.stats.add("coherence_invalidations")
            if line.dirty:
                self._writeback(line, start_time)
                flushed = True
        if flushed:
            self.stats.add("coherence_flushes")

    def _snoop_flush(
        self,
        line_address: int,
        pattern: int,
        exclude_core: int,
        start_time: int,
        invalidate: bool,
    ) -> None:
        """Flush (and on stores, invalidate) other cores' copies."""
        for core_id, cache in enumerate(self.l1s):
            if core_id == exclude_core:
                continue
            line = cache.lookup(line_address, pattern, touch=False)
            if line is None:
                continue
            if line.dirty:
                # Migrate the dirty copy down: write back and drop it.
                cache.invalidate(line_address, pattern)
                self._writeback(line, start_time)
                self.stats.add("snoop_flushes")
            elif invalidate:
                cache.invalidate(line_address, pattern)
                self.stats.add("snoop_invalidations")

    # ------------------------------------------------------------------
    # Fills, evictions, writebacks
    # ------------------------------------------------------------------
    def _line_shuffled(self, line) -> bool:
        if line.annotation_shuffled is None:
            return self._patterns
        return line.annotation_shuffled

    def _writeback(self, line, start_time: int) -> None:
        """Functionally persist a dirty line now; account a timed WRITE."""
        shuffled = self._line_shuffled(line)
        self.module.write_line(
            line.line_address, bytes(line.data), line.pattern, shuffled
        )
        self._mark_clean(line.line_address, line.pattern)
        self.stats.add("writebacks")
        request = MemoryRequest(
            address=line.line_address,
            kind=_WRITE,
            pattern=line.pattern,
            shuffled=shuffled,
            annotations={"no_data": True},
        )
        self._submit(request, start_time)

    def _fill_l1(
        self, core_id: int, line_address: int, pattern: int, data: bytearray,
        start_time: int,
    ):
        l1 = self.l1s[core_id]
        victim = l1.fill(line_address, pattern, data)
        if victim is not None and victim.dirty:
            self._demote_dirty(victim, start_time)
        return l1.lookup(line_address, pattern, touch=False)

    def _demote_dirty(self, victim, start_time: int) -> None:
        """A dirty L1 victim falls into L2 (staying dirty)."""
        l2_victim = self.l2.fill(
            victim.line_address, victim.pattern, victim.data, dirty=True
        )
        # Preserve the shuffle flag for the eventual writeback.
        line = self.l2.lookup(victim.line_address, victim.pattern, touch=False)
        if line is not None:
            line.annotation_shuffled = self._line_shuffled(victim)
        if l2_victim is not None and l2_victim.dirty:
            self._writeback(l2_victim, start_time)

    def _fill_l2(self, line_address: int, pattern: int, data: bytearray,
                 shuffled: bool, start_time: int):
        victim = self.l2.fill(line_address, pattern, data)
        line = self.l2.lookup(line_address, pattern, touch=False)
        if line is not None:
            line.annotation_shuffled = shuffled
        if victim is not None and victim.dirty:
            self._writeback(victim, start_time)
        return line

    # ------------------------------------------------------------------
    # Miss path
    # ------------------------------------------------------------------
    def _start_fetch(
        self,
        line_address: int,
        pattern: int,
        shuffled: bool,
        alt_pattern: int,
        pc: int,
        demand: bool,
        waiter: _Waiter | None,
        start_time: int,
        core_id: int,
    ) -> None:
        key = (line_address, pattern)
        miss = self._misses.get(key)
        if miss is not None:
            if waiter is not None:
                miss.waiters.append(waiter)
                self.stats.add("mshr_merges")
            if demand:
                miss.demand = True
            return
        self._misses[key] = _Miss(
            line_address, pattern, shuffled, alt_pattern, demand,
            [waiter] if waiter is not None else [], start_time,
        )
        self._flush_dirty_overlaps(
            line_address, pattern, alt_pattern, shuffled, start_time
        )
        request = MemoryRequest(
            address=line_address,
            kind=_READ if demand else _PREFETCH,
            pattern=pattern,
            shuffled=shuffled,
            pc=pc,
            core_id=core_id,
            callback=self._fill_complete,
            annotations={"no_data": True, "miss_key": key},
        )
        self._submit(request, start_time)

    def _submit(self, request: MemoryRequest, start_time: int) -> None:
        if start_time > self.engine.now:
            self.engine.schedule_at(start_time, self.controller.submit, request)
        else:
            self.controller.submit(request)

    def _fill_complete(self, request: MemoryRequest) -> None:
        miss = self._misses.pop(request.annotations["miss_key"])
        data = bytearray(
            self.module.read_line(miss.line_address, miss.pattern, miss.shuffled)
        )
        now = self.engine.now
        if self.tracer is not None:
            self.tracer.complete(
                "mshr",
                "demand_fetch" if miss.demand else "prefetch_fetch",
                miss.issued_at,
                max(0, now - miss.issued_at),
                args={"line": miss.line_address, "pattern": miss.pattern,
                      "waiters": len(miss.waiters)},
            )
        self._fill_l2(miss.line_address, miss.pattern, data, miss.shuffled, now)
        if not miss.demand:
            self.stats.add("prefetch_fills")
        # Waiters are served in arrival order; `current` threads each
        # store's effect through to later waiters (two merged stores must
        # not clobber each other with the pristine fetched data).
        current = data
        for core_id, offset, size, is_write, payload, callback in miss.waiters:
            line = self._fill_l1(
                core_id, miss.line_address, miss.pattern,
                bytearray(current), now,
            )
            if is_write:
                # Write-invalidate: earlier waiters' copies in other L1s
                # (and the L2 copy) must go before this store lands.
                self._snoop_flush(
                    miss.line_address, miss.pattern,
                    exclude_core=core_id, start_time=now,
                    invalidate=True,
                )
                self.l2.invalidate(miss.line_address, miss.pattern)
                self._apply_store(
                    core_id, line, offset, payload,
                    miss.pattern, miss.shuffled, miss.alt_pattern, now,
                )
                current = bytearray(line.data)
            if callback is not None:
                callback(line.read(offset, size))

    # ------------------------------------------------------------------
    # Prefetching
    # ------------------------------------------------------------------
    def _train_prefetcher(
        self,
        core_id: int,
        pc: int,
        address: int,
        pattern: int,
        shuffled: bool,
        alt_pattern: int,
        start_time: int,
    ) -> None:
        """Fetch each predicted line into L2 with the demand's context.

        A prediction is dropped when it lies past the module, is
        already in flight, or is already in L2.
        """
        if self.prefetcher is None or pc == 0:
            return
        misses = self._misses
        l2 = self.l2
        for target in self.prefetcher.train(pc, address, core_id):
            line_address = target & self._line_mask
            if line_address >= self._capacity:
                continue
            if (line_address, pattern) in misses:
                continue
            if l2.lookup(line_address, pattern, touch=False) is not None:
                continue
            self.stats.add("prefetches_issued")
            self._start_fetch(
                line_address, pattern, shuffled, alt_pattern, pc=0,
                demand=False, waiter=None, start_time=start_time, core_id=0,
            )
