"""The fast path's model of the caches, the DBI and the controller.

For a fast-compatible configuration (one blocking core, no prefetcher,
single channel, open-row policy; see :func:`assert_fast_compatible`),
every control-flow decision the event hierarchy makes depends only on
addresses, patterns, and dirty bits, never on data or time. Functional
byte movement (the per-line gather/scatter ``lane_map`` in the GS
module) never affects hit/miss/coherence *accounting*.

:class:`DirtyReplay` therefore replays an access stream against a
dict-based model of the two cache levels, the Dirty-Block Index, and
an open-row controller that services each request at submit time,
reproducing the exact statistic accounting of
:class:`repro.cache.hierarchy.CacheHierarchy` and
:class:`repro.mem.controller.MemoryController`:

- a cache line is one int key, ``line_address | pattern``: line
  addresses are line-aligned and patterns lie below the line size, so
  the pattern fits in the offset bits, and int keys sort exactly like
  ``(line_address, pattern)`` pairs;
- each (pattern-independent) set is a dict in recency order, least
  recently used first, mapping a key to ``[dirty, shuffle
  annotation]``; a hit pops the key and reinserts it, and the victim
  is the set's first key;
- stores mark the DBI, drop the stale L2 copy, and evict overlapping
  other-pattern lines (Section 4.1), writing dirty ones back;
- fetches flush dirty overlaps via one DBI overlap query first;
- the controller replays per-bank open-row state in submission order,
  which for one blocking core *is* the event controller's service
  order.

An access with the same key as the access just before it is an L1 hit
on the most recently used line, so it skips the set lookup; a store
among such repeats still takes the full store path.

Functional values are computed separately (numpy) by the callers:
:mod:`repro.vec.db`, :mod:`repro.vec.gemm` and the fig7 sweep in
:mod:`repro.harness.patternscan`. Equivalence with the event machine
is enforced stat-by-stat by :mod:`repro.check.fastpath`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cpu.stream import per_access
from repro.dram.address import AddressMapping
from repro.energy.model import system_energy
from repro.errors import ConfigError, ProtocolError
from repro.obs.session import current_session
from repro.sim.config import Mechanism, SystemConfig
from repro.sim.results import RunResult
from repro.vec.shim import machine_shim

#: Component order used by the stat snapshots (matches the dict the
#: event drivers capture for the equivalence battery).
COMPONENTS = ("controller", "l1", "l2", "hierarchy", "dbi")

#: Entries :meth:`DirtyReplay._overlap_keys` memoises before it starts
#: over. The memo is pure, so clearing it changes no count; without a
#: bound a paper-scale gathered scan keeps one entry per line it saw.
_OVERLAP_MEMO_ENTRIES = 4096


def assert_fast_compatible(config: SystemConfig) -> None:
    """Raise ConfigError unless the fast path is exact for ``config``.

    The conditions are exactly those under which the functional
    behaviour of the event machine is timing-independent (see module
    docstring); anything else must run on :class:`repro.sim.System`.
    """
    problems = []
    if config.cores != 1:
        problems.append(f"cores={config.cores} (needs 1 blocking core)")
    if config.channels != 1:
        problems.append(f"channels={config.channels} (needs 1)")
    if config.prefetch:
        problems.append("prefetch=True (prefetch timing changes fills)")
    if config.store_buffer:
        problems.append(
            f"store_buffer={config.store_buffer} (stores must block)"
        )
    if config.refresh:
        problems.append("refresh=True (refresh closes rows by time)")
    if not config.open_row_policy:
        problems.append("closed-page policy (row state depends on queues)")
    if config.auto_pattern:
        problems.append("auto_pattern=True (detector state is timing-free "
                        "but unvalidated on the fast path)")
    if config.mechanism is Mechanism.IMPULSE:
        problems.append("Impulse mechanism (controller-side gather expands "
                        "requests)")
    if problems:
        raise ConfigError(
            "configuration is not fast-path compatible: " + "; ".join(problems)
        )


def fast_supported(config: SystemConfig) -> bool:
    """True when ``config`` can run on the fast path."""
    try:
        assert_fast_compatible(config)
    except ConfigError:
        return False
    return True


@dataclass
class RowProfile:
    """Row-buffer locality of one DRAM access stream."""

    row_hits: int = 0
    row_misses: int = 0
    activates: int = 0
    precharges: int = 0
    #: bank -> {"reads", "row_hits", "row_misses", "activates",
    #: "precharges"}
    per_bank: dict[int, dict[str, int]] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "row_hits": self.row_hits,
            "row_misses": self.row_misses,
            "activates": self.activates,
            "precharges": self.precharges,
            "per_bank": {
                str(bank): dict(counts)
                for bank, counts in sorted(self.per_bank.items())
            },
        }


class DirtyReplay:
    """Stat-exact hierarchy/DBI/controller replay without data bytes."""

    def __init__(self, config: SystemConfig) -> None:
        assert_fast_compatible(config)
        self.config = config
        geometry = config.geometry
        self.geometry = geometry
        line_bytes = geometry.line_bytes
        mapping = AddressMapping(geometry, config.mapping_policy)
        self._offset_bits = mapping.offset_bits
        self._pattern_mask = line_bytes - 1
        # A line key's bank is (key >> _bank_shift) & _bank_mask and its
        # row key >> _row_shift: the row is the mapping's top field.
        self._column_shift = mapping.column_shift
        self._bank_shift = mapping.bank_shift
        self._bank_mask = mapping.bank_mask
        self._row_shift = mapping.row_shift
        self._chips = geometry.chips
        self._supports_patterns = config.mechanism is Mechanism.GS_DRAM

        def sets_of(size: int, assoc: int) -> int:
            return size // (assoc * line_bytes)

        self._l1_assoc = config.l1_assoc
        self._l2_assoc = config.l2_assoc
        self._l1_mask = sets_of(config.l1_size, config.l1_assoc) - 1
        self._l2_mask = sets_of(config.l2_size, config.l2_assoc) - 1
        #: set index -> {line key: [dirty, shuffle annotation]}, least
        #: recently used first
        self._l1_sets: list[dict] = [{} for _ in range(self._l1_mask + 1)]
        self._l2_sets: list[dict] = [{} for _ in range(self._l2_mask + 1)]
        #: (bank, row) -> set of dirty line keys
        self._dbi: dict[tuple[int, int], set[int]] = {}
        self._open_rows: list[int | None] = [None] * geometry.banks
        self._overlaps: dict[tuple[int, int, int], tuple] = {}
        #: per bank: [serviced, row_hits, row_misses, activates, precharges]
        self._bank_counts = [[0] * 5 for _ in range(geometry.banks)]
        self.counts = {
            "l1_hits": 0, "l1_misses": 0, "l1_fills": 0, "l1_evictions": 0,
            "l1_dirty_evictions": 0, "l1_invalidations": 0,
            "l2_hits": 0, "l2_misses": 0, "l2_fills": 0, "l2_evictions": 0,
            "l2_dirty_evictions": 0, "l2_invalidations": 0,
            "writebacks": 0, "coherence_invalidations": 0,
            "coherence_flushes": 0, "prefetch_flushes": 0,
            "dbi_marks": 0, "dbi_cleans": 0, "dbi_overlap_queries": 0,
            "requests": 0, "requests_read": 0, "requests_write": 0,
            "requests_patterned": 0, "row_hits": 0, "row_misses": 0,
            "cmd_PRE": 0, "cmd_ACT": 0, "cmd_RD": 0, "cmd_WR": 0,
        }

    # ------------------------------------------------------------------
    def _overlap_keys(self, line_address: int, pattern: int, alt: int):
        """Other-pattern line keys sharing data with this line (cached).

        Returns ``(keys_tuple, keys_set)``; empty when the module has no
        pattern support or both patterns are zero — mirroring
        :meth:`CacheHierarchy._overlap_keys`. The memo is cleared when
        it holds :data:`_OVERLAP_MEMO_ENTRIES` entries.
        """
        memo_key = (line_address, pattern, alt)
        got = self._overlaps.get(memo_key)
        if got is None:
            if len(self._overlaps) >= _OVERLAP_MEMO_ENTRIES:
                self._overlaps.clear()
            other = alt if pattern == 0 else 0
            nonzero = pattern if pattern != 0 else alt
            if nonzero == 0 or not self._supports_patterns:
                got = ((), frozenset())
            else:
                # Chip c's slice of the line sits at column
                # column ^ (c & nonzero) of the same bank and row.
                shift = self._column_shift
                keys = tuple(sorted({
                    (line_address ^ ((chip & nonzero) << shift)) | other
                    for chip in range(self._chips)
                }))
                got = (keys, frozenset(keys))
            self._overlaps[memo_key] = got
        return got

    def _check_batch(self, line_addresses, patterns, *others) -> None:
        """Reject a ragged batch, what the controller rejects, and what a
        line key cannot hold."""
        shapes = {array.shape for array in (line_addresses, patterns, *others)}
        if len(shapes) > 1:
            raise ValueError(f"access arrays differ in shape: {sorted(shapes)}")
        line_bytes = self.geometry.line_bytes
        bad = (patterns < 0) | (patterns >= line_bytes)
        if bad.any():
            index = int(bad.argmax())
            raise ProtocolError(
                f"pattern must lie in [0, {line_bytes})",
                index=index, pattern=int(patterns[index]),
            )
        unaligned = (line_addresses & self._pattern_mask) != 0
        if unaligned.any():
            index = int(unaligned.argmax())
            raise ProtocolError(
                "line address is not line-aligned",
                index=index, address=int(line_addresses[index]),
            )

    # ------------------------------------------------------------------
    def run(self, line_addresses, patterns, alt_patterns, writes, shuffled) -> None:
        """Replay one batch of accesses (appends to the running state).

        All five arguments are equal-length sequences or numpy arrays;
        ``shuffled`` is the page-table shuffle flag per access. Before
        replaying anything, raises ``ValueError`` if the lengths differ
        and :class:`ProtocolError` for a negative pattern, a pattern of
        ``line_bytes`` or more, or a line address that is not
        line-aligned.

        The batch is walked through :func:`~repro.cpu.stream.per_access`,
        a slice at a time: beyond the arrays it is given, a replay holds
        one int64 key per access and one slice of Python values.
        """
        lines = np.asarray(line_addresses, dtype=np.int64)
        pattern_array = np.asarray(patterns, dtype=np.int64)
        alt_array = np.asarray(alt_patterns, dtype=np.int64)
        write_array = np.asarray(writes, dtype=bool)
        shuffle_array = np.asarray(shuffled, dtype=bool)
        self._check_batch(lines, pattern_array, alt_array, write_array,
                          shuffle_array)
        keys = lines | pattern_array

        c = self.counts
        l1_hits = c["l1_hits"]; l1_misses = c["l1_misses"]
        l1_fills = c["l1_fills"]; l1_evictions = c["l1_evictions"]
        l1_dirty_ev = c["l1_dirty_evictions"]; l1_inval = c["l1_invalidations"]
        l2_hits = c["l2_hits"]; l2_misses = c["l2_misses"]
        l2_fills = c["l2_fills"]; l2_evictions = c["l2_evictions"]
        l2_dirty_ev = c["l2_dirty_evictions"]; l2_inval = c["l2_invalidations"]
        writebacks = c["writebacks"]; coh_inval = c["coherence_invalidations"]
        coh_flushes = c["coherence_flushes"]; pf_flushes = c["prefetch_flushes"]
        dbi_marks = c["dbi_marks"]; dbi_cleans = c["dbi_cleans"]
        dbi_queries = c["dbi_overlap_queries"]
        requests = c["requests"]; req_read = c["requests_read"]
        req_write = c["requests_write"]; req_patt = c["requests_patterned"]
        row_hits = c["row_hits"]; row_misses = c["row_misses"]
        cmd_pre = c["cmd_PRE"]; cmd_act = c["cmd_ACT"]
        cmd_rd = c["cmd_RD"]; cmd_wr = c["cmd_WR"]

        l1_sets = self._l1_sets
        l2_sets = self._l2_sets
        l1_mask = self._l1_mask
        l2_mask = self._l2_mask
        l1_assoc = self._l1_assoc
        l2_assoc = self._l2_assoc
        offset_bits = self._offset_bits
        pattern_mask = self._pattern_mask
        dbi = self._dbi
        open_rows = self._open_rows
        bank_counts = self._bank_counts
        bank_shift = self._bank_shift
        bank_mask = self._bank_mask
        row_shift = self._row_shift
        overlap_keys = self._overlap_keys
        supports = self._supports_patterns

        def submit(bank, row, pattern, is_write):
            # The controller at submit time: request stats, then the
            # bank's open-row state machine, then the column command.
            nonlocal requests, req_read, req_write, req_patt
            nonlocal row_hits, row_misses, cmd_pre, cmd_act, cmd_rd, cmd_wr
            requests += 1
            if is_write:
                req_write += 1
            else:
                req_read += 1
            if pattern:
                req_patt += 1
            per_bank = bank_counts[bank]
            per_bank[0] += 1
            if open_rows[bank] == row:
                row_hits += 1
                per_bank[1] += 1
            else:
                if open_rows[bank] is not None:
                    cmd_pre += 1
                    per_bank[4] += 1
                cmd_act += 1
                open_rows[bank] = row
                row_misses += 1
                per_bank[2] += 1
                per_bank[3] += 1
            if is_write:
                cmd_wr += 1
            else:
                cmd_rd += 1

        def writeback(key):
            # CacheHierarchy._writeback minus the functional write:
            # DBI mark_clean, writebacks stat, timed WRITE request.
            nonlocal dbi_cleans, writebacks
            bank = (key >> bank_shift) & bank_mask
            row = key >> row_shift
            entries = dbi.get((bank, row))
            if entries is not None:
                entries.discard(key)
                if not entries:
                    del dbi[(bank, row)]
                dbi_cleans += 1
            writebacks += 1
            submit(bank, row, key & pattern_mask, True)

        def evict_everywhere(key):
            # L2 before L1, writing dirty copies back (the single-core
            # form of CacheHierarchy._evict_everywhere).
            nonlocal l1_inval, l2_inval, coh_inval, coh_flushes
            flushed = False
            entry = l2_sets[(key >> offset_bits) & l2_mask].pop(key, None)
            if entry is not None:
                l2_inval += 1
                coh_inval += 1
                if entry[0]:
                    writeback(key)
                    flushed = True
            entry = l1_sets[(key >> offset_bits) & l1_mask].pop(key, None)
            if entry is not None:
                l1_inval += 1
                coh_inval += 1
                if entry[0]:
                    writeback(key)
                    flushed = True
            if flushed:
                coh_flushes += 1

        def store(entry, key, alt, shuffled_flag):
            # A store into an L1 line: DBI mark, stale L2 copy
            # dropped (a dirty L1 line must not coexist with one), then
            # the overlapping other-pattern lines evicted.
            nonlocal dbi_marks, l2_inval
            if not entry[0]:
                entry[0] = True
                row_key = ((key >> bank_shift) & bank_mask, key >> row_shift)
                row_set = dbi.get(row_key)
                if row_set is None:
                    row_set = dbi[row_key] = set()
                row_set.add(key)
                dbi_marks += 1
            entry[1] = shuffled_flag
            if l2_sets[(key >> offset_bits) & l2_mask].pop(key, None) is not None:
                l2_inval += 1
            pattern = key & pattern_mask
            if supports and (pattern or alt):
                for other in overlap_keys(key ^ pattern, pattern, alt)[0]:
                    evict_everywhere(other)

        def fill_l2(key, dirty, annotation):
            # Cache.fill on L2 for a line it does not hold (a fetch, or
            # a dirty L1 victim, which has no L2 copy): evict the least
            # recently used line, writing it back if dirty, and insert.
            nonlocal l2_fills, l2_evictions, l2_dirty_ev
            target = l2_sets[(key >> offset_bits) & l2_mask]
            if len(target) >= l2_assoc:
                victim_key = next(iter(target))
                victim = target.pop(victim_key)
                l2_evictions += 1
                if victim[0]:
                    l2_dirty_ev += 1
                    writeback(victim_key)
            target[key] = [dirty, annotation]
            l2_fills += 1

        prev_key = None
        entry = None  # the L1 entry of prev_key
        for key, is_write, alt, shuffled_flag in per_access(
                keys, write_array, alt_array, shuffle_array):
            if key == prev_key:
                # A repeat of the previous key: an L1 hit on the most
                # recently used line.
                l1_hits += 1
            else:
                prev_key = key
                l1_set = l1_sets[(key >> offset_bits) & l1_mask]
                entry = l1_set.pop(key, None)
                if entry is not None:
                    l1_hits += 1
                else:
                    l1_misses += 1
                    l2_set = l2_sets[(key >> offset_bits) & l2_mask]
                    l2_entry = l2_set.pop(key, None)
                    if l2_entry is not None:
                        l2_set[key] = l2_entry
                        l2_hits += 1
                    else:
                        # Flush dirty overlaps, fetch, fill L2
                        # (CacheHierarchy._start_fetch + _fill_complete
                        # for one synchronous demand waiter).
                        l2_misses += 1
                        pattern = key & pattern_mask
                        bank = (key >> bank_shift) & bank_mask
                        row = key >> row_shift
                        if supports and (pattern or alt):
                            overlaps, overlap_set = overlap_keys(
                                key ^ pattern, pattern, alt
                            )
                            if overlaps:
                                dbi_queries += 1
                                dirty = dbi.get((bank, row))
                                if dirty:
                                    for other in sorted(dirty & overlap_set):
                                        pf_flushes += 1
                                        evict_everywhere(other)
                        submit(bank, row, pattern, False)
                        fill_l2(key, False, shuffled_flag)
                    # Demand fills insert clean lines; a dirty victim
                    # demotes to L2 (CacheHierarchy._demote_dirty).
                    if len(l1_set) >= l1_assoc:
                        victim_key = next(iter(l1_set))
                        victim = l1_set.pop(victim_key)
                        l1_evictions += 1
                        if victim[0]:
                            l1_dirty_ev += 1
                            annotation = victim[1]
                            fill_l2(victim_key, True, supports
                                    if annotation is None else annotation)
                    entry = [False, None]
                    l1_fills += 1
                l1_set[key] = entry
            if is_write:
                store(entry, key, alt, shuffled_flag)

        c["l1_hits"] = l1_hits; c["l1_misses"] = l1_misses
        c["l1_fills"] = l1_fills; c["l1_evictions"] = l1_evictions
        c["l1_dirty_evictions"] = l1_dirty_ev; c["l1_invalidations"] = l1_inval
        c["l2_hits"] = l2_hits; c["l2_misses"] = l2_misses
        c["l2_fills"] = l2_fills; c["l2_evictions"] = l2_evictions
        c["l2_dirty_evictions"] = l2_dirty_ev; c["l2_invalidations"] = l2_inval
        c["writebacks"] = writebacks
        c["coherence_invalidations"] = coh_inval
        c["coherence_flushes"] = coh_flushes
        c["prefetch_flushes"] = pf_flushes
        c["dbi_marks"] = dbi_marks; c["dbi_cleans"] = dbi_cleans
        c["dbi_overlap_queries"] = dbi_queries
        c["requests"] = requests; c["requests_read"] = req_read
        c["requests_write"] = req_write; c["requests_patterned"] = req_patt
        c["row_hits"] = row_hits; c["row_misses"] = row_misses
        c["cmd_PRE"] = cmd_pre; c["cmd_ACT"] = cmd_act
        c["cmd_RD"] = cmd_rd; c["cmd_WR"] = cmd_wr

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def _nonzero(self, pairs) -> dict:
        return {name: value for name, value in pairs if value}

    def controller_stats(self) -> dict:
        c = self.counts
        return self._nonzero(
            (name, c[name])
            for name in (
                "requests", "requests_read", "requests_write",
                "requests_patterned", "row_hits", "row_misses",
                "cmd_PRE", "cmd_ACT", "cmd_RD", "cmd_WR",
            )
        )

    def _cache_stats(self, level: str) -> dict:
        c = self.counts
        return self._nonzero(
            (name, c[f"{level}_{name}"])
            for name in (
                "hits", "misses", "fills", "evictions",
                "dirty_evictions", "invalidations",
            )
        )

    def hierarchy_stats(self) -> dict:
        c = self.counts
        return self._nonzero(
            (name, c[name])
            for name in (
                "writebacks", "coherence_invalidations",
                "coherence_flushes", "prefetch_flushes",
            )
        )

    def dbi_stats(self) -> dict:
        c = self.counts
        return self._nonzero(
            (("marks", c["dbi_marks"]), ("cleans", c["dbi_cleans"]),
             ("overlap_queries", c["dbi_overlap_queries"]))
        )

    def component_stats(self) -> dict:
        """The per-component stat dicts the equivalence battery diffs."""
        return {
            "controller": self.controller_stats(),
            "l1": self._cache_stats("l1"),
            "l2": self._cache_stats("l2"),
            "hierarchy": self.hierarchy_stats(),
            "dbi": self.dbi_stats(),
        }

    def row_profile(self) -> RowProfile:
        """Per-bank row-buffer locality of the replayed DRAM stream."""
        c = self.counts
        profile = RowProfile(
            row_hits=c["row_hits"],
            row_misses=c["row_misses"],
            activates=c["cmd_ACT"],
            precharges=c["cmd_PRE"],
        )
        for bank, (serviced, hits, misses, acts, pres) in enumerate(
            self._bank_counts
        ):
            if not serviced:
                continue
            profile.per_bank[bank] = {
                "reads": serviced,
                "row_hits": hits,
                "row_misses": misses,
                "activates": acts,
                "precharges": pres,
            }
        return profile

    def collect_result(
        self, *, instructions: int, loads: int, stores: int
    ) -> RunResult:
        """The event run's :class:`RunResult` with timing outputs zero."""
        c = self.counts
        l1_accesses = c["l1_hits"] + c["l1_misses"]
        l2_accesses = c["l2_hits"] + c["l2_misses"]
        command_counts = {
            name: c[name]
            for name in (
                "requests", "requests_read", "requests_write",
                "requests_patterned", "row_hits", "row_misses",
                "cmd_PRE", "cmd_ACT", "cmd_RD", "cmd_WR",
            )
            if c[name]
        }
        energy = system_energy(
            runtime_cycles=0,
            instructions=instructions,
            l1_accesses=l1_accesses,
            l2_accesses=l2_accesses,
            command_counts=command_counts,
            cores=self.config.cores,
            cpu_ghz=self.config.cpu_ghz,
        )
        extra = {
            "engine_events": 0.0,
            "mean_memory_queue_delay": 0.0,
            "auto_gathers": 0.0,
            "stores_overlapped": 0.0,
            "mshr_merges": 0.0,
            "snoop_flushes": 0.0,
            "fast_path": 1.0,
        }
        return RunResult(
            mechanism=self.config.mechanism.value,
            cycles=0,
            instructions=instructions,
            loads=loads,
            stores=stores,
            l1_hits=c["l1_hits"],
            l1_misses=c["l1_misses"],
            l2_hits=c["l2_hits"],
            l2_misses=c["l2_misses"],
            dram_reads=c["cmd_RD"],
            dram_writes=c["cmd_WR"],
            row_hits=c["row_hits"],
            row_misses=c["row_misses"],
            prefetches=0,
            coherence_invalidations=c["coherence_invalidations"],
            writebacks=c["writebacks"],
            energy=energy,
            extra=extra,
        )

    def attach_session(self, result: RunResult) -> None:
        """Register the replay with the active observability session.

        Fast runs build no machine, so a :func:`machine_shim` carrying
        the replay's component stats stands in for it; nothing happens
        when no session is active.
        """
        session = current_session()
        if session is None:
            return
        stats = self.component_stats()
        session.attach(
            machine_shim(
                self.config,
                core_counts={
                    "instructions": result.instructions,
                    "loads": result.loads,
                    "stores": result.stores,
                    "misses_blocked": result.l2_misses,
                    "finished": 1,
                },
                l1_counts=stats["l1"],
                l2_counts=stats["l2"],
                hierarchy_counts=stats["hierarchy"],
                dbi_counts=stats["dbi"],
                controller_counts=stats["controller"],
            )
        )

