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

- cache lines are ``(line_address, pattern)``-keyed entries holding an
  LRU stamp, a dirty bit, and the writeback shuffle annotation;
- victims are min-stamp within the (pattern-independent) set;
- stores mark the DBI, drop the stale L2 copy, and evict overlapping
  other-pattern lines (Section 4.1), writing dirty ones back;
- fetches flush dirty overlaps via one DBI overlap query first;
- the controller replays per-bank open-row state in submission order,
  which for one blocking core *is* the event controller's service
  order.

Functional values are computed separately (numpy) by the callers:
:mod:`repro.vec.db`, :mod:`repro.vec.gemm` and the fig7 sweep in
:mod:`repro.harness.patternscan`. Equivalence with the event machine
is enforced stat-by-stat by :mod:`repro.check.fastpath`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.energy.model import system_energy
from repro.errors import ConfigError
from repro.obs.session import current_session
from repro.sim.config import Mechanism, SystemConfig
from repro.sim.results import RunResult
from repro.vec.shim import machine_shim

#: Component order used by the stat snapshots (matches the dict the
#: event drivers capture for the equivalence battery).
COMPONENTS = ("controller", "l1", "l2", "hierarchy", "dbi")


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
        self._offset_bits = line_bytes.bit_length() - 1
        self._column_bits = geometry.columns_per_row.bit_length() - 1
        self._bank_bits = geometry.banks.bit_length() - 1
        self._column_mask = geometry.columns_per_row - 1
        self._bank_mask = geometry.banks - 1
        self._row_bank_column = (
            config.mapping_policy.value == "row-bank-column"
        )
        self._chips = geometry.chips
        self._supports_patterns = config.mechanism is Mechanism.GS_DRAM

        def sets_of(size: int, assoc: int) -> int:
            return size // (assoc * line_bytes)

        self._l1_assoc = config.l1_assoc
        self._l2_assoc = config.l2_assoc
        self._l1_mask = sets_of(config.l1_size, config.l1_assoc) - 1
        self._l2_mask = sets_of(config.l2_size, config.l2_assoc) - 1
        #: set index -> {(line_address, pattern): [stamp, dirty, ann]}
        self._l1_sets: list[dict] = [{} for _ in range(self._l1_mask + 1)]
        self._l2_sets: list[dict] = [{} for _ in range(self._l2_mask + 1)]
        self._l1_tick = 0
        self._l2_tick = 0
        #: (bank, row) -> set of dirty (line_address, pattern) keys
        self._dbi: dict[tuple[int, int], set] = {}
        self._open_rows: list[int | None] = [None] * geometry.banks
        self._coords: dict[int, tuple[int, int, int]] = {}
        self._overlaps: dict[tuple[int, int, int], tuple] = {}
        #: bank -> [serviced, row_hits, row_misses, activates, precharges]
        self._bank_counts: dict[int, list[int]] = {}
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
    def coords(self, line_address: int) -> tuple[int, int, int]:
        """(bank, row, column) of a line address, memoized."""
        got = self._coords.get(line_address)
        if got is None:
            line = line_address >> self._offset_bits
            if self._row_bank_column:
                column = line & self._column_mask
                line >>= self._column_bits
                bank = line & self._bank_mask
                row = line >> self._bank_bits
            else:
                bank = line & self._bank_mask
                line >>= self._bank_bits
                column = line & self._column_mask
                row = line >> self._column_bits
            got = (bank, row, column)
            self._coords[line_address] = got
        return got

    def _encode(self, bank: int, row: int, column: int) -> int:
        if self._row_bank_column:
            line = ((row << self._bank_bits) | bank) << self._column_bits | column
        else:
            line = ((row << self._column_bits) | column) << self._bank_bits | bank
        return line << self._offset_bits

    def _overlap_keys(self, line_address: int, pattern: int, alt: int):
        """Other-pattern line keys sharing data with this line (cached).

        Returns ``(keys_tuple, keys_set)``; empty when the module has no
        pattern support or both patterns are zero — mirroring
        :meth:`CacheHierarchy._overlap_keys`.
        """
        memo_key = (line_address, pattern, alt)
        got = self._overlaps.get(memo_key)
        if got is None:
            other = alt if pattern == 0 else 0
            nonzero = pattern if pattern != 0 else alt
            if nonzero == 0 or not self._supports_patterns:
                got = ((), frozenset())
            else:
                bank, row, column = self.coords(line_address)
                columns = {
                    (chip & nonzero) ^ (column & self._column_mask)
                    for chip in range(self._chips)
                }
                keys = tuple(
                    (self._encode(bank, row, c), other) for c in sorted(columns)
                )
                got = (keys, frozenset(keys))
            self._overlaps[memo_key] = got
        return got

    # ------------------------------------------------------------------
    def run(self, line_addresses, patterns, alt_patterns, writes, shuffled) -> None:
        """Replay one batch of accesses (appends to the running state).

        All five arguments are equal-length sequences; ``shuffled`` is
        the page-table shuffle flag per access. numpy arrays are
        accepted (converted to plain lists for the hot loop).
        """
        ls = _as_list(line_addresses)
        ps = _as_list(patterns)
        alts = _as_list(alt_patterns)
        ws = _as_list(writes)
        shs = _as_list(shuffled)

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
        l1_tick = self._l1_tick
        l2_tick = self._l2_tick
        l1_mask = self._l1_mask
        l2_mask = self._l2_mask
        l1_assoc = self._l1_assoc
        l2_assoc = self._l2_assoc
        offset_bits = self._offset_bits
        dbi = self._dbi
        open_rows = self._open_rows
        bank_counts = self._bank_counts
        coords = self.coords
        overlap_keys = self._overlap_keys
        supports = self._supports_patterns

        def submit(line_address, pattern, is_write):
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
            bank, row, _ = coords(line_address)
            per_bank = bank_counts.get(bank)
            if per_bank is None:
                per_bank = bank_counts[bank] = [0, 0, 0, 0, 0]
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

        def writeback(line_address, pattern):
            # CacheHierarchy._writeback minus the functional write:
            # DBI mark_clean, writebacks stat, timed WRITE request.
            nonlocal dbi_cleans, writebacks
            bank, row, _ = coords(line_address)
            entries = dbi.get((bank, row))
            if entries is not None:
                entries.discard((line_address, pattern))
                if not entries:
                    del dbi[(bank, row)]
                dbi_cleans += 1
            writebacks += 1
            submit(line_address, pattern, True)

        def evict_everywhere(line_address, pattern):
            # L2 before L1, writing dirty copies back (the single-core
            # form of CacheHierarchy._evict_everywhere).
            nonlocal l1_inval, l2_inval, coh_inval, coh_flushes
            key = (line_address, pattern)
            flushed = False
            entry = l2_sets[(line_address >> offset_bits) & l2_mask].pop(key, None)
            if entry is not None:
                l2_inval += 1
                coh_inval += 1
                if entry[1]:
                    writeback(line_address, pattern)
                    flushed = True
            entry = l1_sets[(line_address >> offset_bits) & l1_mask].pop(key, None)
            if entry is not None:
                l1_inval += 1
                coh_inval += 1
                if entry[1]:
                    writeback(line_address, pattern)
                    flushed = True
            if flushed:
                coh_flushes += 1

        def apply_store(entry, line_address, pattern, alt, shuffled_flag):
            nonlocal dbi_marks, l2_inval
            was_dirty = entry[1]
            entry[1] = True
            entry[2] = shuffled_flag
            if not was_dirty:
                bank, row, _ = coords(line_address)
                row_set = dbi.get((bank, row))
                if row_set is None:
                    row_set = dbi[(bank, row)] = set()
                row_set.add((line_address, pattern))
                dbi_marks += 1
            # A dirty L1 line must not coexist with an L2 copy.
            stale = l2_sets[(line_address >> offset_bits) & l2_mask].pop(
                (line_address, pattern), None
            )
            if stale is not None:
                l2_inval += 1
            if supports:
                keys, _ = overlap_keys(line_address, pattern, alt)
                for other_address, other_pattern in keys:
                    evict_everywhere(other_address, other_pattern)

        def fill_l2(line_address, pattern, dirty):
            # Cache.fill on L2: in-place replace, or min-stamp eviction
            # + insert. Returns (entry, victim_key, victim_entry).
            nonlocal l2_tick, l2_fills, l2_evictions, l2_dirty_ev
            target = l2_sets[(line_address >> offset_bits) & l2_mask]
            key = (line_address, pattern)
            existing = target.get(key)
            if existing is not None:
                existing[1] = existing[1] or dirty
                l2_tick += 1
                existing[0] = l2_tick
                return existing, None, None
            victim_key = victim_entry = None
            if len(target) >= l2_assoc:
                victim_key = min(target, key=lambda k: target[k][0])
                victim_entry = target.pop(victim_key)
                l2_evictions += 1
                if victim_entry[1]:
                    l2_dirty_ev += 1
            l2_tick += 1
            entry = [l2_tick, dirty, None]
            target[key] = entry
            l2_fills += 1
            return entry, victim_key, victim_entry

        def fill_l1(line_address, pattern):
            # Demand fills insert clean lines; a dirty victim demotes to
            # L2 (CacheHierarchy._demote_dirty), whose own victim may
            # write back.
            nonlocal l1_tick, l1_fills, l1_evictions, l1_dirty_ev
            target = l1_sets[(line_address >> offset_bits) & l1_mask]
            key = (line_address, pattern)
            existing = target.get(key)
            if existing is not None:
                l1_tick += 1
                existing[0] = l1_tick
                return existing
            if len(target) >= l1_assoc:
                victim_key = min(target, key=lambda k: target[k][0])
                victim_entry = target.pop(victim_key)
                l1_evictions += 1
                if victim_entry[1]:
                    l1_dirty_ev += 1
                    l2_entry, l2_victim_key, l2_victim = fill_l2(
                        victim_key[0], victim_key[1], True
                    )
                    ann = victim_entry[2]
                    l2_entry[2] = ann if ann is not None else supports
                    if l2_victim is not None and l2_victim[1]:
                        writeback(l2_victim_key[0], l2_victim_key[1])
            l1_tick += 1
            entry = [l1_tick, False, None]
            target[key] = entry
            l1_fills += 1
            return entry

        for i in range(len(ls)):
            line_address = ls[i]
            pattern = ps[i]
            key = (line_address, pattern)
            is_write = ws[i]

            l1_set = l1_sets[(line_address >> offset_bits) & l1_mask]
            entry = l1_set.get(key)
            if entry is not None:
                l1_tick += 1
                entry[0] = l1_tick
                l1_hits += 1
                if is_write:
                    apply_store(entry, line_address, pattern, alts[i], shs[i])
                continue
            l1_misses += 1

            l2_set = l2_sets[(line_address >> offset_bits) & l2_mask]
            entry = l2_set.get(key)
            if entry is not None:
                l2_tick += 1
                entry[0] = l2_tick
                l2_hits += 1
                new_entry = fill_l1(line_address, pattern)
                if is_write:
                    stale = l2_set.pop(key, None)
                    if stale is not None:
                        l2_inval += 1
                    apply_store(new_entry, line_address, pattern, alts[i], shs[i])
                continue
            l2_misses += 1

            # Miss path: flush dirty overlaps, fetch, fill L2 then L1,
            # then land the store (CacheHierarchy._start_fetch +
            # _fill_complete for one synchronous demand waiter).
            alt = alts[i]
            shuffled_flag = shs[i]
            if supports:
                keys, key_set = overlap_keys(line_address, pattern, alt)
                if keys:
                    bank, row, _ = coords(line_address)
                    dbi_queries += 1
                    entries = dbi.get((bank, row))
                    if entries:
                        dirty = entries & key_set
                        for other_address, other_pattern in sorted(dirty):
                            pf_flushes += 1
                            evict_everywhere(other_address, other_pattern)
            submit(line_address, pattern, False)
            l2_entry, l2_victim_key, l2_victim = fill_l2(
                line_address, pattern, False
            )
            l2_entry[2] = shuffled_flag
            if l2_victim is not None and l2_victim[1]:
                writeback(l2_victim_key[0], l2_victim_key[1])
            new_entry = fill_l1(line_address, pattern)
            if is_write:
                stale = l2_sets[(line_address >> offset_bits) & l2_mask].pop(
                    key, None
                )
                if stale is not None:
                    l2_inval += 1
                apply_store(new_entry, line_address, pattern, alt, shuffled_flag)

        self._l1_tick = l1_tick
        self._l2_tick = l2_tick
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
        for bank, (serviced, hits, misses, acts, pres) in sorted(
            self._bank_counts.items()
        ):
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


def _as_list(values) -> list:
    """Plain-list view of a sequence (numpy arrays via ``tolist``)."""
    if isinstance(values, list):
        return values
    tolist = getattr(values, "tolist", None)
    if tolist is not None:
        return tolist()
    return list(values)
