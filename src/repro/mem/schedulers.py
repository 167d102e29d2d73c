"""Memory-request scheduling policies.

The paper's configuration uses FR-FCFS [Rixner+ ISCA'00, Zuravleff
patent] with an open-row policy: ready row-buffer hits are served
before older row-buffer misses. The HTAP result (Figure 11) depends on
this policy's behaviour under contention — a streaming thread's row
hits starve another thread's misses to the same bank — so the policy
is pluggable and an FCFS baseline is provided for the ablation.
"""

from __future__ import annotations

from repro.dram.bank import Bank
from repro.mem.request import MemoryRequest, RequestKind

# Bound once: reading a member off an enum class runs Python-level code.
_PREFETCH = RequestKind.PREFETCH


class Scheduler:
    """Chooses which queued request a newly-free bank serves next."""

    name = "base"

    def choose(self, candidates: list[MemoryRequest], bank: Bank) -> MemoryRequest:
        """Pick one of ``candidates`` (all target ``bank``; non-empty)."""
        raise NotImplementedError

    def reset(self) -> None:
        """Drop any per-run arbitration state.

        Called by a controller when it attaches, so a scheduler
        instance passed explicitly (or reused across back-to-back
        simulations) starts every run from the same state — otherwise
        two identical runs can schedule differently and determinism is
        lost.
        """


class FCFS(Scheduler):
    """Strict arrival order, regardless of the row buffer."""

    name = "FCFS"

    def choose(self, candidates: list[MemoryRequest], bank: Bank) -> MemoryRequest:
        return min(candidates, key=lambda r: (r.arrival_time, r.request_id))


class FRFCFS(Scheduler):
    """First-Ready FCFS: row hits first, then demand over prefetch, then age.

    ``starvation_limit`` optionally caps how many consecutive row hits
    may bypass a waiting row miss (0 disables the cap, which is the
    paper's configuration — the Figure 11 starvation effect requires
    it).
    """

    name = "FR-FCFS"

    def __init__(self, starvation_limit: int = 0) -> None:
        self.starvation_limit = starvation_limit
        # Keyed by the Bank object (not bank_id): two controllers'
        # same-numbered banks must not share a starvation streak.
        self._consecutive_hits: dict[Bank, int] = {}

    def reset(self) -> None:
        self._consecutive_hits.clear()

    def choose(self, candidates: list[MemoryRequest], bank: Bank) -> MemoryRequest:
        # Single pass (this is the controller's hottest loop): track the
        # best hit and best miss by key instead of building pool lists.
        # Key order encodes the policy: reads before writes, demand
        # before prefetch, then age; request_id makes ties impossible.
        open_row = bank.open_row
        best_hit = best_miss = None
        best_hit_key = best_miss_key = None
        for request in candidates:
            location = request.location
            assert location is not None
            kind = request.kind
            key = (
                kind.is_write,
                kind is _PREFETCH,
                request.arrival_time,
                request.request_id,
            )
            if location.row == open_row:
                if best_hit is None or key < best_hit_key:
                    best_hit, best_hit_key = request, key
            else:
                if best_miss is None or key < best_miss_key:
                    best_miss, best_miss_key = request, key
        streak = self._consecutive_hits.get(bank, 0)
        capped = (
            self.starvation_limit > 0
            and streak >= self.starvation_limit
            and best_miss is not None
        )
        if capped or best_hit is None:
            self._consecutive_hits[bank] = 0
            return best_miss
        self._consecutive_hits[bank] = streak + 1
        return best_hit
