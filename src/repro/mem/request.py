"""Memory request type flowing from caches to the memory controller."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

from repro.dram.address import DecodedAddress

_request_ids = itertools.count()


class RequestKind(enum.Enum):
    """Demand/prefetch reads and writebacks.

    ``is_write`` is a plain member attribute, not a property: the
    controller and scheduler read it several times per request.
    """

    READ = "read"
    WRITE = "write"
    PREFETCH = "prefetch"

    def __init__(self, value: str) -> None:
        self.is_write = value == "write"


class Phase(enum.Enum):
    """Controller-internal progress of a request's command sequence."""

    QUEUED = "queued"
    NEED_PRECHARGE = "need-precharge"
    NEED_ACTIVATE = "need-activate"
    NEED_COLUMN = "need-column"
    DONE = "done"


@dataclass(slots=True, eq=False)
class MemoryRequest:
    """One cache-line request to the DRAM module.

    ``pattern`` and ``shuffled`` carry the GS-DRAM access semantics
    (Section 4.2): the pattern ID rides with the column command, the
    shuffle flag comes from the page table. ``pc`` feeds the stride
    prefetcher; ``core_id`` attributes stats and completions.

    Slotted: simulations allocate one of these per memory operation,
    and ``__slots__`` keeps them dict-free (ad-hoc metadata belongs in
    ``annotations``). A request is an object with an identity, mutated
    through its life, so equality is identity: removing one from a
    bank queue must not compare every field of the requests ahead.
    """

    address: int
    kind: RequestKind
    pattern: int = 0
    shuffled: bool = True
    pc: int = 0
    core_id: int = 0
    callback: Callable[["MemoryRequest"], None] | None = None
    data: bytes | None = None  # payload for writes, filled for reads
    request_id: int = field(default_factory=partial(next, _request_ids))
    # Filled in by the controller:
    location: DecodedAddress | None = None
    phase: Phase = Phase.QUEUED
    arrival_time: int = 0
    issue_time: int = 0
    finish_time: int = 0
    row_hit: bool | None = None
    annotations: dict[str, Any] = field(default_factory=dict)

    @property
    def is_write(self) -> bool:
        return self.kind.is_write

    @property
    def queue_delay(self) -> int:
        """Cycles from arrival to first data beat."""
        return self.finish_time - self.arrival_time

    def __repr__(self) -> str:
        return (
            f"MemoryRequest(#{self.request_id} {self.kind.value} "
            f"addr={self.address:#x} patt={self.pattern} core={self.core_id})"
        )
