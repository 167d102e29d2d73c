"""Priority job queue with admission control and request coalescing.

The queue is the server's single source of truth about jobs. It is
deliberately synchronous and loop-agnostic — the asyncio server calls
it only from the event-loop thread, and the unit tests drive it
directly with a fake clock — with one asyncio touchpoint: every
:class:`Job` carries a ``done`` event so waiters (the ``wait=true``
submit path, the graceful-shutdown drain) can block without polling.

Three policies live here:

- **Priority**: ``pop`` returns the highest-priority queued job,
  FIFO within a priority level (a heap over ``(-priority, seq)``).
- **Admission control**: a per-client token bucket (sustained rate +
  burst) applied to *every* submission, and a per-client in-flight cap
  applied to submissions that would create a new job. Both deny with a
  ``retry_after`` hint the server turns into a ``Retry-After`` header.
- **Coalescing**: jobs are keyed by the result-cache key of their spec
  (:func:`repro.perf.specs.cache_key`), so two clients submitting the
  same run — the common shape of the paper's (pattern, stride,
  mechanism) grids, where many sweeps share points — attach to one
  underlying execution instead of racing to run it twice. The second
  submission gets the first job back, marked ``coalesced``.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.errors import ReproError
from repro.perf.specs import RunSpec, cache_key
from repro.serve import protocol
from repro.serve.protocol import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
)
from repro.utils.statistics import Histogram, StatGroup


class AdmissionDenied(ReproError):
    """A submission was rejected by admission control.

    ``code`` is a protocol error code; ``retry_after`` is the seconds
    the client should back off (the server sends it as ``Retry-After``).
    """

    def __init__(self, message: str, code: str, retry_after: float) -> None:
        super().__init__(message, code=code)
        self.code = code
        self.retry_after = retry_after


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second, ``burst`` capacity.

    ``rate <= 0`` disables the bucket (every take granted). ``try_take``
    returns 0.0 on success, otherwise the seconds until a token will be
    available (never consumes on failure).
    """

    def __init__(
        self,
        rate: float,
        burst: int,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.rate = float(rate)
        self.burst = max(1, int(burst))
        self._clock = clock
        self._tokens = float(self.burst)
        self._updated = clock()

    def _refill(self) -> None:
        now = self._clock()
        elapsed = max(0.0, now - self._updated)
        self._updated = now
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)

    def try_take(self) -> float:
        if self.rate <= 0:
            return 0.0
        self._refill()
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return 0.0
        return (1.0 - self._tokens) / self.rate


@dataclass
class Job:
    """One unit of service work: a spec, its lifecycle, its waiters."""

    job_id: str
    spec: RunSpec
    key: str
    client: str
    priority: int = 0
    state: str = QUEUED
    #: Monotonic submit time (this process's queue clock; age math).
    submitted_at: float = 0.0
    #: Wall-clock submit time — the only submit time that survives a
    #: restart, so it is what the journal persists and recovery orders by.
    submitted_wall: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    error: str | None = None
    #: Served straight from the result cache (no execution happened).
    cached: bool = False
    #: Re-enqueued from the journal by a restarted server.
    recovered: bool = False
    #: How many later submissions coalesced onto this job.
    attached: int = 0
    record: Any = None
    digest: str | None = None
    done: asyncio.Event = field(default_factory=asyncio.Event, repr=False)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def as_wire(self, clock_now: float | None = None) -> dict:
        """JSON-able status view (the result payload travels separately)."""
        wire = {
            "job_id": self.job_id,
            "state": self.state,
            "spec": protocol.spec_to_wire(self.spec),
            "client": self.client,
            "priority": self.priority,
            "submitted_at": self.submitted_at,
            "submitted_wall": self.submitted_wall,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "cached": self.cached,
            "recovered": self.recovered,
            "attached": self.attached,
            "digest": self.digest,
        }
        if clock_now is not None and not self.terminal:
            wire["age_seconds"] = max(0.0, clock_now - self.submitted_at)
        return wire


class JobQueue:
    """Priority queue + admission + coalescing (see module docstring)."""

    def __init__(
        self,
        max_inflight: int = 8,
        rate: float = 0.0,
        burst: int = 1,
        clock: Callable[[], float] = time.monotonic,
        wall_clock: Callable[[], float] = time.time,
    ) -> None:
        self.max_inflight = max(1, int(max_inflight))
        self.rate = float(rate)
        self.burst = int(burst)
        self._clock = clock
        self._wall = wall_clock
        self._jobs: dict[str, Job] = {}
        #: cache key -> non-terminal job (the coalescing index).
        self._active_by_key: dict[str, Job] = {}
        self._heap: list[tuple[int, int, str]] = []
        self._seq = itertools.count()
        self._buckets: dict[str, TokenBucket] = {}
        self._inflight: dict[str, int] = {}
        self.stats = StatGroup("serve.queue")
        #: queue-wait (submit -> start) in integer milliseconds.
        self.wait_ms = Histogram(bucket_width=10)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _admit(self, client: str, creates_job: bool) -> None:
        bucket = self._buckets.get(client)
        if bucket is None:
            bucket = TokenBucket(self.rate, self.burst, clock=self._clock)
            self._buckets[client] = bucket
        retry_after = bucket.try_take()
        if retry_after > 0.0:
            self.stats.add("rejected_rate_limit")
            raise AdmissionDenied(
                f"client {client!r} exceeded {self.rate:g} submissions/s",
                code=protocol.ERR_RATE_LIMITED,
                retry_after=retry_after,
            )
        if creates_job and self._inflight.get(client, 0) >= self.max_inflight:
            self.stats.add("rejected_inflight")
            raise AdmissionDenied(
                f"client {client!r} already has {self.max_inflight} "
                "jobs in flight",
                code=protocol.ERR_TOO_MANY_INFLIGHT,
                retry_after=1.0,
            )

    # ------------------------------------------------------------------
    # Submission / scheduling
    # ------------------------------------------------------------------
    def submit(
        self,
        spec: RunSpec,
        client: str = "anonymous",
        priority: int = 0,
        job_id: str | None = None,
        recovered: bool = False,
        submitted_wall: float | None = None,
    ) -> tuple[Job, bool]:
        """Admit one submission; returns ``(job, coalesced)``.

        Identical specs (same cache key) share one job: the second
        submission is charged against the client's rate limit but not
        its in-flight cap, and returns the existing job.

        Recovered submissions (``recovered=True``, from the journal)
        bypass admission — they were admitted by a previous life of the
        server — and never touch the in-flight accounting: charging
        them against their original clients would eat admission slots
        for work those clients were already granted before the restart.
        They are idempotent: re-recovering a job id that is already
        present returns the existing job. ``submitted_wall`` (the
        journalled wall-clock submit time) rebases the recovered job's
        monotonic ``submitted_at`` so its age spans the restart.
        """
        if recovered and job_id is not None and job_id in self._jobs:
            return self._jobs[job_id], True
        key = cache_key(spec)
        existing = self._active_by_key.get(key)
        if existing is not None:
            if not recovered:
                self._admit(client, creates_job=False)
            existing.attached += 1
            self.stats.add("coalesced")
            return existing, True
        if not recovered:
            self._admit(client, creates_job=True)
        now, wall_now = self._clock(), self._wall()
        if recovered and submitted_wall is not None:
            age = max(0.0, wall_now - submitted_wall)
            submitted_at, wall = now - age, submitted_wall
        else:
            submitted_at, wall = now, wall_now
        job = Job(
            job_id=job_id or f"j-{uuid.uuid4().hex[:12]}",
            spec=spec,
            key=key,
            client=client,
            priority=priority,
            submitted_at=submitted_at,
            submitted_wall=wall,
            recovered=recovered,
        )
        self._jobs[job.job_id] = job
        self._active_by_key[key] = job
        if not recovered:
            self._inflight[client] = self._inflight.get(client, 0) + 1
        heapq.heappush(self._heap, (-priority, next(self._seq), job.job_id))
        self.stats.add("submitted")
        if recovered:
            self.stats.add("recovered")
        return job, False

    def pop(self) -> Job | None:
        """The next queued job by (priority, FIFO), or None.

        Jobs cancelled while queued are skipped (they stay in the map
        for status queries, but never run).
        """
        while self._heap:
            _, _, job_id = heapq.heappop(self._heap)
            job = self._jobs[job_id]
            if job.state == QUEUED:
                return job
        return None

    # ------------------------------------------------------------------
    # Lifecycle transitions
    # ------------------------------------------------------------------
    def mark_running(self, job: Job) -> None:
        self._expect(job, QUEUED, "start")
        job.state = RUNNING
        job.started_at = self._clock()
        self.wait_ms.observe(
            int((job.started_at - job.submitted_at) * 1000)
        )
        self.stats.add("started")

    def finish(self, job: Job, record: Any, cached: bool = False) -> None:
        self._expect(job, (QUEUED, RUNNING), "finish")
        job.record = record
        job.digest = protocol.result_digest(record)
        job.cached = cached
        self._terminate(job, DONE)
        self.stats.add("completed")
        if cached:
            self.stats.add("cache_hits")
        else:
            self.stats.add("executed")

    def fail(self, job: Job, error: str) -> None:
        self._expect(job, (QUEUED, RUNNING), "fail")
        job.error = error
        self._terminate(job, FAILED)
        self.stats.add("failed")

    def cancel(self, job: Job) -> bool:
        """Cancel a queued job; running/terminal jobs are left alone.

        Returns True when the job transitioned to ``cancelled``.
        (Running jobs execute on pool workers that cannot be safely
        interrupted mid-simulation; cancellation is therefore
        queue-only, which the protocol documents as best-effort.)
        """
        if job.state != QUEUED:
            return False
        self._terminate(job, CANCELLED)
        self.stats.add("cancelled")
        return True

    def _expect(self, job: Job, states, action: str) -> None:
        allowed = (states,) if isinstance(states, str) else states
        if job.state not in allowed:
            raise ReproError(
                f"cannot {action} job in state {job.state!r}",
                job_id=job.job_id,
            )

    def _terminate(self, job: Job, state: str) -> None:
        job.state = state
        job.finished_at = self._clock()
        if self._active_by_key.get(job.key) is job:
            del self._active_by_key[job.key]
        # Recovered jobs never charged a slot (see submit), so releasing
        # one here would free a slot a live same-named client is using.
        if not job.recovered:
            remaining = self._inflight.get(job.client, 0) - 1
            if remaining > 0:
                self._inflight[job.client] = remaining
            else:
                self._inflight.pop(job.client, None)
        job.done.set()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Job | None:
        return self._jobs.get(job_id)

    def jobs(self) -> Iterator[Job]:
        """Every known job, in submission order."""
        return iter(sorted(self._jobs.values(), key=lambda j: j.submitted_at))

    def counts(self) -> dict[str, int]:
        counts = dict.fromkeys(protocol.STATES, 0)
        for job in self._jobs.values():
            counts[job.state] += 1
        return counts

    def open_jobs(self) -> list[Job]:
        """Jobs that are queued or running (the drain set)."""
        return [job for job in self._jobs.values() if not job.terminal]

    def __len__(self) -> int:
        return len(self._jobs)
