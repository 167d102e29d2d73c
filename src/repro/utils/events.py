"""A small discrete-event simulation engine.

The timing side of the reproduction is event driven: cores, the memory
controller, and the prefetcher schedule callbacks on a shared
:class:`Engine`. Keeping the engine minimal (a heap of timestamped
callbacks) is what makes paper-shaped workloads tractable in pure
Python — the number of events is proportional to the number of memory
operations, not the number of simulated cycles.

Times are integers, in CPU cycles (4 GHz in the paper's configuration).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from repro.errors import SimulationError


class Engine:
    """Heap-based discrete-event engine with a monotonic integer clock."""

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Callable[..., None], tuple[Any, ...]]] = []
        #: Current simulation time in cycles. A plain attribute, not a
        #: property: every access of every core reads it. Only the
        #: engine advances it.
        self.now = 0
        self._seq = 0
        self._running = False
        self.events_processed = 0
        #: Optional structured event tracer (see :mod:`repro.obs.tracer`).
        #: ``None`` keeps the dispatch loop on its untraced fast path.
        self.tracer = None

    def schedule_at(self, time: int, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` to run at absolute ``time``.

        Events at equal times run in scheduling order (FIFO), which makes
        simulations deterministic.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {time}, current time is {self.now}"
            )
        heapq.heappush(self._heap, (time, self._seq, callback, args))
        self._seq += 1

    def schedule(self, delay: int, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self.schedule_at(self.now + delay, callback, *args)

    def pending(self) -> int:
        """Number of events waiting in the queue."""
        return len(self._heap)

    def step(self) -> bool:
        """Run the single earliest event. Return False if the queue is empty."""
        if not self._heap:
            return False
        time, _seq, callback, args = heapq.heappop(self._heap)
        self.now = time
        self.events_processed += 1
        if self.tracer is not None:
            self.tracer.engine_event(time, callback)
        callback(*args)
        return True

    def run(self, max_events: int | None = None) -> None:
        """Run until the event queue drains.

        ``max_events`` guards against runaway simulations (e.g. a
        workload generator that never terminates); exceeding it raises
        :class:`SimulationError` rather than hanging.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        self._running = True
        # Batched dispatch: one tight loop over the heap with the pop
        # function and the heap bound to locals. Identical semantics to
        # repeated step() calls (same order, same clock updates) but
        # without a method call and four attribute lookups per event —
        # this loop is the single hottest path in the simulator.
        heap = self._heap
        pop = heapq.heappop
        count = 0
        tracer = self.tracer
        try:
            if tracer is not None:
                while heap:
                    if count == max_events:
                        raise SimulationError(
                            f"exceeded max_events={max_events}; "
                            "likely a non-terminating workload"
                        )
                    time, _seq, callback, args = pop(heap)
                    self.now = time
                    tracer.engine_event(time, callback)
                    callback(*args)
                    count += 1
            else:
                while heap:
                    # The guard runs *before* dispatch so exactly
                    # ``max_events`` events execute — the same budget a
                    # caller gets from ``max_events`` repeated ``step()``
                    # calls. (``count == None`` is never true, so the
                    # unguarded case costs one comparison.)
                    if count == max_events:
                        raise SimulationError(
                            f"exceeded max_events={max_events}; "
                            "likely a non-terminating workload"
                        )
                    time, _seq, callback, args = pop(heap)
                    self.now = time
                    callback(*args)
                    count += 1
        finally:
            self.events_processed += count
            self._running = False

    def run_until(self, time: int) -> None:
        """Run all events scheduled strictly before ``time``, then set now."""
        while self._heap and self._heap[0][0] < time:
            self.step()
        if time > self.now:
            self.now = time
