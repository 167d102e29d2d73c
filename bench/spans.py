"""Outside-in layer tracing: in-memory spans around each layer's entry points.

The traced run wraps the public entry points of every simulator layer
(:data:`ENTRY_POINTS`) and records one span ``(layer, name, start,
end, parent)`` per call. Self time, the span's duration minus the time
its child spans cover, is accumulated online, so the totals cover
every call even when the stored span list is capped.

Nothing here edits the simulator: :func:`installed` patches the
entry points for the duration of one repetition and restores every
original on exit.
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager

LAYERS = ("workload", "db", "sim", "engine", "cpu", "cache", "mem",
          "storage", "energy", "oracle", "vec", "pim")

#: (layer, module, class or None for module functions, attribute names
#: or fnmatch patterns). A class entry also covers every subclass that
#: overrides the attribute.
ENTRY_POINTS = (
    ("workload", "repro.db.engine", None,
     ("make_rows*", "generate_transaction*")),
    ("db", "repro.db.layouts", "StorageLayout",
     ("attach", "load_rows", "read_rows")),
    ("sim", "repro.sim.system", "System", ("__init__",)),
    # schedule_at opens no span itself; it wraps each callback instead.
    ("engine", "repro.utils.events", "Engine", ("run", "schedule_at")),
    ("cache", "repro.cache.hierarchy", "CacheHierarchy", ("access",)),
    ("mem", "repro.mem.controller", "MemoryController", ("submit",)),
    ("storage", "repro.dram.module", "DRAMModule",
     ("read_line", "write_line")),
    ("storage", "repro.dram.rank", "Rank",
     ("mra", "shift_row", "read_row", "write_row")),
    ("energy", "repro.energy.model", None, ("system_energy",)),
    ("oracle", "repro.db.table", "OracleTable", ("apply_all", "column_sum")),
    ("oracle", "repro.db.table", "VecOracleTable",
     ("apply_all", "column_sum")),
    ("vec", "repro.vec.hier", "DirtyReplay", ("run",)),
    ("vec", "repro.vec.db", None, ("fast_*",)),
    ("vec", "repro.vec.gemm", None, ("fast_*",)),
    ("pim", "repro.pim.executor", "PIMExecutor",
     ("mra", "shift", "load_row", "read_lines")),
)

#: Engine callbacks, and the completion callbacks handed to
#: ``CacheHierarchy.access``, are attributed by the module of their
#: owner (so the ``cpu`` layer is the core's own execution); the first
#: matching prefix wins.
MODULE_LAYERS = (
    ("repro.db.workload", "workload"),
    ("repro.db.table", "oracle"),
    ("repro.db", "db"),
    ("repro.sim", "sim"),
    ("repro.cpu", "cpu"),
    ("repro.cache", "cache"),
    ("repro.mem", "mem"),
    ("repro.dram", "storage"),
    ("repro.core", "storage"),
    ("repro.energy", "energy"),
    ("repro.vec", "vec"),
    ("repro.pim", "pim"),
)


def module_layer(module: str) -> str:
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "engine"


class Tracer:
    """Span recorder with online per-layer self time.

    Between :meth:`start` and :meth:`stop`, every instant is charged to
    exactly one bucket: the innermost open span's layer, or
    ``unattributed_s`` while no span is open. So the per-layer self
    times plus ``unattributed_s`` add up to the traced wall time.
    """

    def __init__(self, clock=time.perf_counter, max_spans: int = 50_000):
        self.clock = clock
        self.max_spans = max_spans
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.unattributed_s = 0.0
        #: Bytes the cores asked for through ``CacheHierarchy.access``.
        self.bytes_used = 0
        #: Stored spans (layer, name, start, end, parent index or -1).
        self.spans: list = []
        self.dropped = 0
        self._stack: list[list] = []
        self._begin = 0.0
        self._idle_since = 0.0

    def start(self) -> None:
        self._begin = self._idle_since = self.clock()

    def stop(self) -> float:
        """End the traced interval; returns its wall time."""
        now = self.clock()
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        self.unattributed_s += now - self._idle_since
        return now - self._begin

    def enter(self, layer: str, name: str) -> None:
        now = self.clock()
        stack = self._stack
        if stack:
            parent = stack[-1][3]
        else:
            self.unattributed_s += now - self._idle_since
            parent = -1
        index = len(self.spans)
        if index < self.max_spans:
            self.spans.append(None)
        else:
            index = -1
            self.dropped += 1
        stack.append([layer, now, 0.0, index, name, parent])

    def exit(self) -> None:
        now = self.clock()
        stack = self._stack
        layer, start, child, index, name, parent = stack.pop()
        elapsed = now - start
        self.self_s[layer] += elapsed - child
        self.calls[layer] += 1
        if stack:
            stack[-1][2] += elapsed
        else:
            self._idle_since = now
        if index >= 0:
            self.spans[index] = (layer, name, start, now, parent)

    def call(self, layer, name, fn, /, *args, **kwargs):
        self.enter(layer, name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit()

    def chrome_trace(self) -> dict:
        """The stored spans as a Chrome-trace (Perfetto) document."""
        events = [
            {"name": name, "cat": layer, "ph": "X", "pid": 0, "tid": 0,
             "ts": round((start - self._begin) * 1e6, 3),
             "dur": round((end - start) * 1e6, 3),
             "args": {"parent": parent}}
            for layer, name, start, end, parent in filter(None, self.spans)
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"dropped_spans": self.dropped}}

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)


def _wrap(tracer: Tracer, layer: str, fn):
    name = fn.__qualname__
    call = tracer.call

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return call(layer, name, fn, *args, **kwargs)

    return traced


class _Attributor:
    """Wraps callbacks in a span of their owner's layer."""

    def __init__(self, tracer: Tracer) -> None:
        self.call = tracer.call
        self.sites: dict = {}

    def __call__(self, callback):
        func = getattr(callback, "__func__", callback)
        site = self.sites.get(func)
        if site is None:
            owner = getattr(callback, "__self__", None)
            module = (type(owner).__module__ if owner is not None
                      else getattr(callback, "__module__", "") or "")
            site = self.sites[func] = (
                module_layer(module), getattr(func, "__qualname__", repr(func)))
        return functools.partial(self.call, site[0], site[1], callback)


def _wrap_access(tracer: Tracer, attribute: _Attributor, fn):
    """``CacheHierarchy.access`` also counts the bytes the core uses.

    Its completion callback resumes the core from inside the
    controller, so it gets a span of its owner's layer as well.
    """
    traced = _wrap(tracer, "cache", fn)

    @functools.wraps(fn)
    def access(*args, **kwargs):
        tracer.bytes_used += kwargs.get("size", 8)
        if kwargs.get("callback") is not None:
            kwargs["callback"] = attribute(kwargs["callback"])
        return traced(*args, **kwargs)

    return access


def _wrap_schedule_at(attribute: _Attributor, fn):
    """Wrap every engine callback in a span of its owner's layer."""

    @functools.wraps(fn)
    def schedule_at(self, time, callback, *args):
        return fn(self, time, attribute(callback), *args)

    return schedule_at


def _subclasses(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def targets():
    """Every (holder, attribute, layer) the traced run patches.

    Module functions are patched in every loaded ``repro`` module that
    bound them by name at import time (``from x import f``), since
    patching only the defining module would miss those callers.
    Entry points that no longer exist are skipped; the tests' layer
    coverage check reports a layer that lost all of them.
    """
    found = []
    for layer, module_name, class_name, names in ENTRY_POINTS:
        try:
            module = importlib.import_module(module_name)
        except ModuleNotFoundError:
            continue
        if class_name is not None:
            cls = getattr(module, class_name, None)
            if cls is None:
                continue
            for holder in _subclasses(cls):
                for attr in names:
                    if attr in vars(holder):
                        found.append((holder, attr, layer))
            continue
        functions = [
            value for attr, value in vars(module).items()
            if inspect.isfunction(value)
            and any(fnmatch.fnmatchcase(attr, pattern) for pattern in names)
        ]
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or not loaded_name.startswith("repro"):
                continue
            for attr, value in list(vars(loaded).items()):
                if any(value is fn for fn in functions):
                    found.append((loaded, attr, layer))
    return found


@contextmanager
def installed(tracer: Tracer):
    """Patch every entry point to record into ``tracer``; restore on exit."""
    originals = []
    attribute = _Attributor(tracer)
    try:
        for holder, attr, layer in targets():
            original = vars(holder)[attr]
            if attr == "schedule_at":
                wrapper = _wrap_schedule_at(attribute, original)
            elif attr == "access" and holder.__name__ == "CacheHierarchy":
                wrapper = _wrap_access(tracer, attribute, original)
            else:
                wrapper = _wrap(tracer, layer, original)
            originals.append((holder, attr, original))
            setattr(holder, attr, wrapper)
        yield tracer
    finally:
        for holder, attr, original in reversed(originals):
            setattr(holder, attr, original)
