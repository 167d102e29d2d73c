"""Asyncio simulation server: HTTP/JSON in, pooled simulations out.

The server is a thin asyncio shell around three existing layers:

- **Execution** reuses :mod:`repro.perf`: every job is one
  :class:`~repro.perf.specs.RunSpec`, results are read from / written
  to the same :class:`~repro.perf.cache.ResultCache` the CLI tools
  share, and the actual simulation runs on pool workers
  (:class:`JobRunner` keeps one long-lived ``ProcessPoolExecutor``
  instead of ``run_specs``'s per-call pool, with the same
  degrade-to-serial fallback policy when the pool breaks).
- **Scheduling** is :class:`~repro.serve.queue.JobQueue`: priority +
  FIFO, per-client admission control, and coalescing of identical
  specs onto one execution.
- **Observability** is :mod:`repro.obs`: the server owns a
  :class:`~repro.obs.registry.MetricsRegistry` holding the queue's and
  the HTTP front-end's counters, served verbatim by ``/metrics``.

HTTP is deliberately minimal — HTTP/1.1, one request per connection,
JSON bodies — parsed directly off asyncio streams (no ``http.server``,
no threads in the request path). Endpoints:

====================================  =========================================
``GET  /healthz``                     liveness + version handshake
``GET  /metrics``                     metrics-registry snapshot (JSON)
``POST /v1/jobs``                     submit a spec (optionally wait)
``GET  /v1/jobs``                     list jobs
``GET  /v1/jobs/<id>``                one job's status
``GET  /v1/jobs/<id>/result``         status + pickled result when done
``POST /v1/jobs/<id>/cancel``         cancel (queued jobs only; best-effort)
``POST /v1/admin/shutdown``           graceful shutdown (drain, then stop)
====================================  =========================================

Graceful shutdown drains: new submissions get 503 immediately, open
jobs get ``drain_deadline`` seconds to finish, then still-queued jobs
are cancelled and the sockets close. See docs/SERVING.md.
"""

from __future__ import annotations

import asyncio
import json
import logging
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any

import repro
from repro.errors import ConfigError, ReproError
from repro.obs.registry import MetricsRegistry
from repro.perf.cache import ResultCache, code_version, default_cache
from repro.perf.specs import RunSpec, cache_key, execute_spec
from repro.serve import protocol
from repro.serve.protocol import PROTOCOL_VERSION, error_body
from repro.serve.queue import AdmissionDenied, Job, JobQueue
from repro.serve.store import JobStore
from repro.utils.statistics import Histogram, StatGroup

logger = logging.getLogger("repro.serve")

#: Default TCP port (unassigned range; "GS" on a phone keypad is 47).
DEFAULT_PORT = 8747

#: Sentinel distinguishing "no cache argument" from "explicitly None".
_DEFAULT = object()

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}

_MAX_BODY_BYTES = 8 * 1024 * 1024


@dataclass
class ServeConfig:
    """Knobs for one server instance (see docs/SERVING.md)."""

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    #: Concurrent job slots (and pool workers behind them).
    workers: int = 2
    #: "process" (real parallelism, the default) or "thread" (in-process;
    #: tests and debugging).
    executor: str = "process"
    #: Per-client admission control: max open jobs, sustained
    #: submissions/second (0 disables), and burst allowance.
    max_inflight: int = 8
    rate: float = 0.0
    burst: int = 4
    #: Journal directory; None disables persistence/recovery.
    state_dir: str | None = ".repro-serve"
    #: Seconds open jobs get to finish during graceful shutdown.
    drain_deadline: float = 30.0
    #: Server-side cap on one submit's wait=true block.
    max_wait: float = 300.0
    request_log: bool = True


class JobRunner:
    """Executes specs for the server on the shared perf substrate.

    One long-lived executor instead of :func:`repro.perf.pool.run_specs`'s
    per-call pool (a service amortises worker startup across jobs), but
    the same policy: cached results never reach a worker, workload
    errors (:class:`ReproError`) propagate, infrastructure failures
    degrade to serial in-process execution.
    """

    def __init__(
        self,
        workers: int = 2,
        executor: str = "process",
        cache: ResultCache | None | object = _DEFAULT,
    ) -> None:
        if executor not in ("process", "thread"):
            raise ConfigError(
                f"unknown executor {executor!r}; expected 'process' or 'thread'"
            )
        self.workers = max(1, int(workers))
        self.mode = executor
        self.cache = default_cache() if cache is _DEFAULT else cache
        # +1 slot so cache I/O never deadlocks behind busy thread-mode jobs.
        self._threads = ThreadPoolExecutor(
            max_workers=self.workers + 1, thread_name_prefix="repro-serve"
        )
        self._processes: ProcessPoolExecutor | None = None

    def _process_pool(self) -> ProcessPoolExecutor:
        if self._processes is None:
            self._processes = ProcessPoolExecutor(max_workers=self.workers)
        return self._processes

    async def run(self, spec: RunSpec) -> tuple[Any, bool]:
        """Execute (or fetch) one spec; returns ``(record, cached)``."""
        loop = asyncio.get_running_loop()
        key = cache_key(spec) if self.cache is not None else None
        if self.cache is not None:
            hit = await loop.run_in_executor(self._threads, self.cache.get, key)
            if hit is not None:
                return hit, True
        record = await self._execute(loop, spec)
        if self.cache is not None:
            await loop.run_in_executor(
                self._threads, self.cache.put, key, record
            )
        return record, False

    async def _execute(self, loop: asyncio.AbstractEventLoop, spec: RunSpec):
        if self.mode == "process":
            try:
                return await loop.run_in_executor(
                    self._process_pool(), execute_spec, spec
                )
            except ReproError:
                raise  # deterministic workload failure: not the pool's fault
            except asyncio.CancelledError:
                raise
            except Exception:
                # Broken pool, pickling trouble, killed worker: drop the
                # pool and degrade this job to serial in-process.
                if isinstance(self._processes, ProcessPoolExecutor):
                    self._processes.shutdown(wait=False, cancel_futures=True)
                self._processes = None
        return await loop.run_in_executor(self._threads, execute_spec, spec)

    def close(self) -> None:
        self._threads.shutdown(wait=False, cancel_futures=True)
        if self._processes is not None:
            self._processes.shutdown(wait=False, cancel_futures=True)
            self._processes = None


class SimulationServer:
    """The asyncio service; create, ``await start()``, ``await shutdown()``."""

    def __init__(
        self,
        config: ServeConfig | None = None,
        cache: ResultCache | None | object = _DEFAULT,
    ) -> None:
        self.config = config or ServeConfig()
        self.queue = JobQueue(
            max_inflight=self.config.max_inflight,
            rate=self.config.rate,
            burst=self.config.burst,
        )
        self.runner = JobRunner(
            workers=self.config.workers,
            executor=self.config.executor,
            cache=cache,
        )
        self.store = (
            JobStore(self.config.state_dir)
            if self.config.state_dir is not None
            else None
        )
        self.http_stats = StatGroup("serve.http")
        self.latency_ms = Histogram(bucket_width=5)
        self.registry = MetricsRegistry()
        self.registry.register("serve.queue", self.queue.stats)
        self.registry.register("serve.queue.wait_ms", self.queue.wait_ms)
        self.registry.register("serve.http", self.http_stats)
        self.registry.register("serve.http.latency_ms", self.latency_ms)
        self._server: asyncio.AbstractServer | None = None
        self._work: asyncio.Condition | None = None
        self._scheduler_task: asyncio.Task | None = None
        self._running: set[asyncio.Task] = set()
        self._draining = False
        self._closed = False
        self._stopped: asyncio.Event | None = None
        self._started_at = 0.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0`` for an ephemeral one)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        self._work = asyncio.Condition()
        self._stopped = asyncio.Event()
        self._started_at = time.monotonic()
        self._recover()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self._scheduler_task = asyncio.create_task(self._scheduler())
        logger.info(
            json.dumps({
                "event": "started",
                "host": self.config.host,
                "port": self.port,
                "workers": self.config.workers,
                "executor": self.runner.mode,
                "version": code_version(),
            })
        )

    def _recover(self) -> None:
        """Re-enqueue jobs the previous server left open (idempotent)."""
        if self.store is None:
            return
        for view in self.store.recover():
            try:
                spec = protocol.spec_from_wire(view["spec"])
            except ReproError as error:
                logger.warning(
                    json.dumps({
                        "event": "recovery-skip",
                        "job_id": view.get("job_id"),
                        "error": str(error),
                    })
                )
                continue
            job, existing = self.queue.submit(
                spec,
                client=view.get("client", "recovered"),
                priority=view.get("priority", 0),
                job_id=view.get("job_id"),
                recovered=True,
                submitted_wall=view.get("submitted_wall"),
            )
            if not existing:
                self.store.append(protocol.QUEUED, job.as_wire())

    async def wait_stopped(self) -> None:
        assert self._stopped is not None, "server not started"
        await self._stopped.wait()

    async def shutdown(self, drain: bool = True, deadline: float | None = None) -> None:
        """Drain (up to ``deadline`` seconds), cancel leftovers, close.

        Safe to call more than once; later calls just wait for the
        first to finish.
        """
        if self._draining:
            await self.wait_stopped()
            return
        self._draining = True
        deadline = self.config.drain_deadline if deadline is None else deadline
        open_jobs = self.queue.open_jobs()
        if drain and open_jobs:
            waits = [job.done.wait() for job in open_jobs]
            try:
                await asyncio.wait_for(asyncio.gather(*waits), timeout=deadline)
            except asyncio.TimeoutError:
                pass
        # Whatever did not finish in time: queued jobs are cancelled
        # (journalled, so a restart will NOT resurrect them — the
        # operator asked for them to stop), running tasks are cut loose.
        for job in self.queue.open_jobs():
            if self.queue.cancel(job):
                self._journal(protocol.CANCELLED, job)
        self._closed = True
        assert self._work is not None
        async with self._work:
            self._work.notify_all()
        if self._scheduler_task is not None:
            await self._scheduler_task
        for task in list(self._running):
            task.cancel()
        if self._running:
            await asyncio.gather(*self._running, return_exceptions=True)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.runner.close()
        logger.info(json.dumps({"event": "stopped", "jobs": self.queue.counts()}))
        assert self._stopped is not None
        self._stopped.set()

    # ------------------------------------------------------------------
    # Scheduling / execution
    # ------------------------------------------------------------------
    async def _scheduler(self) -> None:
        assert self._work is not None
        while True:
            async with self._work:
                job = None
                while job is None:
                    if self._closed:
                        return
                    if len(self._running) < self.config.workers:
                        job = self.queue.pop()
                        if job is not None:
                            break
                    await self._work.wait()
            task = asyncio.create_task(self._execute_job(job))
            self._running.add(task)
            task.add_done_callback(self._running.discard)

    async def _execute_job(self, job: Job) -> None:
        self.queue.mark_running(job)
        self._journal(protocol.RUNNING, job)
        try:
            record, cached = await self.runner.run(job.spec)
        except asyncio.CancelledError:
            self.queue.fail(job, "server shut down while running")
            self._journal(protocol.FAILED, job)
            raise
        except ReproError as error:
            self.queue.fail(job, str(error))
            self._journal(protocol.FAILED, job)
        except Exception as error:  # degraded execution failed too
            self.queue.fail(job, f"{type(error).__name__}: {error}")
            self._journal(protocol.FAILED, job)
        else:
            self.queue.finish(job, record, cached=cached)
            self._journal(protocol.DONE, job)
        finally:
            # Release this worker slot *before* waking the scheduler.
            # The done-callback discard only fires after the coroutine
            # returns, i.e. after the notify below — a fully-loaded
            # scheduler would wake, still see every slot occupied, and
            # sleep through the release (a lost wakeup).
            self._running.discard(asyncio.current_task())
            if not self._closed:
                assert self._work is not None
                async with self._work:
                    self._work.notify_all()

    def _journal(self, state: str, job: Job) -> None:
        if self.store is not None:
            self.store.append(state, job.as_wire())

    # ------------------------------------------------------------------
    # HTTP front-end
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        started = time.monotonic()
        status = 500
        method, path, client = "?", "?", "?"
        try:
            request = await _read_request(reader)
            if request is None:
                return
            method, path, body = request
            status, payload, headers = await self._route(method, path, body)
            client = (payload or {}).get("_client", "?")
        except protocol.ProtocolError as error:
            status, payload, headers = 400, error_body(
                protocol.ERR_BAD_REQUEST, str(error)
            ), {}
        except asyncio.CancelledError:
            raise
        except Exception as error:  # never let a request kill the server
            logger.exception("request handler crashed")
            status, payload, headers = 500, error_body(
                protocol.ERR_INTERNAL, f"{type(error).__name__}: {error}"
            ), {}
        payload = dict(payload or {})
        payload.pop("_client", None)
        try:
            await _write_response(writer, status, payload, headers)
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()
            duration_ms = int((time.monotonic() - started) * 1000)
            self.http_stats.add("requests")
            self.http_stats.add(f"responses_{status // 100}xx")
            self.latency_ms.observe(duration_ms)
            if self.config.request_log:
                logger.info(
                    json.dumps({
                        "event": "request",
                        "method": method,
                        "path": path,
                        "status": status,
                        "duration_ms": duration_ms,
                        "client": client,
                    })
                )

    async def _route(
        self, method: str, path: str, body: dict | None
    ) -> tuple[int, dict, dict]:
        """Dispatch one request; returns (status, json body, extra headers)."""
        path = path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz" and method == "GET":
            return 200, self._health_body(), {}
        if path == "/metrics" and method == "GET":
            self.http_stats.add("requests_metrics")
            return 200, self.registry.snapshot().as_dict(), {}
        if path == "/v1/jobs" and method == "POST":
            return await self._handle_submit(body)
        if path == "/v1/jobs" and method == "GET":
            return 200, {
                "protocol": PROTOCOL_VERSION,
                "jobs": [job.as_wire(time.monotonic())
                         for job in self.queue.jobs()],
            }, {}
        if path == "/v1/admin/shutdown" and method == "POST":
            drain = bool((body or {}).get("drain", True))
            asyncio.get_running_loop().create_task(
                self.shutdown(drain=drain)
            )
            return 202, {"state": "shutting-down", "drain": drain}, {}
        if path.startswith("/v1/jobs/"):
            return await self._route_job(method, path)
        return 404, error_body(
            protocol.ERR_NOT_FOUND, f"no route for {method} {path}"
        ), {}

    def _health_body(self) -> dict:
        return {
            "status": "draining" if self._draining else "ok",
            "protocol": PROTOCOL_VERSION,
            "version": code_version(),
            "package": repro.__version__,
            "uptime_seconds": round(time.monotonic() - self._started_at, 3),
            "workers": self.config.workers,
            "executor": self.runner.mode,
            "jobs": self.queue.counts(),
        }

    async def _handle_submit(self, body: dict | None) -> tuple[int, dict, dict]:
        self.http_stats.add("requests_submit")
        if self._draining:
            return 503, error_body(
                protocol.ERR_DRAINING, "server is draining; resubmit elsewhere"
            ), {"Retry-After": "1"}
        fields = protocol.parse_submit_request(body)
        try:
            job, coalesced = self.queue.submit(
                fields["spec"],
                client=fields["client"],
                priority=fields["priority"],
            )
        except AdmissionDenied as denied:
            code = 429
            return code, {
                **error_body(denied.code, str(denied),
                             retry_after=denied.retry_after),
                "_client": fields["client"],
            }, {"Retry-After": f"{denied.retry_after:.3f}"}
        if not coalesced:
            self._journal(protocol.QUEUED, job)
            assert self._work is not None
            async with self._work:
                self._work.notify_all()
        if fields["wait"]:
            timeout = min(
                self.config.max_wait,
                fields["timeout"] if fields["timeout"] is not None
                else self.config.max_wait,
            )
            try:
                await asyncio.wait_for(job.done.wait(), timeout=timeout)
            except asyncio.TimeoutError:
                pass
        status = 200 if job.terminal else 202
        payload: dict = {
            "protocol": PROTOCOL_VERSION,
            "version": code_version(),
            "job": job.as_wire(time.monotonic()),
            "coalesced": coalesced,
            "_client": fields["client"],
        }
        if job.state == protocol.DONE and fields["wait"]:
            payload["result"] = protocol.encode_result(job.record)
        return status, payload, {}

    async def _route_job(self, method: str, path: str) -> tuple[int, dict, dict]:
        parts = path.split("/")  # ['', 'v1', 'jobs', '<id>', ('result'|'cancel')?]
        job = self.queue.get(parts[3]) if len(parts) >= 4 else None
        if job is None:
            return 404, error_body(
                protocol.ERR_NOT_FOUND, f"unknown job {parts[3]!r}"
            ), {}
        action = parts[4] if len(parts) == 5 else None
        if action is None and method == "GET":
            return 200, {
                "protocol": PROTOCOL_VERSION,
                "job": job.as_wire(time.monotonic()),
            }, {}
        if action == "result" and method == "GET":
            payload = {
                "protocol": PROTOCOL_VERSION,
                "job": job.as_wire(time.monotonic()),
                "ready": job.state == protocol.DONE,
            }
            if job.state == protocol.DONE:
                payload["result"] = protocol.encode_result(job.record)
            return 200, payload, {}
        if action == "cancel" and method == "POST":
            cancelled = self.queue.cancel(job)
            if cancelled:
                self._journal(protocol.CANCELLED, job)
            return 200, {
                "protocol": PROTOCOL_VERSION,
                "cancelled": cancelled,
                "job": job.as_wire(time.monotonic()),
            }, {}
        return 405, error_body(
            protocol.ERR_BAD_REQUEST, f"{method} not allowed on {path}"
        ), {}


# ----------------------------------------------------------------------
# Minimal HTTP/1.1 over asyncio streams
# ----------------------------------------------------------------------
async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict | None] | None:
    """Parse one request; returns (method, path, json body) or None on EOF."""
    try:
        request_line = await reader.readline()
    except (ConnectionError, OSError):
        return None
    if not request_line:
        return None
    try:
        method, path, _ = request_line.decode("latin-1").split(" ", 2)
    except ValueError:
        raise protocol.ProtocolError("malformed HTTP request line") from None
    content_length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            try:
                content_length = int(value.strip())
            except ValueError:
                raise protocol.ProtocolError("bad Content-Length") from None
    if content_length > _MAX_BODY_BYTES:
        raise protocol.ProtocolError(
            f"request body too large ({content_length} bytes)"
        )
    body: dict | None = None
    if content_length:
        raw = await reader.readexactly(content_length)
        try:
            body = json.loads(raw)
        except ValueError:
            raise protocol.ProtocolError("request body is not valid JSON") from None
    return method.upper(), path, body


async def _write_response(
    writer: asyncio.StreamWriter,
    status: int,
    payload: dict,
    extra_headers: dict | None = None,
) -> None:
    body = json.dumps(payload).encode("utf-8")
    headers = {
        "Content-Type": "application/json",
        "Content-Length": str(len(body)),
        "Connection": "close",
        "X-Repro-Protocol": str(PROTOCOL_VERSION),
        "X-Repro-Version": code_version(),
        **(extra_headers or {}),
    }
    reason = _REASONS.get(status, "Unknown")
    head = f"HTTP/1.1 {status} {reason}\r\n" + "".join(
        f"{name}: {value}\r\n" for name, value in headers.items()
    ) + "\r\n"
    writer.write(head.encode("latin-1") + body)
    await writer.drain()


async def serve(config: ServeConfig | None = None) -> int:
    """Run a server until a signal or an admin shutdown stops it."""
    import signal

    server = SimulationServer(config)
    await server.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(
                signum,
                lambda: asyncio.get_running_loop().create_task(
                    server.shutdown(drain=True)
                ),
            )
        except (NotImplementedError, RuntimeError):  # non-unix / nested loops
            pass
    print(
        f"repro serve: listening on http://{server.config.host}:{server.port} "
        f"(workers={server.config.workers}, executor={server.runner.mode})"
    )
    await server.wait_stopped()
    return 0
