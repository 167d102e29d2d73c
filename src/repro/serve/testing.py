"""Run a simulation server in a background thread, for tests and checks.

The server is pure asyncio; pytest and the correctness battery are
synchronous. :class:`ServerThread` bridges the two: it spins up an
event loop in a daemon thread, starts a :class:`SimulationServer` on an
ephemeral port, and exposes a matching blocking :class:`ServeClient`.
Used by ``tests/test_serve``, :mod:`repro.check.service`, and the CI
serve-smoke job's in-process variant.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
import time

from repro.errors import ReproError
from repro.serve.client import ServeClient
from repro.serve.server import ServeConfig, SimulationServer


class ServerThread:
    """``with ServerThread(config) as handle: handle.client().submit(...)``.

    The config's port is forced to 0 (ephemeral) unless set explicitly;
    the bound port is available as ``.port`` once the context is
    entered. Exit shuts the server down (draining by default).
    """

    def __init__(
        self,
        config: ServeConfig | None = None,
        cache=None,
        drain_on_exit: bool = True,
        start_timeout: float = 10.0,
    ) -> None:
        self.config = config or ServeConfig(
            port=0, executor="thread", state_dir=None
        )
        self._cache = cache
        self.drain_on_exit = drain_on_exit
        self.start_timeout = start_timeout
        self.server: SimulationServer | None = None
        self.port: int | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._error: BaseException | None = None

    # ------------------------------------------------------------------
    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-test", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(self.start_timeout):
            raise ReproError("test server did not start in time")
        if self._error is not None:
            raise ReproError(f"test server failed to start: {self._error}")
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            self.server = SimulationServer(self.config, cache=self._cache)
            loop.run_until_complete(self.server.start())
            self.port = self.server.port
        except BaseException as error:  # surfaced to start()
            self._error = error
            self._ready.set()
            return
        self._ready.set()
        try:
            loop.run_until_complete(self.server.wait_stopped())
        finally:
            loop.close()

    def stop(self, drain: bool | None = None) -> None:
        if self.server is None or self._loop is None:
            return
        drain = self.drain_on_exit if drain is None else drain
        if not self._loop.is_closed():
            try:
                future = asyncio.run_coroutine_threadsafe(
                    self.server.shutdown(drain=drain), self._loop
                )
            except RuntimeError:  # loop closed between the check and the call
                future = None
            if future is not None:
                # An admin-triggered shutdown may finish the loop before
                # our coroutine runs, stranding the future — so poll the
                # server thread too instead of blocking on the future.
                deadline = time.monotonic() + 60.0
                while True:
                    try:
                        future.result(timeout=0.1)
                        break
                    except concurrent.futures.TimeoutError:
                        if self._thread is None or not self._thread.is_alive():
                            break
                        if time.monotonic() >= deadline:
                            raise
                    except (concurrent.futures.CancelledError, RuntimeError):
                        break
        if self._thread is not None:
            self._thread.join(timeout=10.0)

    # ------------------------------------------------------------------
    def client(self, client_id: str = "test", timeout: float = 60.0) -> ServeClient:
        assert self.port is not None, "server not started"
        return ServeClient(
            host=self.config.host,
            port=self.port,
            client_id=client_id,
            timeout=timeout,
        )

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
