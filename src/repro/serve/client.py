"""Blocking HTTP client for the simulation service.

:class:`ServeClient` is the one wrapper the CLI verbs (``repro
submit`` / ``repro jobs``), the tests, and the service-level
differential check share. It speaks the :mod:`repro.serve.protocol`
schema over plain ``http.client`` (stdlib, synchronous — callers are
CLIs and test harnesses, not event loops).

The first request performs the version handshake: the server's
``code_version`` is remembered and compared against this process's
own; a mismatch means client and server are running different source
trees, so their cache keys — and therefore "same spec" — disagree.
:meth:`handshake` surfaces the skew; ``repro submit`` prints it as a
warning rather than failing, since skewed-but-compatible protocols
still interoperate.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any

from repro.errors import ReproError
from repro.perf.cache import code_version
from repro.perf.specs import RunSpec
from repro.serve import protocol


class ServeError(ReproError):
    """An error response from the service (or a transport failure)."""

    def __init__(
        self,
        message: str,
        status: int = 0,
        code: str = "",
        retry_after: float | None = None,
    ) -> None:
        super().__init__(message, status=status or None, code=code or None)
        self.status = status
        self.code = code
        self.retry_after = retry_after


class RateLimited(ServeError):
    """HTTP 429: back off ``retry_after`` seconds and resubmit."""


class ServeClient:
    """One server endpoint; stateless apart from the handshake result."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8747,
        client_id: str = "cli",
        timeout: float = 60.0,
    ) -> None:
        self.host = host
        self.port = port
        self.client_id = client_id
        self.timeout = timeout
        #: Server's code version, learned from the first response.
        self.server_version: str | None = None
        self.server_protocol: int | None = None

    # ------------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        timeout: float | None = None,
    ) -> dict:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=timeout or self.timeout
        )
        try:
            payload = json.dumps(body).encode("utf-8") if body is not None else None
            headers = {"X-Repro-Version": code_version()}
            if payload is not None:
                headers["Content-Type"] = "application/json"
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            self.server_version = response.getheader("X-Repro-Version",
                                                     self.server_version)
            header_protocol = response.getheader("X-Repro-Protocol")
            if header_protocol is not None:
                self.server_protocol = int(header_protocol)
            try:
                data = json.loads(raw) if raw else {}
            except ValueError:
                raise ServeError(
                    f"non-JSON response from {self.host}:{self.port}",
                    status=response.status,
                ) from None
            if response.status >= 400:
                error = data.get("error", {})
                retry_after = response.getheader("Retry-After")
                retry = float(retry_after) if retry_after else None
                cls = RateLimited if response.status == 429 else ServeError
                raise cls(
                    error.get("message", f"HTTP {response.status}"),
                    status=response.status,
                    code=error.get("code", ""),
                    retry_after=retry,
                )
            return data
        except (ConnectionError, OSError, http.client.HTTPException) as error:
            raise ServeError(
                f"cannot reach repro server at {self.host}:{self.port}: {error}"
            ) from None
        finally:
            connection.close()

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def metrics(self) -> dict:
        return self._request("GET", "/metrics")

    def handshake(self) -> dict:
        """Health + version-skew detection.

        Returns the health body with an extra ``"skew"`` key: None when
        client and server run the same source tree, otherwise a dict of
        both versions.
        """
        body = self.health()
        if body.get("protocol") != protocol.PROTOCOL_VERSION:
            raise ServeError(
                f"protocol skew: server speaks v{body.get('protocol')}, "
                f"client speaks v{protocol.PROTOCOL_VERSION}",
                code=protocol.ERR_BAD_REQUEST,
            )
        local = code_version()
        remote = body.get("version")
        body["skew"] = (
            None if remote == local
            else {"server": remote, "client": local}
        )
        return body

    def submit(
        self,
        spec: RunSpec,
        priority: int = 0,
        wait: bool = False,
        timeout: float | None = None,
    ) -> dict:
        """Submit one spec; returns the submit response body.

        With ``wait=True`` the server blocks the request until the job
        finishes (bounded by its ``max_wait``), and the response carries
        the encoded result.
        """
        body = protocol.submit_request(
            spec,
            client=self.client_id,
            priority=priority,
            wait=wait,
            timeout=timeout,
        )
        request_timeout = None
        if wait:
            request_timeout = (timeout or self.timeout) + 10.0
        return self._request("POST", "/v1/jobs", body, timeout=request_timeout)

    def status(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/jobs/{job_id}")["job"]

    def jobs(self) -> list[dict]:
        return self._request("GET", "/v1/jobs")["jobs"]

    def cancel(self, job_id: str) -> dict:
        return self._request("POST", f"/v1/jobs/{job_id}/cancel")

    def result(self, job_id: str, decode: bool = True) -> Any:
        """The finished job's record (decoded by default).

        Raises :class:`ServeError` when the job is not done yet; poll
        :meth:`status` or use :meth:`wait` first.
        """
        body = self._request("GET", f"/v1/jobs/{job_id}/result")
        if not body.get("ready"):
            job = body.get("job", {})
            raise ServeError(
                f"job {job_id} is not done (state={job.get('state')!r}, "
                f"error={job.get('error')!r})",
                code=protocol.ERR_BAD_REQUEST,
            )
        return protocol.decode_result(body["result"]) if decode else body["result"]

    def wait(
        self, job_id: str, timeout: float = 120.0, poll: float = 0.05
    ) -> dict:
        """Poll until the job reaches a terminal state; returns its view."""
        deadline = time.monotonic() + timeout
        while True:
            job = self.status(job_id)
            if job["state"] in protocol.TERMINAL_STATES:
                return job
            if time.monotonic() >= deadline:
                raise ServeError(
                    f"timed out after {timeout:g}s waiting for job {job_id} "
                    f"(state={job['state']!r})"
                )
            time.sleep(poll)

    def shutdown(self, drain: bool = True) -> dict:
        return self._request(
            "POST", "/v1/admin/shutdown", {"drain": drain}
        )
