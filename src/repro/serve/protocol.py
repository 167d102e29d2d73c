"""Versioned JSON wire schema for the simulation service.

Everything that crosses the service's HTTP boundary is defined here so
the server (:mod:`repro.serve.server`), the client
(:mod:`repro.serve.client`), and the job store
(:mod:`repro.serve.store`) agree on one vocabulary:

- :data:`PROTOCOL_VERSION` — bumped on any incompatible schema change;
  both sides echo it in the handshake and refuse a mismatch.
- :func:`spec_to_wire` / :func:`spec_from_wire` — a
  :class:`~repro.perf.specs.RunSpec` as a plain JSON object. The wire
  form round-trips through :func:`~repro.perf.specs.cache_key`
  unchanged (tuples become lists, which canonicalise identically), so
  the server's coalescing and result cache see exactly the key a
  direct in-process run would use.
- :func:`result_digest` / :func:`encode_result` /
  :func:`decode_result` — run records are arbitrary picklable objects
  (RunResult, ObsRun, PatternScanRun ...), so they travel as a base64
  pickle plus a sha256 digest of that pickle. The digest is the
  service-level differential contract: a record fetched over HTTP must
  digest identically to the same spec executed in-process
  (:mod:`repro.check.service` enforces this).

Error responses are ``{"error": {"code": ..., "message": ...}}`` with
the matching HTTP status; rate-limited submissions additionally carry
a ``Retry-After`` header (seconds, fractional).
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import pickle
from typing import Any

from repro.errors import ConfigError
from repro.perf.specs import RunSpec

#: Bump on any incompatible change to the request/response schema.
PROTOCOL_VERSION = 1

#: Pinned pickle protocol for wire payloads and digests, so the digest
#: of a record does not depend on which interpreter pickled it.
WIRE_PICKLE_PROTOCOL = 4

#: Job lifecycle states (also the journal vocabulary of serve.store).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)
TERMINAL_STATES = (DONE, FAILED, CANCELLED)

#: Error codes carried in ``{"error": {"code": ...}}`` bodies.
ERR_BAD_REQUEST = "bad-request"
ERR_NOT_FOUND = "not-found"
ERR_RATE_LIMITED = "rate-limited"
ERR_TOO_MANY_INFLIGHT = "too-many-inflight"
ERR_DRAINING = "draining"
ERR_INTERNAL = "internal"


class ProtocolError(ConfigError):
    """A request or response does not match the wire schema."""


# ----------------------------------------------------------------------
# RunSpec <-> wire
# ----------------------------------------------------------------------
def spec_to_wire(spec: RunSpec) -> dict:
    """``spec`` as a JSON-able dict (tuples degrade to lists, which is
    cache-key neutral)."""
    return dataclasses.asdict(spec)


def spec_from_wire(payload: Any) -> RunSpec:
    """Rebuild a :class:`RunSpec` from its wire form, validating shape.

    Unknown fields are rejected rather than dropped: a client speaking
    a newer schema should fail loudly, not have its request silently
    reinterpreted.
    """
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"spec must be a JSON object, got {type(payload).__name__}"
        )
    known = {field.name for field in dataclasses.fields(RunSpec)}
    unknown = set(payload) - known
    if unknown:
        raise ProtocolError(
            f"unknown spec field(s) {sorted(unknown)}; expected {sorted(known)}"
        )
    if "kind" not in payload:
        raise ProtocolError("spec is missing required field 'kind'")
    try:
        return RunSpec(**payload)
    except ConfigError:
        raise
    except TypeError as error:
        raise ProtocolError(f"malformed spec: {error}") from None


# ----------------------------------------------------------------------
# Run records <-> wire
# ----------------------------------------------------------------------
def _scrub_wall_times(record: Any, _depth: int = 0) -> None:
    """Empty every ``stages`` wall-time dict reachable from ``record``.

    ``RunResult.stages`` carries host wall-clock attribution, which is
    the one nondeterministic field a deterministic spec produces — two
    independent executions would digest differently. The scrub runs on
    the *loaded copy* inside :func:`_normalized_pickle` (never on the
    caller's record, which keeps its timings), so digests cover exactly
    the functional object graph.
    """
    if _depth > 8:
        return
    stages = getattr(record, "stages", None)
    if isinstance(stages, dict):
        stages.clear()
    if dataclasses.is_dataclass(record) and not isinstance(record, type):
        for spec_field in dataclasses.fields(record):
            _scrub_wall_times(getattr(record, spec_field.name), _depth + 1)
    elif isinstance(record, dict):
        for value in record.values():
            _scrub_wall_times(value, _depth + 1)
    elif isinstance(record, (list, tuple)):
        for value in record:
            _scrub_wall_times(value, _depth + 1)


def _normalized_pickle(record: Any) -> bytes:
    """A canonical pickle of ``record``: dump, load, scrub, dump again.

    A raw ``pickle.dumps`` is *not* canonical across equal object
    graphs: CPython interns identifier-like strings at construction
    time, so a freshly-computed record shares ``'row_hits'``-style key
    objects (pickled as memo back-references) while the same record
    after a ``loads`` holds distinct equal strings (pickled inline).
    One round trip collapses every graph to the sharing structure the
    unpickler itself produces, which is a fixed point: further round
    trips are byte-identical, and two independent executions of a
    deterministic spec normalise to the same bytes. The loaded copy
    additionally has wall-time ``stages`` dicts emptied
    (:func:`_scrub_wall_times`) so host timing never enters a digest.
    """
    raw = pickle.dumps(record, protocol=WIRE_PICKLE_PROTOCOL)
    loaded = pickle.loads(raw)
    _scrub_wall_times(loaded)
    return pickle.dumps(loaded, protocol=WIRE_PICKLE_PROTOCOL)


def result_digest(record: Any) -> str:
    """sha256 over the normalized pickle of ``record``.

    This is the bit-exactness contract of the service: equal digests
    mean the wire result and the in-process result are the same object
    graph, byte for byte — whether the record was just computed,
    cache-loaded, or decoded off the wire.
    """
    return hashlib.sha256(_normalized_pickle(record)).hexdigest()


def encode_result(record: Any) -> dict:
    """A run record as ``{"digest": ..., "pickle": <base64>}``.

    The payload is the normalized pickle, so the transport digest and
    :func:`result_digest` of the decoded record are the same value.
    """
    payload = _normalized_pickle(record)
    return {
        "digest": hashlib.sha256(payload).hexdigest(),
        "pickle": base64.b64encode(payload).decode("ascii"),
    }


def decode_result(wire: dict) -> Any:
    """Inverse of :func:`encode_result`; verifies the digest first."""
    try:
        payload = base64.b64decode(wire["pickle"].encode("ascii"))
    except (KeyError, TypeError, ValueError) as error:
        raise ProtocolError(f"malformed result payload: {error}") from None
    digest = hashlib.sha256(payload).hexdigest()
    if digest != wire.get("digest"):
        raise ProtocolError(
            "result payload digest mismatch (corrupt or tampered transfer)"
        )
    return pickle.loads(payload)


# ----------------------------------------------------------------------
# Request / response helpers
# ----------------------------------------------------------------------
def submit_request(
    spec: RunSpec,
    client: str = "anonymous",
    priority: int = 0,
    wait: bool = False,
    timeout: float | None = None,
) -> dict:
    """Body of ``POST /v1/jobs``."""
    body: dict[str, Any] = {
        "protocol": PROTOCOL_VERSION,
        "spec": spec_to_wire(spec),
        "client": client,
        "priority": priority,
    }
    if wait:
        body["wait"] = True
    if timeout is not None:
        body["timeout"] = timeout
    return body


def parse_submit_request(body: Any) -> dict:
    """Validate a submit body; returns the normalised fields.

    Returns ``{"spec", "client", "priority", "wait", "timeout"}``.
    """
    if not isinstance(body, dict):
        raise ProtocolError("submit body must be a JSON object")
    protocol = body.get("protocol", PROTOCOL_VERSION)
    if protocol != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol skew: client speaks v{protocol}, "
            f"server speaks v{PROTOCOL_VERSION}"
        )
    if "spec" not in body:
        raise ProtocolError("submit body is missing 'spec'")
    spec = spec_from_wire(body["spec"])
    client = body.get("client", "anonymous")
    if not isinstance(client, str) or not client:
        raise ProtocolError("'client' must be a non-empty string")
    priority = body.get("priority", 0)
    if not isinstance(priority, int) or isinstance(priority, bool):
        raise ProtocolError("'priority' must be an integer")
    wait = bool(body.get("wait", False))
    timeout = body.get("timeout")
    if timeout is not None and not isinstance(timeout, (int, float)):
        raise ProtocolError("'timeout' must be a number of seconds")
    return {
        "spec": spec,
        "client": client,
        "priority": priority,
        "wait": wait,
        "timeout": timeout,
    }


def error_body(code: str, message: str, **extra: Any) -> dict:
    return {"error": {"code": code, "message": message, **extra}}
