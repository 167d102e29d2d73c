"""repro.serve — async simulation-as-a-service over the perf substrate.

A local HTTP/JSON service that accepts :class:`~repro.perf.specs.RunSpec`
jobs, schedules them with priority + per-client admission control,
coalesces identical specs onto one execution, shares the process-wide
result cache, journals jobs for crash recovery, and serves its own
:mod:`repro.obs` metrics. See docs/SERVING.md for the API and
``python -m repro serve --help`` for the knobs.
"""

from repro.serve.client import RateLimited, ServeClient, ServeError
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    decode_result,
    encode_result,
    result_digest,
    spec_from_wire,
    spec_to_wire,
)
from repro.serve.queue import AdmissionDenied, Job, JobQueue, TokenBucket
from repro.serve.server import (
    DEFAULT_PORT,
    JobRunner,
    ServeConfig,
    SimulationServer,
    serve,
)
from repro.serve.store import JobStore
from repro.serve.testing import ServerThread

__all__ = [
    "AdmissionDenied",
    "DEFAULT_PORT",
    "Job",
    "JobQueue",
    "JobRunner",
    "JobStore",
    "PROTOCOL_VERSION",
    "RateLimited",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServerThread",
    "SimulationServer",
    "TokenBucket",
    "decode_result",
    "encode_result",
    "result_digest",
    "serve",
    "spec_from_wire",
    "spec_to_wire",
]
