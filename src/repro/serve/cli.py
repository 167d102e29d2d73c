"""CLI handlers for the service verbs: serve / submit / jobs.

``python -m repro`` owns argument *parsing* (so ``repro --help`` shows
everything in one place); this module owns the *behaviour*, mirroring
how :mod:`repro.obs.cli` and :mod:`repro.check.cli` are split.

Spec sources for ``repro submit``, in precedence order:

- ``--spec-json '<json>'`` — a full RunSpec wire object (repeatable);
- ``--spec-file path`` — a JSON file holding one spec or a list;
- ``--figure fig9 [--scale quick]`` — that figure's representative
  specs (:func:`repro.harness.specsets.figure_specs`);
- ``--patternscan variant:stride [--lines N]`` — one fig7-style point.

``--mode`` / ``--obs`` override the corresponding field on every
submitted spec, so ``repro submit --figure fig9 --obs metrics`` does
what it reads like.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time

from repro.errors import ConfigError, ReproError
from repro.perf.cache import code_version
from repro.perf.specs import RunSpec
from repro.serve.client import RateLimited, ServeClient, ServeError
from repro.serve.protocol import spec_from_wire
from repro.serve.server import ServeConfig, serve


def run_serve(args) -> int:
    """``repro serve``: run a server until SIGINT/SIGTERM/admin stop."""
    import asyncio
    import logging

    logging.basicConfig(
        level=logging.INFO, format="%(asctime)s %(name)s %(message)s"
    )
    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        executor=args.executor,
        max_inflight=args.max_inflight,
        rate=args.rate,
        burst=args.burst,
        state_dir=None if args.no_state else args.state_dir,
        drain_deadline=args.drain_deadline,
        request_log=not args.quiet,
    )
    try:
        return asyncio.run(serve(config))
    except KeyboardInterrupt:
        return 0


def _gather_specs(args) -> list[RunSpec]:
    specs: list[RunSpec] = []
    for raw in args.spec_json or ():
        specs.append(spec_from_wire(json.loads(raw)))
    if args.spec_file:
        payload = json.loads(open(args.spec_file, encoding="utf-8").read())
        items = payload if isinstance(payload, list) else [payload]
        specs.extend(spec_from_wire(item) for item in items)
    if args.figure:
        from repro.harness.common import current_scale
        from repro.harness.specsets import figure_specs

        import os

        os.environ["REPRO_SCALE"] = args.scale
        specs.extend(figure_specs(args.figure, current_scale()))
    if args.patternscan:
        variant, _, stride = args.patternscan.partition(":")
        if not stride:
            raise ConfigError(
                "--patternscan expects 'variant:stride', e.g. 'gathered:4'"
            )
        specs.append(
            RunSpec(
                kind="patternscan",
                params={
                    "variant": variant,
                    "stride": int(stride),
                    "lines": args.lines,
                },
            )
        )
    if not specs:
        raise ConfigError(
            "nothing to submit: pass --spec-json, --spec-file, "
            "--figure, or --patternscan"
        )
    if args.mode or args.obs:
        specs = [
            dataclasses.replace(
                spec,
                mode=args.mode or spec.mode,
                obs=args.obs or spec.obs,
            )
            for spec in specs
        ]
    return specs


def run_submit(args) -> int:
    """``repro submit``: send specs, optionally wait, print one JSON/line."""
    client = ServeClient(
        host=args.host, port=args.port, client_id=args.client,
        timeout=args.timeout,
    )
    specs = _gather_specs(args)
    handshake = client.handshake()
    if handshake["skew"] is not None:
        print(
            f"warning: version skew — server runs "
            f"{handshake['skew']['server'][:12]}, client runs "
            f"{handshake['skew']['client'][:12]}; cache keys will not be "
            "shared across the skew",
            file=sys.stderr,
        )
    failures = 0
    for spec in specs:
        try:
            response = _submit_with_backoff(client, spec, args)
        except ServeError as error:
            failures += 1
            print(json.dumps({"error": str(error), "code": error.code}))
            continue
        job = response["job"]
        line = {
            "job_id": job["job_id"],
            "state": job["state"],
            "coalesced": response.get("coalesced", False),
            "cached": job.get("cached", False),
            "digest": job.get("digest"),
            "error": job.get("error"),
        }
        if job["state"] == "failed":
            failures += 1
        print(json.dumps(line))
    return 1 if failures else 0


def _submit_with_backoff(client: ServeClient, spec: RunSpec, args) -> dict:
    """Submit one spec, honouring Retry-After up to ``--retries`` times."""
    attempts = max(0, args.retries)
    while True:
        try:
            return client.submit(
                spec,
                priority=args.priority,
                wait=not args.no_wait,
                timeout=args.timeout,
            )
        except RateLimited as limited:
            if attempts <= 0:
                raise
            attempts -= 1
            time.sleep(min(limited.retry_after or 1.0, 30.0))


def run_jobs(args) -> int:
    """``repro jobs``: list the server's jobs (table or ``--json``)."""
    client = ServeClient(host=args.host, port=args.port, timeout=args.timeout)
    try:
        jobs = client.jobs()
    except ServeError as error:
        print(f"repro jobs: {error}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(jobs, indent=2))
        return 0
    if not jobs:
        print("no jobs")
        return 0
    header = f"{'JOB':16} {'STATE':10} {'PRI':>3} {'CLIENT':12} SPEC"
    print(header)
    for job in jobs:
        spec = job["spec"]
        label = spec["kind"]
        if spec.get("layout"):
            label += f":{spec['layout']}"
        label += f":{spec.get('mode', 'event')}"
        print(
            f"{job['job_id']:16} {job['state']:10} {job['priority']:>3} "
            f"{job['client'][:12]:12} {label}"
        )
    return 0


def version_string() -> str:
    """``repro --version`` payload: package version + source-tree hash.

    The same ``code_version`` is echoed by the server's handshake
    (``/healthz``), so comparing ``repro --version`` output on two
    machines answers "are these the same simulator?" exactly the way
    the client's skew check does.
    """
    import repro

    return f"repro {repro.__version__} (code {code_version()[:16]})"
