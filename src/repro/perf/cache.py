"""On-disk result cache for deterministic simulation runs.

Every experiment in this reproduction is a pure function of its
configuration (the workloads are seeded, the engine is deterministic),
so a finished run can be reused for free. Entries are keyed by a
stable, canonical description of the run *plus* :func:`code_version`,
a content hash of the whole ``repro`` source tree — touching any
source file invalidates every cached result, which is the conservative
thing for a simulator where any module can affect timing.

Each entry is one file: a sha256 digest line followed by the pickled
payload. The digest is verified on every read, so a truncated or
poisoned entry is detected and treated as a miss (and counted in
``stats["poisoned"]``) instead of silently corrupting an experiment.

Environment knobs:

- ``REPRO_CACHE=0`` disables the default cache entirely;
- ``REPRO_CACHE_DIR`` relocates it (default: ``.repro-cache/`` under
  the current directory).
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pathlib
import pickle
import tempfile
from typing import Any

_CODE_VERSION: str | None = None


def code_version() -> str:
    """Content hash of every ``repro`` source file (cached per process)."""
    global _CODE_VERSION
    if _CODE_VERSION is None:
        package_root = pathlib.Path(__file__).resolve().parents[1]
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _CODE_VERSION = digest.hexdigest()
    return _CODE_VERSION


class ResultCache:
    """Digest-verified pickle cache under one directory."""

    def __init__(self, root: str | os.PathLike, version: str | None = None) -> None:
        self.root = pathlib.Path(root)
        self.version = code_version() if version is None else version
        self.stats = {
            "hits": 0, "misses": 0, "stores": 0, "poisoned": 0,
            "stale_tmp": 0,
        }

    # ------------------------------------------------------------------
    def path_for(self, key: str) -> pathlib.Path:
        name = hashlib.sha256(f"{self.version}\0{key}".encode()).hexdigest()
        return self.root / f"{name}.pkl"

    def get(self, key: str) -> Any | None:
        """The cached value, or None on miss / digest mismatch."""
        path = self.path_for(key)
        try:
            blob = path.read_bytes()
        except OSError:
            self.stats["misses"] += 1
            return None
        newline = blob.find(b"\n")
        if newline < 0:
            self.stats["poisoned"] += 1
            self.stats["misses"] += 1
            return None
        digest, payload = blob[:newline], blob[newline + 1 :]
        if hashlib.sha256(payload).hexdigest().encode() != digest:
            self.stats["poisoned"] += 1
            self.stats["misses"] += 1
            return None
        try:
            value = pickle.loads(payload)
        except Exception:
            self.stats["poisoned"] += 1
            self.stats["misses"] += 1
            return None
        self.stats["hits"] += 1
        return value

    def put(self, key: str, value: Any) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(payload).hexdigest().encode()
        path = self.path_for(key)
        # Write to a uniquely-named temp file in the same directory,
        # then atomically rename over the entry. Two processes or
        # threads can share one cache directory (pool workers, parallel
        # test runs), and a pid-based temp name is not enough: two
        # threads of one process (or a recycled pid) would interleave
        # writes into the same temp file and publish a torn entry.
        # mkstemp gives every writer its own file; the losing
        # os.replace simply overwrites the winner with an identical,
        # complete entry.
        handle, temporary = tempfile.mkstemp(
            dir=self.root, prefix=path.stem, suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "wb") as stream:
                stream.write(digest + b"\n" + payload)
            os.replace(temporary, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(temporary)
            raise
        self.stats["stores"] += 1

    def clear(self) -> int:
        """Delete every entry and stale temp file; returns total removed.

        ``*.tmp`` files are the leavings of interrupted :meth:`put`
        calls (mkstemp file written, never renamed): invisible to
        :meth:`get`, but they accumulate forever unless swept here.
        Swept temps are counted in ``stats["stale_tmp"]``.
        """
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.pkl"):
                path.unlink(missing_ok=True)
                removed += 1
            for path in self.root.glob("*.tmp"):
                path.unlink(missing_ok=True)
                removed += 1
                self.stats["stale_tmp"] += 1
        return removed

    @property
    def hit_rate(self) -> float:
        total = self.stats["hits"] + self.stats["misses"]
        return self.stats["hits"] / total if total else 0.0


def default_cache() -> ResultCache | None:
    """The process-wide cache, or None when ``REPRO_CACHE=0``."""
    if os.environ.get("REPRO_CACHE", "1") == "0":
        return None
    root = os.environ.get("REPRO_CACHE_DIR", ".repro-cache")
    return ResultCache(root)
