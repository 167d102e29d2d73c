"""Access streams: a workload's memory accesses as numpy arrays.

A DB layout, the strided-scan driver or a GEMM kernel builds its
accesses once, as an :class:`AccessStream` in program order. The event
machine runs it through an op adapter (:func:`scan_ops` for read-only
scans, :meth:`repro.db.layouts.StorageLayout.transaction_ops` for
transactions, :meth:`repro.gemm.kernels.Kernel.ops` for GEMM); the fast
path replays the same arrays through :class:`~repro.vec.hier.DirtyReplay`.

``alts`` and ``shuffled`` are the page attributes of each address: the
fast path reads them from the stream, the event machine from its page
table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.cpu.isa import Compute, Load

#: Per-value cost of a scan's aggregation (one add), cycles.
SCAN_COMPUTE_CYCLES = 1
#: Accesses :func:`per_access` turns into Python values at a time, so an op
#: adapter never holds a whole stream column as a list.
_SLICE = 4096


@dataclass(frozen=True)
class AccessStream:
    """Equal-length per-access arrays, in program order.

    ``addresses`` are byte addresses and ``sizes`` the bytes each
    access moves (8, or 16 for a SIMD register); ``values`` carries the
    stored value of each 8-byte write whose value is known up front
    (0 otherwise).
    """

    addresses: np.ndarray
    patterns: np.ndarray
    alts: np.ndarray
    shuffled: np.ndarray
    writes: np.ndarray
    values: np.ndarray
    pcs: np.ndarray
    sizes: np.ndarray

    @classmethod
    def build(cls, addresses, patterns, pcs, *, alt=0, shuffled=False,
              writes=False, values=0, sizes=8) -> "AccessStream":
        """A stream of ``addresses``; scalars broadcast to every access."""
        addresses = np.asarray(addresses, dtype=np.int64)

        def column(data, dtype) -> np.ndarray:
            return np.broadcast_to(np.asarray(data, dtype=dtype),
                                   addresses.shape)

        return cls(addresses, column(patterns, np.int64), column(alt, np.int64),
                   column(shuffled, bool), column(writes, bool),
                   column(values, np.int64), column(pcs, np.int64),
                   column(sizes, np.int64))

    def __len__(self) -> int:
        return int(self.addresses.size)

    def line_addresses(self, line_bytes: int) -> np.ndarray:
        """The cache-line address of every access."""
        return self.addresses & ~np.int64(line_bytes - 1)


def per_access(*columns: np.ndarray) -> Iterator[tuple]:
    """The columns' entries zipped per access, a slice at a time."""
    for start in range(0, len(columns[0]), _SLICE):
        part = slice(start, start + _SLICE)
        yield from zip(*(column[part].tolist() for column in columns))


def scan_ops(stream: AccessStream,
             on_value: Callable[[bytes], None] | None) -> Iterator:
    """A read-only stream as ops: a load, then one add, per access."""
    for address, pattern, pc in per_access(stream.addresses, stream.patterns,
                                           stream.pcs):
        yield Load(address, pattern=pattern, pc=pc, on_value=on_value)
        yield Compute(SCAN_COMPUTE_CYCLES)
