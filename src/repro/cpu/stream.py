"""Access streams: a workload's memory accesses as numpy arrays.

A DB layout or the strided-scan driver builds its accesses once, as an
:class:`AccessStream` in program order. The event machine runs it
through an op adapter (:func:`scan_ops` for read-only scans,
:meth:`repro.db.layouts.StorageLayout.transaction_ops` for
transactions); the fast path replays the same arrays through
:class:`~repro.vec.hier.DirtyReplay`.

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
#: Accesses :func:`scan_ops` turns into Python ints at a time, so a
#: whole-table scan never holds its addresses as int lists for the run.
_SLICE = 4096


@dataclass(frozen=True)
class AccessStream:
    """Equal-length per-access arrays, in program order.

    ``addresses`` are byte addresses of 8-byte accesses; ``values``
    carries the stored value of each write (0 for loads).
    """

    addresses: np.ndarray
    patterns: np.ndarray
    alts: np.ndarray
    shuffled: np.ndarray
    writes: np.ndarray
    values: np.ndarray
    pcs: np.ndarray

    @classmethod
    def build(cls, addresses, patterns, pcs, *, alt: int = 0,
              shuffled: bool = False, writes=False,
              values=0) -> "AccessStream":
        """A stream over one allocation; scalars broadcast to every access."""
        addresses = np.asarray(addresses, dtype=np.int64)

        def column(data, dtype) -> np.ndarray:
            return np.broadcast_to(np.asarray(data, dtype=dtype),
                                   addresses.shape)

        return cls(addresses, column(patterns, np.int64), column(alt, np.int64),
                   column(shuffled, bool), column(writes, bool),
                   column(values, np.int64), column(pcs, np.int64))

    def __len__(self) -> int:
        return int(self.addresses.size)

    def line_addresses(self, line_bytes: int) -> np.ndarray:
        """The cache-line address of every access."""
        return self.addresses & ~np.int64(line_bytes - 1)


def scan_ops(stream: AccessStream,
             on_value: Callable[[bytes], None] | None) -> Iterator:
    """A read-only stream as ops: a load, then one add, per access."""
    for start in range(0, len(stream), _SLICE):
        part = slice(start, start + _SLICE)
        for address, pattern, pc in zip(stream.addresses[part].tolist(),
                                        stream.patterns[part].tolist(),
                                        stream.pcs[part].tolist()):
            yield Load(address, pattern=pattern, pc=pc, on_value=on_value)
            yield Compute(SCAN_COMPUTE_CYCLES)
