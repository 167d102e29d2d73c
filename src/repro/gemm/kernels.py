"""GEMM kernels as access streams (paper Section 5.2).

Three kernels compute C = A x B over int64 matrices:

- :data:`NAIVE` — non-tiled scalar triple loop; B is accessed in
  column-major order with terrible spatial locality (the paper's
  normalisation baseline).
- :data:`TILED` — blocked/tiled with SIMD dot products. Because B's
  column values sit in different cache lines, each SIMD multiply-add
  needs a *software gather*: two scalar loads plus a pack instruction
  to assemble the SIMD register (exactly the overhead the paper calls
  out).
- :data:`GS` — the same tiling, but B lives in GS-DRAM with pattern-7
  gathers: one ``pattload`` (16 bytes of a gathered line) replaces the
  two scalar loads + pack, "seamlessly enabling SIMD".

SIMD registers are 16 bytes (two int64 lanes), matching the paper's
``xmm0`` pattload target.

All three are one loop nest over (it, jt, kt) tiles. Each output
(i, j) of a tile gets one *pass*: the reload of its partial sum (when
kt > 0), the loop bookkeeping, then per step of ``lanes`` k values the
A load, the B load or loads and the step's compute, and the store of
C(i, j). The naive kernel is this loop with a single tile of edge n and
one lane per step.

:meth:`Kernel.stream` writes the loop once, as one
:class:`~repro.cpu.stream.AccessStream` with no Python loop. The event
machine runs it through :meth:`Kernel.ops`, which stores what each
pass computes from the values its loads returned, so an event run is
verified against ``A @ B`` on everything it loaded; the fast path
(:mod:`repro.vec.gemm`) replays the same arrays.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.cpu.isa import Compute, Load, Store
from repro.cpu.stream import AccessStream, per_access
from repro.errors import WorkloadError
from repro.gemm.matrix import BLOCK, ELEM, BlockedMatrix, DenseMatrix
from repro.sim.system import System
from repro.vm.pattmalloc import PattAllocator

#: Loop bookkeeping cost charged once per (i, j) accumulator, cycles.
LOOP_OVERHEAD = 2


@dataclass(frozen=True)
class Kernel:
    """One GEMM kernel: its label, SIMD width, B layout and PCs."""

    label: str
    #: int64 values per A load and per step: 1 scalar, 2 for SIMD.
    lanes: int
    #: B copy-optimised into 8x8 blocks.
    blocked: bool
    #: B's block columns gathered by ``pattload`` (GS-DRAM).
    gs: bool
    #: PC of the A load; the B loads follow it.
    pc: int

    @property
    def reload_pc(self) -> int:
        """PC of the partial-sum reload."""
        return self.pc + 8

    @property
    def b_loads(self) -> int:
        """B loads per step: one pattload, else one scalar load per lane."""
        return 1 if self.gs else self.lanes

    @property
    def step_computes(self) -> int:
        """Single-cycle ops per step: a pack when B was gathered in
        software, then the multiply-accumulate."""
        return 2 if self.b_loads > 1 else 1

    def matrices(self, memory: System | PattAllocator, n: int):
        """A, B and C, allocated in that order through ``memory``."""
        a = DenseMatrix(memory, n)
        b = (BlockedMatrix(memory, n, gs=self.gs) if self.blocked
             else DenseMatrix(memory, n))
        return a, b, DenseMatrix(memory, n)

    def stream(self, a, b, c, tile: int) -> AccessStream:
        """Every access of the kernel, in program order."""
        n = a.n
        if tile % BLOCK != 0 or n % tile != 0:
            raise WorkloadError(
                f"tile {tile} must be a multiple of {BLOCK} and divide n={n}"
            )
        tiles, steps, per_step = n // tile, tile // self.lanes, 1 + self.b_loads
        # Axes (it, jt, kt, i, j, slot); slot 0 is the reload, the last
        # slot the store, and each step fills per_step slots between.
        origins = np.arange(tiles, dtype=np.int64)[:, None] * tile
        cells = origins + np.arange(tile)
        i = cells.reshape(tiles, 1, 1, tile, 1, 1)
        j = cells.reshape(1, tiles, 1, 1, tile, 1)
        k = (origins + np.arange(0, tile, self.lanes)).reshape(
            1, 1, tiles, 1, 1, steps)
        shape = (tiles, tiles, tiles, tile, tile, 1 + steps * per_step + 1)
        full = np.empty(shape, dtype=np.int64)
        full[..., :1] = full[..., -1:] = c.addresses(i, j)
        full[..., 1:-1:per_step] = a.addresses(i, k)
        if self.gs:
            # Within each 8x8 block, k's row and j's column trade places.
            b_slots = [b.gather_addresses(k >> 3, j >> 3, j & 7, k & 7)]
        else:
            b_slots = [b.addresses(k + lane, j) for lane in range(self.b_loads)]
        for slot, b_addresses in enumerate(b_slots, start=2):
            full[..., slot:-1:per_step] = b_addresses
        # The first kt pass starts from zero: it reloads nothing.
        keep = np.ones(shape, dtype=bool)
        keep[:, :, 0, :, :, 0] = False

        def column(reload, a_value, b_value, store):
            """One value per slot; ``b_value`` may differ per B load."""
            step = [a_value, *np.broadcast_to(b_value, self.b_loads)]
            per_slot = np.array([reload, *step * steps, store])
            if (per_slot == per_slot[0]).all():
                return per_slot[0]  # constant: stays a broadcast view
            return np.broadcast_to(per_slot, shape)[keep]

        addresses = full[keep]
        del full  # before the other columns take its memory
        gathered = b.pattern if self.gs else 0
        return AccessStream.build(
            addresses,
            column(0, 0, gathered, 0),
            column(self.reload_pc, self.pc,
                   self.pc + 1 + np.arange(self.b_loads), 0),
            alt=column(c.pattern, a.pattern, b.pattern, c.pattern),
            shuffled=column(c.shuffled, a.shuffled, b.shuffled, c.shuffled),
            writes=column(False, False, False, True),
            sizes=column(ELEM, ELEM * self.lanes,
                         ELEM * self.lanes // self.b_loads, ELEM),
        )

    def ops(self, stream: AccessStream) -> Iterator:
        """``stream`` as the kernel's ops; each store holds the value
        computed from the bytes its pass loaded.

        Roles follow the PCs: the bookkeeping precedes a pass's first A
        load (after its reload, if any), and each step's computes
        follow its B loads, so they precede the next A load or the
        store. The stored value is the reloaded partial sum plus the
        pass's lane products.
        """
        a_pc, reload_pc = self.pc, self.reload_pc
        step_computes = range(self.step_computes)
        partial: list[bytes] = []
        loaded: list[bytes] = []
        first = True
        for address, pattern, size, pc, write in per_access(
            stream.addresses, stream.patterns, stream.sizes, stream.pcs,
            stream.writes,
        ):
            if pc == a_pc:
                if first:
                    yield Compute(LOOP_OVERHEAD)
                    first = False
                else:
                    for _ in step_computes:
                        yield Compute(1)
            elif write:
                for _ in step_computes:
                    yield Compute(1)
                value = self._pass_value(loaded) + sum(
                    struct.unpack("<q", data)[0] for data in partial)
                yield Store(address, struct.pack("<q", value), pc=pc)
                partial.clear()
                loaded.clear()
                first = True
                continue
            sink = partial.append if pc == reload_pc else loaded.append
            yield Load(address, size=size, pattern=pattern, pc=pc,
                       on_value=sink)

    def _pass_value(self, loaded: list[bytes]) -> int:
        """The sum of a pass's lane products.

        Each step loaded its A lanes, then its B lanes; lane l of A
        multiplies lane l of B.
        """
        data = b"".join(loaded)
        values = struct.unpack(f"<{len(data) // ELEM}q", data)
        span = 2 * self.lanes
        return sum(
            sum(map(operator.mul, values[lane::span],
                    values[self.lanes + lane::span]))
            for lane in range(self.lanes)
        )


NAIVE = Kernel("Non-tiled", lanes=1, blocked=False, gs=False, pc=0x4000)
TILED = Kernel("Tiled", lanes=2, blocked=True, gs=False, pc=0x4100)
GS = Kernel("GS-DRAM", lanes=2, blocked=True, gs=True, pc=0x4200)
