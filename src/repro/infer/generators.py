"""ML-inference workload generators: GEMV, embedding-bag, KV-cache.

Each generator prepares one inference-style workload on a live system
and returns a
:class:`PreparedWorkload`: an op-stream factory plus an oracle-backed
finalizer. The three workloads cover the access patterns that dominate
modern inference serving, all of which are stride-8-value streams the
paper's pattern 7 turns into single-line gathers:

- **gemv** — batched GEMV over lane-interleaved weights: each group of
  8 output neurons stores weight ``k`` of all 8 rows in one line, so a
  single row's weights are a stride-64B scalar stream (baseline) or a
  pattern-7 gather per 8 weights (GS-DRAM). This is the weight layout
  HBM-PIMulator's Tracegen emits for PIM GEMV.
- **embed** — embedding-bag lookup: 8-dim embedding rows interleaved 8
  entries to a line group, with configurable table size and bag-size
  distribution. One entry's vector is 8 lines on the baseline, one
  gathered line on GS-DRAM.
- **kvcache** — decode-time attention over a growing KV cache laid out
  ``[t][d][h]``: appending a head's key scatters across the timestep's
  line group (``pattstore``), and every per-head key fetch is a
  stride-64B stream (baseline) or a pattern-7 gather (GS-DRAM).

Variants: ``"baseline"`` runs the interleaved layout on commodity DRAM
with scalar software gathers; ``"gs"`` places the same layout in a
shuffled ``pattmalloc`` region and uses pattload/pattstore. Op counts
per gathered group are identical (8 accesses either way, matching the
paper's SIMD-register word granularity); the win is line traffic.

Ops are emitted as :class:`CountingLoad` / :class:`CountingStore`
subclasses of the ISA ops so generators can account per-PC traffic
without a second bookkeeping pass; ``record_ops`` and both cores
dispatch them by ``isinstance``.
"""

from __future__ import annotations

import hashlib
import struct
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from repro.cpu.isa import Compute, Load, Store
from repro.errors import WorkloadError

LINE_BYTES = 64
VALUES_PER_LINE = 8
#: Stride-8-value gather over 8 chips (Section 4.2's pattern 7).
GATHER_PATTERN = 7
_MASK = (1 << 64) - 1

WORKLOADS = ("gemv", "embed", "kvcache")
VARIANTS = ("baseline", "gs")

#: Static-PC bases, one block per workload so trace analysis sees each
#: strided stream as a distinct candidate.
PC_GEMV_X, PC_GEMV_W, PC_GEMV_OUT = 0x8100, 0x8110, 0x8120
PC_EMBED_TABLE, PC_EMBED_OUT = 0x8200, 0x8210
PC_KV_APPEND, PC_KV_KEY, PC_KV_OUT = 0x8300, 0x8310, 0x8320


class CountingLoad(Load):
    """A :class:`Load` that bumps a per-PC traffic counter on issue."""

    __slots__ = ()

    def __init__(self, counter: Counter, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        counter[self.pc] += 1


class CountingStore(Store):
    """A :class:`Store` that bumps a per-PC traffic counter on issue."""

    __slots__ = ()

    def __init__(self, counter: Counter, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        counter[self.pc] += 1


@dataclass
class PreparedWorkload:
    """One generator instance bound to a live system."""

    workload: str
    variant: str
    params: dict
    #: (base, size) of every allocated region, in allocation order.
    #: Shuffled regions are page-rounded by the allocator, so regions
    #: are not necessarily contiguous; reads walk this list.
    regions: list[tuple[int, int]]
    #: Fresh single-core op stream (generators are single-shot).
    ops: Callable[[], Iterator]
    #: After the run: (verified, answer_digest). Reads memory back, so
    #: call it only after capturing component stats.
    finalize: Callable[[], tuple[bool, str]]
    #: Oracle image of the concatenated regions after a correct run;
    #: replayed traces are verified against its digest.
    expected_image: Callable[[], bytes]
    #: Per-PC op counts, filled as the core consumes the stream.
    pc_traffic: Counter = field(default_factory=Counter)

    def read_image(self, system) -> bytes:
        """The live concatenated region bytes (drains dirty lines)."""
        return b"".join(
            system.mem_read(base, size) for base, size in self.regions
        )


def _require(condition: bool, message: str, **context) -> None:
    if not condition:
        raise WorkloadError(message, **context)


def _interleave(rows: np.ndarray) -> bytes:
    """Lane-interleave ``rows`` (shape (n, k), n % 8 == 0) into line
    groups: line ``g*k + c`` holds value ``c`` of rows ``8g..8g+7``."""
    n, k = rows.shape
    return np.ascontiguousarray(
        rows.reshape(n // 8, 8, k).transpose(0, 2, 1)
    ).astype("<u8").tobytes()


def _pack(values) -> bytes:
    """Little-endian u64 bytes of ``values`` (ndarray or int iterable)."""
    if isinstance(values, np.ndarray):
        return np.ascontiguousarray(values.astype(np.uint64)).astype(
            "<u8"
        ).tobytes()
    return np.array([v & _MASK for v in values], dtype=np.uint64).astype(
        "<u8"
    ).tobytes()


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _u64s(data: bytes) -> list[int]:
    return list(struct.unpack(f"<{len(data) // 8}Q", data))


def _alloc(system, variant: str, size: int) -> int:
    """The workload's gathered region: shuffled on GS, plain otherwise."""
    if variant == "gs":
        return system.pattmalloc(size, shuffle=True, pattern=GATHER_PATTERN)
    return system.pattmalloc(size)


def _group_reads(counter: Counter, variant: str, base: int, group_line: int,
                 lane: int, pc: int, on_value) -> Iterator:
    """The 8 values at ``lane`` across line group ``group_line..+8``.

    Baseline: 8 scalar loads walking the group at a line stride.
    GS-DRAM: 4 16-byte pattloads of the one line that gathers the lane
    (two SIMD values per load, as in the paper's GEMM kernel).
    Either way ``on_value`` sees the 8 values in the same order.
    """
    if variant == "gs":
        line = base + (group_line + lane) * LINE_BYTES
        for j in range(4):
            yield CountingLoad(counter, line + j * 16, size=16,
                               pattern=GATHER_PATTERN, pc=pc,
                               on_value=on_value)
    else:
        for d in range(8):
            yield CountingLoad(
                counter, base + (group_line + d) * LINE_BYTES + lane * 8,
                size=8, pc=pc, on_value=on_value)


# ----------------------------------------------------------------------
# Batched GEMV
# ----------------------------------------------------------------------
def prepare_gemv(system, variant: str, m: int = 16, n: int = 16,
                 batch: int = 2, seed: int = 11) -> PreparedWorkload:
    """Batched GEMV ``out[q] = W @ x[q]`` over lane-interleaved weights."""
    _require(variant in VARIANTS, f"unknown variant {variant!r}")
    _require(m > 0 and m % 8 == 0, "m must be a positive multiple of 8")
    _require(n > 0 and n % 8 == 0, "n must be a positive multiple of 8")
    _require(batch > 0, "batch must be positive")

    rng = np.random.default_rng(seed)
    weights = rng.integers(0, 1 << 16, size=(m, n), dtype=np.int64)
    inputs = rng.integers(0, 1 << 16, size=(batch, n), dtype=np.int64)

    w_base = _alloc(system, variant, m * n * 8)
    x_base = system.pattmalloc(batch * n * 8)
    out_base = system.pattmalloc(batch * m * 8)
    system.mem_write(w_base, _interleave(weights))
    system.mem_write(x_base, inputs.astype("<u8").tobytes())

    counter = Counter()
    outputs: list[int] = []

    def ops():
        for q in range(batch):
            xs: list[int] = []
            x_sink = lambda data, xs=xs: xs.extend(_u64s(data))
            for k in range(0, n, 2):
                yield CountingLoad(counter, x_base + (q * n + k) * 8,
                                   size=16, pc=PC_GEMV_X, on_value=x_sink)
            for g in range(m // 8):
                for lane in range(8):
                    ws: list[int] = []
                    w_sink = lambda data, ws=ws: ws.extend(_u64s(data))
                    for c in range(n // 8):
                        yield from _group_reads(
                            counter, variant, w_base, g * n + 8 * c, lane,
                            PC_GEMV_W, w_sink)
                        yield Compute(8)  # 8 multiply-accumulates
                    acc = sum(w * x for w, x in zip(ws, xs)) & _MASK
                    outputs.append(acc)
                    yield CountingStore(
                        counter, out_base + (q * m + 8 * g + lane) * 8,
                        struct.pack("<Q", acc), pc=PC_GEMV_OUT)

    # Batched oracle: row q of inputs @ W.T is W @ x[q]; values stay
    # far below 2**63, so the mask is a representation change only.
    oracle = (inputs @ weights.T).reshape(-1).astype(np.uint64).tolist()

    def expected_image() -> bytes:
        return (_interleave(weights) + inputs.astype("<u8").tobytes()
                + _pack(oracle))

    prepared = PreparedWorkload(
        workload="gemv", variant=variant,
        params={"m": m, "n": n, "batch": batch, "seed": seed},
        regions=[(w_base, m * n * 8), (x_base, batch * n * 8),
                 (out_base, batch * m * 8)],
        ops=ops, finalize=None, expected_image=expected_image,
        pc_traffic=counter,
    )

    def finalize() -> tuple[bool, str]:
        verified = (outputs == oracle
                    and prepared.read_image(system) == expected_image())
        return verified, _digest(_pack(outputs))

    prepared.finalize = finalize
    return prepared


# ----------------------------------------------------------------------
# Embedding-bag lookup
# ----------------------------------------------------------------------
def prepare_embed(system, variant: str, vocab: int = 64, bags: int = 6,
                  bag_size: int = 4, bag_dist: str = "fixed",
                  seed: int = 11) -> PreparedWorkload:
    """Embedding-bag sum over an 8-dim table, 8 entries per line group.

    ``bag_dist`` picks the bag-size distribution: ``"fixed"`` uses
    ``bag_size`` everywhere; ``"uniform"`` draws each bag's size from
    ``[1, 2*bag_size]`` (mean ``bag_size``-ish, seeded).
    """
    _require(variant in VARIANTS, f"unknown variant {variant!r}")
    _require(vocab > 0 and vocab % 8 == 0,
             "vocab must be a positive multiple of 8")
    _require(bags > 0, "bags must be positive")
    _require(bag_size > 0, "bag_size must be positive")
    _require(bag_dist in ("fixed", "uniform"),
             f"unknown bag_dist {bag_dist!r}")

    rng = np.random.default_rng(seed)
    table = rng.integers(0, 1 << 16, size=(vocab, 8), dtype=np.int64)
    if bag_dist == "fixed":
        sizes = [bag_size] * bags
    else:
        sizes = [int(s) for s in
                 rng.integers(1, 2 * bag_size + 1, size=bags)]
    bag_indices = [
        [int(e) for e in rng.integers(0, vocab, size=size)]
        for size in sizes
    ]

    table_base = _alloc(system, variant, vocab * 8 * 8)
    out_base = system.pattmalloc(bags * 8 * 8)
    system.mem_write(table_base, _interleave(table))

    counter = Counter()
    outputs: list[int] = []

    def ops():
        for b, entries in enumerate(bag_indices):
            acc = [0] * 8
            for entry in entries:
                group, lane = divmod(entry, 8)
                row: list[int] = []
                row_sink = lambda data, row=row: row.extend(_u64s(data))
                yield from _group_reads(
                    counter, variant, table_base, group * 8, lane,
                    PC_EMBED_TABLE, row_sink)
                yield Compute(8)  # 8 element-wise adds
                for d in range(8):
                    acc[d] = (acc[d] + row[d]) & _MASK
            outputs.extend(acc)
            for d in range(8):
                yield CountingStore(counter, out_base + (b * 8 + d) * 8,
                                    struct.pack("<Q", acc[d]),
                                    pc=PC_EMBED_OUT)

    # Per-bag batched gather+sum replaces the per-(entry, dim) loop.
    oracle = [
        value
        for entries in bag_indices
        for value in table[np.array(entries, dtype=np.int64)]
        .sum(axis=0)
        .astype(np.uint64)
        .tolist()
    ]

    def expected_image() -> bytes:
        return _interleave(table) + _pack(oracle)

    prepared = PreparedWorkload(
        workload="embed", variant=variant,
        params={"vocab": vocab, "bags": bags, "bag_size": bag_size,
                "bag_dist": bag_dist, "seed": seed},
        regions=[(table_base, vocab * 64), (out_base, bags * 64)],
        ops=ops, finalize=None, expected_image=expected_image,
        pc_traffic=counter,
    )

    def finalize() -> tuple[bool, str]:
        verified = (outputs == oracle
                    and prepared.read_image(system) == expected_image())
        return verified, _digest(_pack(outputs))

    prepared.finalize = finalize
    return prepared


# ----------------------------------------------------------------------
# KV-cache attention gather
# ----------------------------------------------------------------------
def prepare_kvcache(system, variant: str, steps: int = 6, heads: int = 8,
                    seed: int = 11) -> PreparedWorkload:
    """Decode-loop attention: append one timestep's keys, then score the
    whole (growing) context per head.

    The cache is laid out ``[t][d][h]``: line ``t*8 + d`` holds dim
    ``d`` of all 8 heads at timestep ``t``, so one head's key vector is
    a stride-64B column of the timestep's 8-line group. Appends write
    that column (scalar stores vs pattstore scatters) and every score
    re-reads the columns of all earlier timesteps (scalar loads vs
    pattern-7 gathers). Scores are the per-(step, head) sums of
    Q·K dot products over the context so far.
    """
    _require(variant in VARIANTS, f"unknown variant {variant!r}")
    _require(steps > 0, "steps must be positive")
    _require(heads == 8, "heads must be 8 (one line group per timestep)")

    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 1 << 12, size=(steps, heads, 8), dtype=np.int64)
    queries = rng.integers(0, 1 << 12, size=(steps, heads, 8),
                           dtype=np.int64)

    kv_base = _alloc(system, variant, steps * heads * 8 * 8)
    out_base = system.pattmalloc(steps * heads * 8)
    system.mem_write(kv_base, bytes(steps * heads * 64))

    counter = Counter()
    outputs: list[int] = []

    def ops():
        for s in range(steps):
            # Append K[s]: one strided column write per head.
            for h in range(heads):
                for d in range(8):
                    payload = struct.pack("<Q", int(keys[s, h, d]) & _MASK)
                    if variant == "gs":
                        # pattstore scatters byte offset d*8 of the
                        # gathered line to lane h of line s*8+d.
                        yield CountingStore(
                            counter, kv_base + (s * 8 + h) * LINE_BYTES + d * 8,
                            payload, pattern=GATHER_PATTERN, pc=PC_KV_APPEND)
                    else:
                        yield CountingStore(
                            counter, kv_base + (s * 8 + d) * LINE_BYTES + h * 8,
                            payload, pc=PC_KV_APPEND)
            # Attention: every head scores the context so far.
            for h in range(heads):
                acc = 0
                for t in range(s + 1):
                    k_vec: list[int] = []
                    k_sink = lambda data, k_vec=k_vec: k_vec.extend(
                        _u64s(data))
                    yield from _group_reads(
                        counter, variant, kv_base, t * 8, h,
                        PC_KV_KEY, k_sink)
                    yield Compute(8)  # dot product
                    acc = (acc + sum(
                        int(queries[s, h, d]) * k_vec[d] for d in range(8)
                    )) & _MASK
                outputs.append(acc)
                yield CountingStore(counter, out_base + (s * heads + h) * 8,
                                    struct.pack("<Q", acc), pc=PC_KV_OUT)

    # scores[s, t, h] = Q[s, h] . K[t, h]; the causal prefix sum over t
    # lands on the diagonal of the cumulative sum. Products stay below
    # 2**24 and the full sum below 2**40, so int64 is exact.
    scores = np.einsum("shd,thd->sth", queries, keys)
    oracle = (
        np.cumsum(scores, axis=1)[np.arange(steps), np.arange(steps), :]
        .reshape(-1)
        .astype(np.uint64)
        .tolist()
    )

    def expected_image() -> bytes:
        # Final cache holds every appended key in [t][d][h] order.
        cache = np.ascontiguousarray(
            keys.transpose(0, 2, 1)).astype("<u8").tobytes()
        return cache + _pack(oracle)

    prepared = PreparedWorkload(
        workload="kvcache", variant=variant,
        params={"steps": steps, "heads": heads, "seed": seed},
        regions=[(kv_base, steps * heads * 64),
                 (out_base, steps * heads * 8)],
        ops=ops, finalize=None, expected_image=expected_image,
        pc_traffic=counter,
    )

    def finalize() -> tuple[bool, str]:
        verified = (outputs == oracle
                    and prepared.read_image(system) == expected_image())
        return verified, _digest(_pack(outputs))

    prepared.finalize = finalize
    return prepared


PREPARERS = {
    "gemv": prepare_gemv,
    "embed": prepare_embed,
    "kvcache": prepare_kvcache,
}
