"""ML-inference workload family for GS-DRAM (paper Section 7 analog).

Three kernels whose memory behaviour is dominated by non-unit-stride
gathers — batched GEMV over interleaved weights, embedding-bag lookup,
and KV-cache attention gather — each runnable on the baseline
interleaved machine or the shuffled GS-DRAM machine, on the cycle-level
simulator, with numpy oracles and recordable traces. The ingest
frontend additionally compiles *external* traces (same text format)
onto the gather machine, inferring patterns where the trace doesn't
annotate them.
"""

from repro.infer.generators import (
    GATHER_PATTERN,
    PREPARERS,
    VARIANTS,
    WORKLOADS,
    PreparedWorkload,
    prepare_embed,
    prepare_gemv,
    prepare_kvcache,
)
from repro.infer.ingest import (
    CompiledTrace,
    IngestRun,
    compile_trace,
    run_ingested,
)
from repro.infer.runner import (
    VARIANT_MECHANISMS,
    InferRun,
    replay_infer,
    run_infer,
)

__all__ = [
    "GATHER_PATTERN",
    "PREPARERS",
    "VARIANTS",
    "WORKLOADS",
    "PreparedWorkload",
    "prepare_gemv",
    "prepare_embed",
    "prepare_kvcache",
    "CompiledTrace",
    "IngestRun",
    "compile_trace",
    "run_ingested",
    "VARIANT_MECHANISMS",
    "InferRun",
    "run_infer",
    "replay_infer",
]
