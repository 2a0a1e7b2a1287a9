"""Vectorized batch query engine for whole pair workloads.

One shared ε-RR round, executed entirely at array level: bulk randomized
response over every distinct workload vertex, sparse-matrix pairwise
counting (SciPy Gram product with a ``searchsorted`` merge fallback), a
bulk sketch-mode path for million-vertex candidate pools, and a workload
planner that dedupes vertices, honors analyst budget managers, and emits
one privacy/communication accounting per batch. For workloads whose
noisy output exceeds one worker's memory, the shard planner
(:func:`plan_shards`) and process-parallel :class:`ShardedRunner`
partition the keyed bulk-RR + pairwise stages over contiguous vertex
ranges with bit-identical output (``docs/sharding-guide.md``). Sublinear
per-vertex memory comes from sketch views (:mod:`repro.engine.sketches`):
blipped Bloom, vector-of-counts, and HLL encodings that
:func:`plan_views` assigns per vertex under a byte budget
(``docs/sketch-guide.md``).
"""

from repro.engine.bulkrr import (
    bernoulli_hits,
    bulk_randomized_response,
    keyed_bulk_randomized_response,
    keyed_sketch_uniforms,
    shard_bulk_randomized_response,
)
from repro.engine.core import (
    BATCH_METHODS,
    BatchQueryEngine,
    EngineResult,
    workload_party,
)
from repro.engine.faults import FaultAction, FaultPlan
from repro.engine.pairwise import (
    HAVE_SCIPY,
    choose_backend,
    debias_pair_counts,
    pack_bitset_rows,
    pairwise_intersections,
)
from repro.engine.planner import (
    ShardPlan,
    ViewPlan,
    WorkloadPlan,
    estimate_noisy_row_bytes,
    pair_keys,
    plan_shards,
    plan_views,
    plan_workload,
)
from repro.engine.sharded import (
    ShardDraw,
    ShardedRunner,
    WorkloadDraw,
    fork_available,
)
from repro.engine.sketch import sketch_pair_counts
from repro.engine.transport import (
    ForkTransport,
    InlineTransport,
    RetryPolicy,
    ShardResult,
    ShardSpec,
    ShardTransport,
    SocketTransport,
    WorkerRegistry,
    execute_spec,
    make_transport,
)
from repro.engine.sketches import (
    SKETCH_KINDS,
    BloomSketch,
    HllSketch,
    SketchConfig,
    SketchFamily,
    VectorOfCountsSketch,
    sketch_family,
)

__all__ = [
    "BATCH_METHODS",
    "BatchQueryEngine",
    "EngineResult",
    "FaultAction",
    "FaultPlan",
    "ForkTransport",
    "InlineTransport",
    "RetryPolicy",
    "ShardDraw",
    "ShardPlan",
    "ShardResult",
    "ShardSpec",
    "ShardTransport",
    "ShardedRunner",
    "SocketTransport",
    "WorkerRegistry",
    "WorkloadDraw",
    "SketchConfig",
    "SketchFamily",
    "BloomSketch",
    "VectorOfCountsSketch",
    "HllSketch",
    "SKETCH_KINDS",
    "ViewPlan",
    "WorkloadPlan",
    "estimate_noisy_row_bytes",
    "execute_spec",
    "fork_available",
    "make_transport",
    "pair_keys",
    "plan_shards",
    "plan_views",
    "plan_workload",
    "sketch_family",
    "workload_party",
    "pack_bitset_rows",
    "bernoulli_hits",
    "bulk_randomized_response",
    "keyed_bulk_randomized_response",
    "keyed_sketch_uniforms",
    "shard_bulk_randomized_response",
    "choose_backend",
    "pairwise_intersections",
    "debias_pair_counts",
    "sketch_pair_counts",
    "HAVE_SCIPY",
]
