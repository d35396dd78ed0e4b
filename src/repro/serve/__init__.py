"""repro.serve — estimation as a long-running, multi-tenant service.

A single :class:`EstimationService` accepts concurrent
:class:`~repro.api.EstimateRequest` submissions (many tenants / reader
fields) and coalesces them through a micro-batching scheduler: each
drained batch packs the pending compatible requests — same protocol
configuration, same cached population — into one batched kernel
invocation (:mod:`repro.serve.batching`), so serving 32 concurrent
estimates costs one kernel launch, not 32.

Coalescing is semantically lossless: each request's randomness is
drawn from its own generator in the scalar consumption order, so a
request served through a fused batch returns a bit-identical estimate
to :func:`repro.estimate` with the same seed.

Robustness is part of the contract — a bounded queue answering
``rejected`` (with a retry-after hint) under backpressure, per-tenant
quotas, request deadlines answered ``expired`` before touching a
kernel, and graceful degradation to the sampled tier under overload.
Request-level SLO metrics (latency histogram on the fixed log2 grid,
queue-depth gauge, per-tenant counters) land in the attached
:class:`~repro.obs.MetricsRegistry`.

Beyond one event loop, :class:`~repro.serve.shard.ShardedService`
(:mod:`repro.serve.shard`) hash-routes admitted requests across N
worker processes each running this service, and
:class:`~repro.serve.cache.ResultCache` answers idempotent replays
before any kernel — both preserve the bit-identity contract.

:mod:`repro.serve.loadgen` generates deterministic Poisson/bursty
traffic against the service; ``python -m repro serve`` / ``python -m
repro loadgen`` are the CLI faces.  See docs/SERVING.md.
"""

from .batching import (
    MicroBatchReport,
    degradable,
    execute_degraded,
    execute_micro_batch,
)
from .cache import DEFAULT_CACHE_SIZE, ResultCache
from .loadgen import (
    PATTERNS,
    LoadgenConfig,
    LoadReport,
    build_schedule,
    drive,
    run_load,
    summarize,
)
from .service import EstimationService, ServiceConfig, run_requests
from .shard import FleetStatus, ShardedService, route_shard, run_sharded

__all__ = [
    "EstimationService",
    "ServiceConfig",
    "run_requests",
    "ShardedService",
    "FleetStatus",
    "route_shard",
    "run_sharded",
    "ResultCache",
    "DEFAULT_CACHE_SIZE",
    "MicroBatchReport",
    "execute_micro_batch",
    "execute_degraded",
    "degradable",
    "LoadgenConfig",
    "LoadReport",
    "PATTERNS",
    "build_schedule",
    "drive",
    "run_load",
    "summarize",
]
