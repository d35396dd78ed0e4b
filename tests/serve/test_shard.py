"""The sharded router: determinism, bit-identity, merged telemetry.

The contract under test is the ISSUE-9 tentpole: the same request
stream produces the same shard assignment and the same responses for
1, 2, and 4 shards — including quota exhaustion, which the router
adjudicates before anything crosses a process boundary.
"""

import numpy as np
import pytest

from repro.api import EstimateRequest
from repro.errors import ConfigurationError, ServiceError
from repro.obs import MetricsRegistry
from repro.serve import (
    ServiceConfig,
    ShardedService,
    route_shard,
    run_requests,
    run_sharded,
)

#: Small, fast workload reused across the identity tests.
def _stream(count=16, populations=(200, 300), seeds=6):
    requests = []
    for index in range(count):
        requests.append(
            EstimateRequest(
                population=populations[index % len(populations)],
                population_seed=1_000 + (index % 3),
                seed=100 + (index % seeds),
                rounds=8,
                tenant=f"tenant-{index % 2}",
                request_id=f"req-{index:03d}",
            )
        )
    return requests


def _essence(response):
    """The deterministic part of a response (timing stripped)."""
    if response.result is None:
        return (response.status, response.request_id, None)
    return (
        response.status,
        response.request_id,
        response.result.n_hat,
        response.result.total_slots,
        tuple(response.result.per_round_statistics.tolist()),
    )


class TestRouting:
    def test_route_is_deterministic(self):
        for request in _stream():
            assert route_shard(request, 4) == route_shard(request, 4)

    def test_single_shard_routes_to_zero(self):
        assert all(
            route_shard(request, 1) == 0 for request in _stream()
        )

    def test_route_depends_on_group_not_request_identity(self):
        # Same protocol config + population fingerprint => same shard,
        # regardless of tenant/request_id/seed (fusible requests and
        # cache repeats co-locate).
        a = EstimateRequest(
            population=500, population_seed=3, seed=1, tenant="a",
            request_id="x",
        )
        b = EstimateRequest(
            population=500, population_seed=3, seed=2, tenant="b",
            request_id="y",
        )
        c = EstimateRequest(population=500, population_seed=4, seed=1)
        assert route_shard(a, 4) == route_shard(b, 4)
        # Different fingerprints are free to differ (and do for this
        # pair under CRC-32).
        assert route_shard(a, 4) in range(4)
        assert route_shard(c, 4) in range(4)

    def test_bad_shard_count_rejected(self):
        with pytest.raises(ConfigurationError, match="shards"):
            ShardedService(shards=0)


class TestLifecycle:
    def test_submit_before_start_raises(self):
        service = ShardedService(shards=1)
        with pytest.raises(ServiceError, match="not accepting"):
            service.submit(_stream(1)[0])

    def test_stop_before_start_raises(self):
        with pytest.raises(ServiceError, match="never started"):
            ShardedService(shards=1).stop()


class TestBitIdentity:
    def test_responses_identical_across_shard_counts(self):
        requests = _stream()
        baseline = [
            _essence(response)
            for response in run_requests(
                requests, config=ServiceConfig(), concurrency=8
            )
        ]
        assert all(status == "ok" for status, _, *_ in baseline)
        for shards in (1, 2, 4):
            sharded = [
                _essence(response)
                for response in run_sharded(
                    requests,
                    shards=shards,
                    config=ServiceConfig(),
                    concurrency=8,
                )
            ]
            assert sharded == baseline, f"shards={shards}"

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_cache_off_matches_cache_on(self, shards):
        requests = _stream()
        with_cache = [
            _essence(response)
            for response in run_sharded(
                requests, shards=shards, config=ServiceConfig()
            )
        ]
        without_cache = [
            _essence(response)
            for response in run_sharded(
                requests,
                shards=shards,
                config=ServiceConfig(cache=False),
            )
        ]
        assert with_cache == without_cache


class TestQuotaDeterminism:
    def test_quota_exhaustion_is_identical_across_shard_counts(self):
        # One tenant, quota 4, concurrency above it: the router
        # admits in submission order, so exactly the same request ids
        # are rejected no matter how many shards race behind it.  A
        # long tick keeps every admitted request in flight until all
        # submissions have been adjudicated.
        requests = [
            EstimateRequest(
                population=200,
                population_seed=1_000,
                seed=50 + index,
                rounds=4,
                tenant="hot",
                request_id=f"req-{index:03d}",
            )
            for index in range(12)
        ]
        config = ServiceConfig(tenant_quota=4, tick_seconds=0.25)
        outcomes = {}
        for shards in (1, 2, 4):
            responses = run_sharded(
                requests, shards=shards, config=config, concurrency=64
            )
            outcomes[shards] = [
                (response.request_id, response.status)
                for response in responses
            ]
            rejected = [
                response
                for response in responses
                if response.status == "rejected"
            ]
            assert len(rejected) == 8, f"shards={shards}"
            assert all(
                response.retry_after
                == config.retry_after_seconds
                for response in rejected
            )
        assert outcomes[1] == outcomes[2] == outcomes[4]


class TestMergedTelemetry:
    def test_counters_gauges_and_shared_memory_merge_home(self):
        registry = MetricsRegistry()
        requests = _stream()
        responses = run_sharded(
            requests, shards=2, config=ServiceConfig(),
            registry=registry,
        )
        assert all(
            response.status == "ok" for response in responses
        )
        snapshot = registry.snapshot()
        counters = snapshot.counters
        # Each request is answered exactly once somewhere.
        answered = sum(
            value
            for name, value in counters.items()
            if name.startswith("serve.requests.")
            and name != "serve.requests.submitted"
        )
        assert answered == len(requests)
        assert counters["serve.router.requests"] == len(requests)
        routed = sum(
            counters.get(f"serve.shard.{index}.routed", 0)
            for index in range(2)
        )
        assert routed == len(requests)
        # Zero-copy populations: one segment per (size, seed) field,
        # attached by workers, unlinked by the router at stop.
        assert counters["sharedmem.segments"] >= 1
        assert counters["sharedmem.attaches"] >= 1
        assert (
            counters["sharedmem.unlinks"]
            == counters["sharedmem.segments"]
        )
        gauges = snapshot.gauges
        per_shard = sum(
            gauges.get(f"serve.shard.{index}.requests", 0)
            for index in range(2)
        )
        assert per_shard == len(requests)
        # Merged SLO burn rates recomputed from additive totals.
        assert gauges["serve.slo.good_fast"] == len(requests)
        assert gauges["serve.slo.burn_rate_fast"] == 0.0

    def test_stop_time_run_publishes_shard_attribution_gauges(self):
        requests = _stream() + _stream()  # replays hit the cache
        attribution = (
            "requests", "cache_hits", "cache_misses", "p99_seconds",
            "burn_rate_fast",
        )
        published = {}
        for interval in (None, 0.05):
            registry = MetricsRegistry()
            run_sharded(
                requests,
                shards=2,
                config=ServiceConfig(snapshot_interval_seconds=interval),
                registry=registry,
            )
            snapshot = registry.snapshot()
            gauges, counters = snapshot.gauges, snapshot.counters
            published[interval] = {
                name
                for name in gauges
                if name.startswith("serve.shard.")
                and name.rsplit(".", 1)[-1] in attribution
            }
            per_shard = sum(
                gauges[f"serve.shard.{index}.{name}"]
                for index in range(2)
                for name in ("cache_hits", "cache_misses")
            )
            assert per_shard == counters["serve.cache.hits"] + counters[
                "serve.cache.misses"
            ]
        assert published[None] == published[0.05] == {
            f"serve.shard.{index}.{name}"
            for index in range(2)
            for name in attribution
        }

    def test_end_to_end_latency_is_router_measured(self):
        registry = MetricsRegistry()
        responses = run_sharded(
            _stream(4), shards=2, config=ServiceConfig(),
            registry=registry,
        )
        for response in responses:
            assert response.latency_seconds > 0

    def test_trace_waterfall_crosses_the_hop(self):
        registry = MetricsRegistry()
        run_sharded(
            _stream(6), shards=2, config=ServiceConfig(),
            registry=registry,
        )
        spans = registry.snapshot().spans
        routes = [s for s in spans if s.name == "serve.route"]
        requests = [s for s in spans if s.name == "serve.request"]
        kernels = [s for s in spans if s.name == "kernel"]
        assert routes and requests and kernels
        by_span_id = {s.span_id: s for s in spans}
        for request_span in requests:
            parent = by_span_id.get(request_span.parent_id)
            assert parent is not None
            assert parent.name == "serve.route"
            assert parent.trace_id == request_span.trace_id
            assert parent.attributes["shard"].startswith("shard-")
        for kernel_span in kernels:
            assert kernel_span.attributes["shard"].startswith(
                "shard-"
            )
            assert kernel_span.attributes["worker.id"].startswith(
                "shard-"
            )

    def test_cache_hits_merge_per_shard(self):
        registry = MetricsRegistry()
        requests = _stream() + _stream()  # full replay
        # One request in flight at a time: every replay is submitted
        # after its original was answered and cached, so each one hits.
        run_sharded(
            requests, shards=2, config=ServiceConfig(),
            registry=registry, concurrency=1,
        )
        snapshot = registry.snapshot()
        assert snapshot.counters["serve.cache.hits"] >= len(
            _stream()
        )
        per_shard_hits = sum(
            snapshot.gauges.get(f"serve.shard.{index}.cache_hits", 0)
            for index in range(2)
        )
        assert (
            per_shard_hits == snapshot.counters["serve.cache.hits"]
        )
