"""Live fleet telemetry: delta streaming, watchdog, idempotent stop.

The ISSUE-10 contract: with ``snapshot_interval_seconds`` set, workers
stream registry deltas over the pipe protocol, the router's registry
holds merged mid-run state (so a live scrape sees worker counters
before shutdown), the final merge never double-counts anything the
heartbeats already shipped, and killing a worker flips the fleet
health verdict within the watchdog's miss budget.
"""

import time

import pytest

from repro.api import EstimateRequest
from repro.errors import ConfigurationError
from repro.obs import HeartbeatMonitor, MetricsRegistry
from repro.obs.slo import DEFAULT_OBJECTIVE
from repro.serve import FleetStatus, ServiceConfig, ShardedService

#: Streaming interval small enough to land several beats per test run.
INTERVAL = 0.05


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


def _run_streaming(requests, shards=2, interval=INTERVAL):
    registry = MetricsRegistry()
    config = ServiceConfig(snapshot_interval_seconds=interval)
    with ShardedService(
        shards=shards, config=config, registry=registry
    ) as service:
        responses = [
            future.result()
            for future in [service.submit(r) for r in requests]
        ]
    return registry, service, responses


class TestStreamingMergesLikeStopTime:
    """Satellite 1: the final merge is idempotent against deltas."""

    def test_counters_not_double_counted_at_stop(self):
        requests = _stream(count=16)
        registry, service, responses = _run_streaming(requests)
        snapshot = registry.snapshot()
        counters = snapshot["counters"]
        answered = sum(
            value
            for name, value in counters.items()
            if name.startswith("serve.requests.")
            and name != "serve.requests.submitted"
        )
        # Heartbeats streamed these same counters mid-run; a stop-time
        # re-merge would double them.
        assert answered == len(requests)
        assert counters["serve.router.requests"] == len(requests)
        assert all(r.status == "ok" for r in responses)

    def test_merged_state_matches_non_streaming_run(self):
        requests = _stream(count=16)
        streaming_registry, _, streaming = _run_streaming(requests)
        stop_registry = MetricsRegistry()
        with ShardedService(
            shards=2, config=ServiceConfig(), registry=stop_registry
        ) as service:
            baseline = [
                future.result()
                for future in [service.submit(r) for r in requests]
            ]
        # Bit-identity of the answers across telemetry modes.
        assert [
            (r.request_id, r.status, r.result and r.result.n_hat)
            for r in streaming
        ] == [
            (r.request_id, r.status, r.result and r.result.n_hat)
            for r in baseline
        ]
        live = streaming_registry.snapshot()
        stop = stop_registry.snapshot()
        # Deterministic counters agree exactly; timing-dependent ones
        # (cache hits, batch sizes) are checked for consistency via
        # the gauge/counter cross-check below instead.
        for name in (
            "serve.requests.ok",
            "serve.router.requests",
            "serve.shard.0.routed",
            "serve.shard.1.routed",
        ):
            assert live["counters"].get(name) == stop["counters"].get(
                name
            ), name
        histogram = "serve.request.latency_seconds"
        assert (
            live["histograms"][histogram]["count"]
            == stop["histograms"][histogram]["count"]
        )
        for gauge in (
            "serve.shard.0.requests",
            "serve.shard.1.requests",
            "serve.slo.good_fast",
            "serve.slo.burn_rate_fast",
        ):
            assert live["gauges"][gauge] == stop["gauges"][gauge], gauge
        # Streamed cache telemetry stays self-consistent: the
        # per-shard gauges sum to the merged counter.
        assert live["gauges"]["serve.shard.0.cache_hits"] + live[
            "gauges"
        ]["serve.shard.1.cache_hits"] == live["counters"].get(
            "serve.cache.hits", 0.0
        )

    def test_fleet_gauges_published(self):
        requests = _stream(count=12)
        registry, service, _ = _run_streaming(requests)
        gauges = registry.snapshot()["gauges"]
        for shard in range(2):
            prefix = f"serve.shard.{shard}"
            assert f"{prefix}.heartbeat_age_seconds" in gauges
            assert gauges[f"{prefix}.queue_depth"] == 0
            assert gauges[f"{prefix}.inflight"] == 0
            assert f"{prefix}.burn_rate_fast" in gauges
        total = (
            gauges["serve.shard.0.requests"]
            + gauges["serve.shard.1.requests"]
        )
        assert total == len(requests)
        assert gauges["serve.slo.objective"] == DEFAULT_OBJECTIVE


class TestLiveMidRunState:
    def test_mid_run_registry_carries_worker_series(self):
        registry = MetricsRegistry()
        config = ServiceConfig(snapshot_interval_seconds=INTERVAL)
        requests = _stream(count=12)
        with ShardedService(
            shards=2, config=config, registry=registry
        ) as service:
            for future in [service.submit(r) for r in requests]:
                future.result()
            # All answered; wait out a heartbeat so the deltas land.
            deadline = time.perf_counter() + 5.0
            while time.perf_counter() < deadline:
                counters = registry.snapshot()["counters"]
                if counters.get("serve.requests.ok", 0) >= len(
                    requests
                ):
                    break
                time.sleep(INTERVAL / 2)
            mid = registry.snapshot()
            health = service.fleet_health()
        # Worker-side series were merged while the fleet was running.
        assert mid["counters"]["serve.requests.ok"] == len(requests)
        assert "serve.request.latency_seconds" in mid["histograms"]
        assert mid["gauges"]["serve.slo.good_fast"] == len(requests)
        assert health["status"] == "ok"
        assert set(health["shards"]) == {"0", "1"}
        for shard in health["shards"].values():
            assert shard["status"] == "ok"
            assert shard["heartbeat_age_seconds"] >= 0.0

    def test_health_freezes_ok_after_stop(self):
        requests = _stream(count=8)
        _, service, _ = _run_streaming(requests)
        health = service.fleet_health()
        assert health["status"] == "ok"
        ages = [
            shard["heartbeat_age_seconds"]
            for shard in health["shards"].values()
        ]
        time.sleep(0.05)
        again = [
            shard["heartbeat_age_seconds"]
            for shard in service.fleet_health()["shards"].values()
        ]
        assert again == ages


class TestWatchdog:
    def test_killed_worker_degrades_within_two_intervals(self):
        registry = MetricsRegistry()
        config = ServiceConfig(
            snapshot_interval_seconds=INTERVAL, heartbeat_misses=2
        )
        service = ShardedService(
            shards=2, config=config, registry=registry
        ).start()
        try:
            for future in [
                service.submit(r) for r in _stream(count=8)
            ]:
                future.result()
            victim = service._processes[1]
            victim.kill()
            victim.join(timeout=5.0)
            deadline = time.perf_counter() + 5.0
            flipped_at = None
            while time.perf_counter() < deadline:
                health = service.fleet_health()
                if health["status"] != "ok":
                    flipped_at = time.perf_counter()
                    break
                time.sleep(INTERVAL / 4)
            assert flipped_at is not None, "never left ok"
            assert health["status"] == "degraded"
            assert health["shards"]["1"]["status"] == "dead"
            assert health["shards"]["0"]["status"] == "ok"
        finally:
            # Collector sees every process dead only if both die; put
            # the sentinel so shard 0 drains, then stop.
            service.stop()

    def test_stalled_shard_alerts_once_and_recovers(self):
        registry = MetricsRegistry()
        fleet = FleetStatus(
            shards=1, interval=1.0, misses=2, registry=registry
        )
        fleet.record_heartbeat(0, ts=100.0, queue_depth=0, inflight=0)
        fleet.record_heartbeat(0, ts=101.0, queue_depth=0, inflight=0)
        assert fleet.monitor.check(0, age=1.5) is False
        assert fleet.monitor.check(0, age=2.5) is True
        assert fleet.monitor.check(0, age=2.6) is True
        counters = registry.snapshot()["counters"]
        assert counters["fleet.stall.alerts"] == 1
        events = [
            event
            for event in registry.events
            if event["name"] == "fleet.stall"
        ]
        assert len(events) == 1
        assert events[0]["shard"] == 0
        fleet.record_heartbeat(0, ts=104.0, queue_depth=0, inflight=0)
        assert fleet.monitor.alerting == set()
        assert any(
            event["name"] == "fleet.stall.recovered"
            for event in registry.events
        )


class TestHeartbeatMonitor:
    def test_threshold_floors_at_configured_interval(self):
        monitor = HeartbeatMonitor(1.0, misses=3)
        # Gaps faster than the interval must not tighten the threshold.
        monitor.beat(0, 0.1)
        assert monitor.threshold(0) == pytest.approx(3.0)

    def test_threshold_adapts_to_slow_cadence(self):
        monitor = HeartbeatMonitor(1.0, misses=2, alpha=1.0)
        monitor.beat(0, 4.0)
        assert monitor.threshold(0) == pytest.approx(8.0)
        assert monitor.check(0, age=7.0) is False
        assert monitor.check(0, age=9.0) is True

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"interval": 0.0},
            {"interval": -1.0},
            {"interval": 1.0, "misses": 0},
            {"interval": 1.0, "alpha": 0.0},
            {"interval": 1.0, "alpha": 1.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            HeartbeatMonitor(**kwargs)


class TestConfigValidation:
    def test_negative_snapshot_interval_rejected(self):
        with pytest.raises(ConfigurationError, match="snapshot"):
            ServiceConfig(snapshot_interval_seconds=-0.5)

    def test_heartbeat_misses_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="heartbeat"):
            ServiceConfig(heartbeat_misses=0)

    def test_fleet_absent_without_interval(self):
        registry = MetricsRegistry()
        with ShardedService(
            shards=1, config=ServiceConfig(), registry=registry
        ) as service:
            assert service.fleet.monitor is None
            health = service.fleet_health()
        assert health == {"status": "ok", "shards": {}}
