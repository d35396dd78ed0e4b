"""Tests for the continuous cardinality monitor."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigurationError
from repro.obs.monitor import (
    CardinalityMonitor,
    monitor_population,
    simulate_monitoring,
)


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            CardinalityMonitor(rounds_per_epoch=0)
        with pytest.raises(ConfigurationError):
            CardinalityMonitor(rounds_per_epoch=10, alpha=0.0)
        with pytest.raises(ConfigurationError):
            CardinalityMonitor(rounds_per_epoch=10, warmup_epochs=0)

    def test_rejects_nonpositive_estimates(self):
        monitor = CardinalityMonitor(rounds_per_epoch=64)
        with pytest.raises(ConfigurationError):
            monitor.observe(0.0)


class TestDetection:
    def test_steady_stream_never_flags(self):
        monitor = CardinalityMonitor(rounds_per_epoch=256)
        for _ in range(30):
            monitor.observe(10_000.0)
        assert monitor.change_epochs == []

    def test_step_change_detected(self):
        monitor = CardinalityMonitor(rounds_per_epoch=256)
        for _ in range(5):
            monitor.observe(10_000.0)
        report = monitor.observe(14_000.0)  # +40% step
        assert report.changed
        assert monitor.change_epochs == [5]

    def test_detector_reanchors_after_change(self):
        monitor = CardinalityMonitor(rounds_per_epoch=256)
        for _ in range(5):
            monitor.observe(10_000.0)
        monitor.observe(14_000.0)
        # Subsequent epochs at the new level are quiet.
        for _ in range(5):
            report = monitor.observe(14_000.0)
            assert not report.changed

    def test_warmup_suppresses_flags(self):
        monitor = CardinalityMonitor(
            rounds_per_epoch=256, warmup_epochs=4
        )
        monitor.observe(10_000.0)
        report = monitor.observe(20_000.0)  # epoch 1 < warmup
        assert not report.changed

    def test_noise_within_tolerance_ignored(self):
        # 256 rounds -> relative std ~ 8%; 1-sigma wiggles stay quiet
        # at the default delta = 1% (threshold ~2.58 sigma).
        monitor = CardinalityMonitor(rounds_per_epoch=256)
        sigma = monitor.epoch_relative_std
        base = 10_000.0
        for offset in (1, -1, 1, -1, 1, -1):
            monitor.observe(base * (1 + offset * sigma))
        assert monitor.change_epochs == []

    def test_first_report_has_nan_z(self):
        monitor = CardinalityMonitor(rounds_per_epoch=64)
        report = monitor.observe(5_000.0)
        assert math.isnan(report.z_score)


class TestHelpers:
    def test_monitor_population_stream(self):
        reports = monitor_population(
            [100.0, 100.0, 100.0, 100.0, 100.0, 200.0],
            rounds_per_epoch=256,
        )
        assert len(reports) == 6
        assert reports[-1].changed

    def test_simulate_monitoring_tracks_real_change(self):
        # 12 epochs at 5k, then a jump to 15k: the monitor should flag
        # at or shortly after the jump, and nowhere in steady state
        # after warm-up settles.
        sizes = [5_000] * 12 + [15_000] * 4
        reports = simulate_monitoring(
            sizes, rounds_per_epoch=512, seed=3
        )
        flagged = [r.epoch for r in reports if r.changed]
        assert any(12 <= e <= 13 for e in flagged)
        assert not any(5 <= e < 12 for e in flagged)


class TestObsIntegration:
    """Satellite: the monitor is part of the obs surface now."""

    def test_shim_and_obs_expose_the_same_class(self):
        import repro.obs as obs
        import repro.obs.monitor as home

        assert obs.CardinalityMonitor is home.CardinalityMonitor

    def test_canonical_homes_do_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            import repro  # noqa: F401
            import repro.obs.monitor  # noqa: F401
            import repro.reader.session  # noqa: F401

    def test_drift_emits_event_and_counter(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        monitor = CardinalityMonitor(
            rounds_per_epoch=256, registry=registry
        )
        for _ in range(6):
            monitor.observe(100.0)
        monitor.observe(500.0)
        counters = registry.snapshot()["counters"]
        assert counters["monitor.drift.alerts"] == 1
        (event,) = [
            e for e in registry.events if e["name"] == "monitor.drift"
        ]
        assert event["estimate"] == 500.0
        assert abs(event["z_score"]) > 0

    def test_steady_stream_emits_nothing(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        monitor = CardinalityMonitor(
            rounds_per_epoch=256, registry=registry
        )
        for _ in range(10):
            monitor.observe(100.0)
        assert not registry.events
        assert "monitor.drift.alerts" not in (
            registry.snapshot()["counters"]
        )

    def test_active_registry_is_default(self):
        from repro.obs import MetricsRegistry, use_registry

        registry = MetricsRegistry()
        with use_registry(registry):
            monitor = CardinalityMonitor(rounds_per_epoch=256)
        for _ in range(6):
            monitor.observe(100.0)
        monitor.observe(500.0)
        assert any(
            e["name"] == "monitor.drift" for e in registry.events
        )
