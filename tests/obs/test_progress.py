"""Live sweep progress: tracker aggregates, ETA, rendering."""

from __future__ import annotations

import io

from repro.obs.progress import ProgressTracker
from repro.obs.registry import MetricsRegistry


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTracker:
    def test_aggregates_and_eta(self):
        clock = FakeClock()
        tracker = ProgressTracker(
            4, registry=MetricsRegistry(), clock=clock
        )
        clock.advance(2.0)
        tracker.cell_done(n=100, slots=64, rounds=8)
        tracker.cell_done(n=200, slots=64, rounds=8)
        assert tracker.cells_done == 2
        assert tracker.slots_done == 128
        assert tracker.rounds_done == 16
        assert tracker.current_n == 200
        assert tracker.fraction_done == 0.5
        assert tracker.cells_per_second == 1.0
        assert tracker.eta_seconds == 2.0

    def test_eta_unknown_before_first_cell(self):
        tracker = ProgressTracker(4, registry=MetricsRegistry())
        assert tracker.eta_seconds == float("inf")
        assert tracker.cells_per_second == 0.0

    def test_gauges_mirror_the_aggregates(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        tracker = ProgressTracker(2, registry=registry, clock=clock)
        clock.advance(1.0)
        tracker.cell_done(n=50, slots=32, rounds=4)
        gauges = registry.snapshot()["gauges"]
        assert gauges["sweep.progress.cells_total"] == 2
        assert gauges["sweep.progress.cells_done"] == 1
        assert gauges["sweep.progress.fraction"] == 0.5
        assert gauges["sweep.progress.slots_done"] == 32
        assert gauges["sweep.progress.cells_per_second"] == 1.0
        assert gauges["sweep.progress.eta_seconds"] == 1.0

    def test_render_throttles_and_finish_forces(self):
        clock = FakeClock()
        stream = io.StringIO()
        tracker = ProgressTracker(
            3,
            registry=MetricsRegistry(),
            stream=stream,
            clock=clock,
        )
        tracker.cell_done(n=10)
        first = stream.getvalue()
        assert "1/3" in first
        tracker.cell_done(n=20)  # same clock tick: throttled
        assert stream.getvalue() == first
        clock.advance(1.0)
        tracker.cell_done(n=30)
        assert "3/3" in stream.getvalue()
        tracker.finish()
        assert stream.getvalue().endswith("\n")

    def test_status_line_contents(self):
        clock = FakeClock()
        tracker = ProgressTracker(
            8, registry=MetricsRegistry(), clock=clock
        )
        clock.advance(2.0)
        tracker.cell_done(n=25_000, slots=1_000, rounds=100)
        line = tracker.status_line()
        assert "1/8 cells" in line
        assert "eta" in line
        assert "n=25,000" in line

    def test_no_stream_means_no_rendering(self):
        tracker = ProgressTracker(1, registry=MetricsRegistry())
        tracker.cell_done()
        tracker.finish()  # must not raise
