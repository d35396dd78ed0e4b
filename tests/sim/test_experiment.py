"""Tests for the experiment runner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import PetConfig
from repro.errors import ConfigurationError
from repro.sim.experiment import ExperimentRunner
from repro.sim.workload import WorkloadSpec


class TestRunSampled:
    def test_shape_and_seed_stability(self):
        runner = ExperimentRunner(base_seed=1, repetitions=50)
        config = PetConfig()
        first = runner.run_sampled(1_000, config, rounds=32)
        second = runner.run_sampled(1_000, config, rounds=32)
        assert first.estimates.shape == (50,)
        assert first.estimates.tolist() == second.estimates.tolist()

    def test_different_cells_independent(self):
        runner = ExperimentRunner(base_seed=1, repetitions=20)
        config = PetConfig()
        a = runner.run_sampled(1_000, config, rounds=32)
        b = runner.run_sampled(2_000, config, rounds=32)
        assert a.estimates.tolist() != b.estimates.tolist()

    def test_summary_quality(self):
        runner = ExperimentRunner(base_seed=2, repetitions=200)
        repeated = runner.run_sampled(10_000, PetConfig(), rounds=256)
        summary = repeated.summary(epsilon=0.3)
        assert 0.95 < summary.accuracy < 1.05
        assert summary.within_fraction > 0.95

    def test_slot_accounting(self):
        runner = ExperimentRunner(base_seed=3, repetitions=5)
        repeated = runner.run_sampled(500, PetConfig(), rounds=10)
        assert repeated.slots_per_run == 50.0


class TestRunVectorized:
    def test_population_resampled_per_repetition(self):
        runner = ExperimentRunner(base_seed=4, repetitions=30)
        spec = WorkloadSpec(size=500, seed=9)
        repeated = runner.run_vectorized(
            spec, PetConfig(passive_tags=True), rounds=64
        )
        assert repeated.estimates.shape == (30,)
        # Different populations + paths: estimates should vary.
        assert len(set(repeated.estimates.round(3).tolist())) > 10

    def test_accuracy_reasonable(self):
        runner = ExperimentRunner(base_seed=5, repetitions=40)
        spec = WorkloadSpec(size=2_000, seed=1)
        repeated = runner.run_vectorized(spec, PetConfig(), rounds=128)
        summary = repeated.summary()
        assert 0.9 < summary.accuracy < 1.1


class TestRunCustom:
    def test_custom_callable_invoked_per_repetition(self):
        runner = ExperimentRunner(base_seed=6, repetitions=12)
        calls = []

        def one_run(rng: np.random.Generator) -> float:
            calls.append(rng)
            return float(rng.random())

        repeated = runner.run_custom(100, rounds=1, one_run=one_run)
        assert len(calls) == 12
        assert repeated.estimates.shape == (12,)
        # Child generators differ.
        assert len(set(repeated.estimates.tolist())) == 12


class TestValidation:
    def test_rejects_zero_repetitions(self):
        with pytest.raises(ConfigurationError):
            ExperimentRunner(repetitions=0)

    def test_sweep_covers_sizes(self):
        runner = ExperimentRunner(base_seed=7, repetitions=5)
        results = runner.sweep((100, 200), PetConfig(), rounds=8)
        assert [r.true_n for r in results] == [100, 200]

    def test_rejects_unknown_engine(self):
        runner = ExperimentRunner(base_seed=7, repetitions=2)
        with pytest.raises(ConfigurationError):
            runner.run_vectorized(
                WorkloadSpec(size=100, seed=0),
                PetConfig(),
                rounds=4,
                engine="turbo",
            )

    def test_rejects_zero_workers(self):
        runner = ExperimentRunner(base_seed=7, repetitions=2)
        with pytest.raises(ConfigurationError):
            runner.sweep((100,), PetConfig(), rounds=4, workers=0)


class TestSweepWorkers:
    """Parallel sweeps are bit-identical for any worker count."""

    SIZES = (500, 1_000, 2_000, 4_000)

    def test_workers_do_not_change_results(self):
        runner = ExperimentRunner(base_seed=8, repetitions=10)
        config = PetConfig()
        serial = runner.sweep(self.SIZES, config, rounds=16)
        one = runner.sweep(self.SIZES, config, rounds=16, workers=1)
        four = runner.sweep(self.SIZES, config, rounds=16, workers=4)
        for a, b, c in zip(serial, one, four):
            assert a.estimates.tolist() == b.estimates.tolist()
            assert a.estimates.tolist() == c.estimates.tolist()
            assert a.true_n == b.true_n == c.true_n
            assert a.slots_per_run == b.slots_per_run == c.slots_per_run

    def test_parallel_progress_counts_finished_cells(self, monkeypatch):
        import multiprocessing

        from repro.obs import MetricsRegistry, ProgressTracker

        def no_manager(*args, **kwargs):
            raise AssertionError("parallel progress started a Manager")

        runner = ExperimentRunner(base_seed=8, repetitions=10)
        config = PetConfig()
        trackers = {
            workers: ProgressTracker(
                len(self.SIZES), registry=MetricsRegistry(), stream=None
            )
            for workers in (None, 2)
        }
        serial = runner.sweep(
            self.SIZES, config, rounds=16, progress=trackers[None]
        )
        monkeypatch.setattr(multiprocessing, "Manager", no_manager)
        parallel = runner.sweep(
            self.SIZES, config, rounds=16, workers=2,
            progress=trackers[2],
        )
        for a, b in zip(serial, parallel):
            assert a.estimates.tobytes() == b.estimates.tobytes()
            assert a.slots_per_run == b.slots_per_run
        counts = {
            workers: (t.cells_done, t.slots_done, t.rounds_done)
            for workers, t in trackers.items()
        }
        assert counts[2] == counts[None]
        assert counts[None][0] == len(self.SIZES)
        assert counts[None][1] > 0

    def test_more_workers_than_cells(self):
        runner = ExperimentRunner(base_seed=9, repetitions=5)
        config = PetConfig()
        serial = runner.sweep((300, 600), config, rounds=8)
        wide = runner.sweep((300, 600), config, rounds=8, workers=8)
        for a, b in zip(serial, wide):
            assert a.estimates.tolist() == b.estimates.tolist()


class TestSweepTelemetryParity:
    """Worker snapshots merge to the same registry as a serial run."""

    SIZES = (200, 400, 800)

    def _swept_registry(self, workers):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        runner = ExperimentRunner(
            base_seed=11, repetitions=6, registry=registry
        )
        runner.sweep(self.SIZES, PetConfig(), rounds=12, workers=workers)
        return registry

    def test_parallel_registry_equals_serial_on_parity_view(self):
        from repro.obs import parity_view

        serial = parity_view(self._swept_registry(None))
        parallel = parity_view(self._swept_registry(4))
        assert serial == parallel

    def test_counter_totals_identical(self):
        serial = self._swept_registry(None).snapshot()["counters"]
        parallel = self._swept_registry(4).snapshot()["counters"]
        assert serial == parallel
        # Cells were actually counted, not dropped.
        assert serial["experiment.cells"] == len(self.SIZES)

    def test_remote_cells_are_timed_not_nan(self):
        # Satellite: the old parallel path re-recorded remote cells
        # with seconds=NaN; merged snapshots carry the real timings.
        import math

        registry = self._swept_registry(2)
        stats = registry.snapshot()["histograms"][
            "experiment.cell_seconds"
        ]
        assert stats["count"] == len(self.SIZES)
        assert math.isfinite(stats["total"])
        assert stats["total"] > 0

    def test_worker_count_does_not_change_merged_registry(self):
        from repro.obs import parity_view

        views = {
            workers: parity_view(self._swept_registry(workers))
            for workers in (1, 2, 4)
        }
        assert views[1] == views[2] == views[4]
