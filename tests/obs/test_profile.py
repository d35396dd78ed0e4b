"""Phase profiler: accumulation, registry mirroring, the null path."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.config import PetConfig
from repro.obs.profile import (
    KERNEL_PHASES,
    NULL_PROFILER,
    NullPhaseProfiler,
    PhaseProfiler,
    active_profiler,
    registry_phase_report,
    write_phase_json,
)
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.sim.batched import BatchedExperimentEngine
from repro.sim.workload import WorkloadSpec


class TestPhaseProfiler:
    def test_accumulates_seconds_and_calls(self):
        profiler = PhaseProfiler()
        for _ in range(3):
            with profiler.phase("hash_passes"):
                pass
        stats = profiler.stats("hash_passes")
        assert stats.calls == 3
        assert stats.seconds >= 0
        assert profiler.total_seconds == stats.seconds

    def test_report_fractions_sum_to_one(self):
        profiler = PhaseProfiler()
        for name in KERNEL_PHASES:
            with profiler.phase(name):
                sum(range(1000))
        report = profiler.report()
        assert set(report) == set(KERNEL_PHASES)
        total = sum(row["fraction"] for row in report.values())
        assert abs(total - 1.0) < 1e-9

    def test_exception_inside_phase_still_recorded(self):
        profiler = PhaseProfiler()
        try:
            with profiler.phase("reduction"):
                raise ValueError("boom")
        except ValueError:
            pass
        assert profiler.stats("reduction").calls == 1

    def test_mirrors_into_registry_histograms(self):
        registry = MetricsRegistry()
        profiler = PhaseProfiler(registry=registry)
        with profiler.phase("seed_matrix"):
            pass
        with profiler.phase("seed_matrix"):
            pass
        histograms = registry.snapshot()["histograms"]
        assert histograms["profile.seed_matrix.seconds"]["count"] == 2

    def test_track_alloc_records_net_allocations(self):
        profiler = PhaseProfiler(track_alloc=True)
        try:
            with profiler.phase("hash_passes"):
                blob = [bytearray(1 << 16) for _ in range(8)]
            assert blob
            assert profiler.stats("hash_passes").alloc_bytes > 0
        finally:
            profiler.close()

    def test_write_json_artifact(self, tmp_path):
        profiler = PhaseProfiler()
        with profiler.phase("finalize"):
            pass
        path = tmp_path / "phases.json"
        profiler.write_json(str(path), extra={"experiment": "fig4"})
        payload = json.loads(path.read_text())
        assert payload["experiment"] == "fig4"
        assert payload["phases"]["finalize"]["calls"] == 1

    def test_profiler_is_truthy_null_is_falsy(self):
        assert PhaseProfiler()
        assert not NullPhaseProfiler()
        assert not NULL_PROFILER


class TestNullPath:
    def test_null_phase_context_is_shared_and_inert(self):
        one = NULL_PROFILER.phase("seed_matrix")
        two = NULL_PROFILER.phase("hash_passes")
        assert one is two
        with one:
            pass  # no state, no error

    def test_active_profiler_resolution(self):
        registry = MetricsRegistry()
        assert active_profiler(registry) is NULL_PROFILER
        assert active_profiler(None) is NULL_PROFILER
        assert active_profiler(NULL_REGISTRY) is NULL_PROFILER
        profiler = PhaseProfiler(registry=registry)
        registry.attach_diagnostics(profiler=profiler)
        assert active_profiler(registry) is profiler


class TestRegistryPhaseReport:
    def test_report_reconstructed_from_histograms(self):
        registry = MetricsRegistry()
        profiler = PhaseProfiler(registry=registry)
        for _ in range(4):
            with profiler.phase("hash_passes"):
                pass
        with profiler.phase("reduction"):
            pass
        report = registry_phase_report(registry)
        assert report["hash_passes"]["calls"] == 4
        assert report["reduction"]["calls"] == 1
        fractions = sum(row["fraction"] for row in report.values())
        assert abs(fractions - 1.0) < 1e-9

    def test_report_survives_snapshot_merge(self):
        # The cross-process path: worker profiles merge into the
        # parent registry and the report reads the merged totals.
        parent = MetricsRegistry()
        for worker_index in range(2):
            worker = MetricsRegistry()
            profiler = PhaseProfiler(registry=worker)
            with profiler.phase("seed_matrix"):
                pass
            parent.merge(
                worker.snapshot(worker_id=f"pid:{worker_index}")
            )
        report = registry_phase_report(parent)
        assert report["seed_matrix"]["calls"] == 2

    def test_write_phase_json_prefers_registry_totals(self, tmp_path):
        registry = MetricsRegistry()
        profiler = PhaseProfiler(registry=registry)
        with profiler.phase("finalize"):
            pass
        path = tmp_path / "merged.json"
        write_phase_json(
            str(path), registry, profiler=profiler, extra={"k": "v"}
        )
        payload = json.loads(path.read_text())
        assert payload["k"] == "v"
        assert payload["phases"]["finalize"]["calls"] == 1
        assert payload["track_alloc"] is False


class TestProfiledCell:
    @pytest.mark.parametrize("passive", [True, False])
    def test_profiled_cell_is_bit_identical_and_covers_every_phase(
        self, passive
    ):
        spec = WorkloadSpec(size=500, seed=3)
        config = PetConfig(passive_tags=passive)
        plain = BatchedExperimentEngine(
            base_seed=11, repetitions=4
        ).run_cell(spec, config, rounds=32)
        registry = MetricsRegistry()
        registry.attach_diagnostics(
            profiler=PhaseProfiler(registry=registry)
        )
        profiled = BatchedExperimentEngine(
            base_seed=11, repetitions=4, registry=registry
        ).run_cell(spec, config, rounds=32)
        np.testing.assert_array_equal(
            plain.estimates, profiled.estimates
        )
        report = registry_phase_report(registry)
        assert set(KERNEL_PHASES) <= set(report)
