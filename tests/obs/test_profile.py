"""Kernel phases as registry spans, and the per-phase JSON report."""

from __future__ import annotations

import json
from collections import Counter

import numpy as np
import pytest

from repro.config import PetConfig
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.obs.span import KERNEL_PHASES, NULL_SPAN, write_phase_json
from repro.sim.batched import BatchedExperimentEngine
from repro.sim.experiment import ExperimentRunner
from repro.sim.protocol_batched import ProtocolCellSpec, run_protocol_cell
from repro.sim.workload import WorkloadSpec


def _report(registry, tmp_path, **extra):
    path = tmp_path / "phases.json"
    write_phase_json(str(path), registry, extra=extra or None)
    return json.loads(path.read_text())


class TestPhaseProfiler:
    def test_accumulates_seconds_and_calls(self, tmp_path):
        registry = MetricsRegistry()
        for _ in range(3):
            with registry.span("hash_passes"):
                pass
        report = _report(registry, tmp_path)
        row = report["phases"]["hash_passes"]
        assert row["calls"] == 3
        assert row["seconds"] >= 0
        assert report["total_seconds"] == row["seconds"]

    def test_report_fractions_sum_to_one(self, tmp_path):
        registry = MetricsRegistry()
        for name in KERNEL_PHASES:
            with registry.span(name):
                sum(range(1000))
        phases = _report(registry, tmp_path)["phases"]
        assert set(phases) == set(KERNEL_PHASES)
        total = sum(row["fraction"] for row in phases.values())
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_exception_inside_phase_still_recorded(self, tmp_path):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            with registry.span("reduction"):
                raise ValueError("boom")
        assert _report(registry, tmp_path)["phases"]["reduction"][
            "calls"
        ] == 1

    def test_mirrors_into_registry_histograms(self):
        registry = MetricsRegistry()
        with registry.span("cell"):
            for _ in range(2):
                with registry.span("seed_matrix"):
                    pass
        histograms = registry.snapshot()["histograms"]
        assert histograms["span.cell.seed_matrix.seconds"]["count"] == 2

    def test_write_json_artifact(self, tmp_path):
        registry = MetricsRegistry()
        with registry.span("finalize"):
            pass
        payload = _report(registry, tmp_path, experiment="fig4")
        assert payload["experiment"] == "fig4"
        assert payload["phases"]["finalize"]["calls"] == 1


class TestNullPath:
    def test_null_phase_context_is_shared_and_inert(self):
        one = NULL_REGISTRY.span("seed_matrix")
        two = NULL_REGISTRY.span("hash_passes")
        assert one is two is NULL_SPAN
        with one:
            pass  # no state, no error


class TestRegistryPhaseReport:
    def test_report_reconstructed_from_histograms(self, tmp_path):
        registry = MetricsRegistry()
        with registry.span("cell"):
            for _ in range(4):
                with registry.span("hash_passes"):
                    pass
        with registry.span("sweep"):
            with registry.span("reduction"):
                pass
        phases = _report(registry, tmp_path)["phases"]
        # Only the phase segment counts; enclosing spans are ignored.
        assert set(phases) == {"hash_passes", "reduction"}
        assert phases["hash_passes"]["calls"] == 4
        assert phases["reduction"]["calls"] == 1
        fractions = sum(row["fraction"] for row in phases.values())
        assert fractions == pytest.approx(1.0, abs=1e-3)

    def test_report_survives_snapshot_merge(self, tmp_path):
        # The cross-process path: worker phase spans merge into the
        # parent registry and the report reads the merged totals.
        parent = MetricsRegistry()
        for worker_index in range(2):
            worker = MetricsRegistry()
            with worker.span("cell"):
                with worker.span("seed_matrix"):
                    pass
            parent.merge(
                worker.snapshot(worker_id=f"pid:{worker_index}")
            )
        phases = _report(parent, tmp_path)["phases"]
        assert phases["seed_matrix"]["calls"] == 2

    def test_write_phase_json_prefers_registry_totals(self, tmp_path):
        registry = MetricsRegistry()
        with registry.span("finalize"):
            pass
        payload = _report(registry, tmp_path, k="v")
        assert set(payload) == {"total_seconds", "phases", "k"}
        assert set(payload["phases"]["finalize"]) == {
            "seconds",
            "calls",
            "fraction",
        }
        assert payload["phases"]["finalize"]["calls"] == 1


class TestProfiledCell:
    @pytest.mark.parametrize("passive", [True, False])
    def test_profiled_cell_is_bit_identical_and_covers_every_phase(
        self, passive
    ):
        spec = WorkloadSpec(size=500, seed=3)
        config = PetConfig(passive_tags=passive)
        plain = BatchedExperimentEngine(
            base_seed=11, repetitions=4, registry=NULL_REGISTRY
        ).run_cell(spec, config, rounds=32)
        registry = MetricsRegistry()
        profiled = BatchedExperimentEngine(
            base_seed=11, repetitions=4, registry=registry
        ).run_cell(spec, config, rounds=32)
        np.testing.assert_array_equal(
            plain.estimates, profiled.estimates
        )
        assert plain.slots_per_run == profiled.slots_per_run
        histograms = registry.snapshot()["histograms"]
        for phase in KERNEL_PHASES:
            assert histograms[f"span.cell.{phase}.seconds"]["count"] == 1


def _phase_spans(run) -> Counter:
    """Phase spans one call of ``run(registry, repetitions)`` records.

    Every phase must sit directly inside its ``cell`` or ``grid`` span.
    """
    counts = {}
    for repetitions in (1, 8):
        registry = MetricsRegistry()
        run(registry, repetitions)
        phases = [
            record
            for record in registry.trace
            if record.name in KERNEL_PHASES
        ]
        assert {record.path.rsplit(".", 1)[0] for record in phases} in (
            {"cell"},
            {"grid"},
        )
        counts[repetitions] = Counter(record.name for record in phases)
    assert counts[1] == counts[8]
    return counts[1]


class TestPhaseSpansPerCell:
    """A phase is one span per cell, at any repetition count."""

    SPEC = WorkloadSpec(size=300, seed=5)

    @pytest.mark.parametrize("passive", [True, False])
    def test_batched_run_cell(self, passive):
        def run(registry, repetitions):
            BatchedExperimentEngine(
                base_seed=3, repetitions=repetitions, registry=registry
            ).run_cell(self.SPEC, PetConfig(passive_tags=passive), 16)

        assert _phase_spans(run) == Counter(KERNEL_PHASES)

    def test_serial_rounds_grid(self):
        def run(registry, repetitions):
            BatchedExperimentEngine(
                base_seed=3, repetitions=repetitions, registry=registry
            ).run_rounds_grid(
                self.SPEC, PetConfig(passive_tags=True), [4, 8, 16]
            )

        assert _phase_spans(run) == Counter(
            seed_matrix=1, hash_passes=1, finalize=3, reduction=3
        )

    def test_protocol_cell(self):
        def run(registry, repetitions):
            run_protocol_cell(
                *ProtocolCellSpec("lof", 300, 8).build(),
                rounds=8,
                repetitions=repetitions,
                registry=registry,
            )

        assert _phase_spans(run) == Counter(KERNEL_PHASES)

    def test_sampled_cell(self):
        def run(registry, repetitions):
            ExperimentRunner(
                base_seed=3, repetitions=repetitions, registry=registry
            ).run_sampled(1_000, PetConfig(), 16)

        assert _phase_spans(run) == Counter(
            seed_matrix=1, hash_passes=1, reduction=1
        )
