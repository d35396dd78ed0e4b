"""Tests for the cross-protocol batched comparison engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, EstimationError
from repro.obs import MetricsRegistry
from repro.obs.registry import NULL_REGISTRY
from repro.protocols import make_protocol
from repro.protocols.pet import PetProtocol
from repro.sim.batched import CHUNK_ELEMENTS
from repro.sim.experiment import ExperimentRunner
from repro.sim.protocol_batched import (
    ProtocolCellSpec,
    _chunked_statistics,
    run_protocol_cell,
    seed_matrix,
    sweep_protocol_cells,
)
from repro.sim.workload import WorkloadSpec, build_population

#: Every protocol with a batched engine, with configs small enough for
#: fast cells (UPE's frame < prior exercises the persistence mask).
ENGINE_CASES = [
    ("fneb", {}),
    ("lof", {}),
    ("use", {"frame_size": 256}),
    ("upe", {"frame_size": 64, "prior_n": 256}),
    ("ezb", {"frame_size": 128}),
    ("aloha", {"frame_size": 256}),
]


@pytest.fixture(scope="module")
def population():
    return build_population(WorkloadSpec(size=200, seed=7))


class TestSeedMatrix:
    def test_rows_match_scalar_seed_stream(self):
        seeds = seed_matrix(base_seed=123, repetitions=4, draws=16)
        children = np.random.SeedSequence(123).spawn(4)
        for row, child in zip(seeds, children):
            rng = np.random.default_rng(child)
            scalar = [int(rng.integers(0, 2**63)) for _ in range(16)]
            assert row.tolist() == scalar

    def test_validates_arguments(self):
        with pytest.raises(ConfigurationError):
            seed_matrix(1, repetitions=0, draws=4)
        with pytest.raises(ConfigurationError):
            seed_matrix(1, repetitions=4, draws=0)


class TestBitIdentity:
    @pytest.mark.parametrize("name,config", ENGINE_CASES)
    def test_cell_matches_scalar_reference_loop(
        self, name, config, population
    ):
        protocol = make_protocol(name, **config)
        cell = run_protocol_cell(
            protocol, population, rounds=12, repetitions=6, base_seed=99
        )
        reference = ExperimentRunner(
            base_seed=99, repetitions=6
        ).run_custom(
            population.size,
            12,
            lambda rng: protocol.estimate(population, 12, rng).n_hat,
        )
        assert cell.estimates.tolist() == reference.estimates.tolist()

    def test_statistics_shape_accounts_for_multi_frame_rounds(
        self, population
    ):
        ezb = make_protocol("ezb", frame_size=64, frames_per_round=3)
        cell = run_protocol_cell(
            ezb, population, rounds=5, repetitions=4, base_seed=1
        )
        assert cell.statistics.shape == (4, 15)
        assert cell.slots_per_run == 5 * ezb.slots_per_round()


def _spy_rows(engine) -> list[int]:
    """Record the row count of every ``round_statistics`` call."""
    rows: list[int] = []
    original = engine.round_statistics

    def spy(seeds, population):
        rows.append(len(seeds))
        return original(seeds, population)

    engine.round_statistics = spy
    return rows


class TestChunkRule:
    """Chunks bound each per-seed temporary, not their sum."""

    @pytest.mark.parametrize("name,config", ENGINE_CASES)
    def test_chunks_match_one_call_per_seed(self, name, config, population):
        engine = make_protocol(name, **config).batched_engine()
        seeds = seed_matrix(base_seed=17, repetitions=4, draws=100)
        per_seed = [
            engine.round_statistics(seeds.ravel()[i : i + 1], population)[0]
            for i in range(seeds.size)
        ]
        rows = _spy_rows(engine)
        chunked = _chunked_statistics(engine, seeds, population)
        assert len(rows) > 1  # the 400 seeds really were split
        assert chunked.shape == seeds.shape
        assert chunked.ravel().tolist() == per_seed

    @pytest.mark.parametrize("frame_size", [1 << 12, 1 << 16])
    @pytest.mark.parametrize(
        "name,sentinel", [("aloha", 0), ("ezb", 1)]
    )
    def test_large_frame_over_small_population_stays_bounded(
        self, name, sentinel, frame_size
    ):
        small = build_population(WorkloadSpec(size=100, seed=5))
        engine = make_protocol(name, frame_size=frame_size).batched_engine()
        # The count matrix (plus EZB's sentinel column) is the widest row.
        width = max(small.size, frame_size + sentinel)
        assert engine.work_per_seed(small) == width
        seeds = seed_matrix(base_seed=3, repetitions=2, draws=12)
        rows = _spy_rows(engine)
        _chunked_statistics(engine, seeds, small)
        assert sum(rows) == seeds.size
        for count in rows:
            # A row wider than the bound is evaluated alone.
            assert count * width <= max(CHUNK_ELEMENTS, width)


class TestSaturationPolicy:
    def test_raise_propagates_like_the_scalar_loop(self):
        # n >> f: every slot busy, the zero inversion is undefined.
        saturated_pop = build_population(WorkloadSpec(size=60, seed=3))
        use = make_protocol("use", frame_size=4)
        with pytest.raises(EstimationError):
            run_protocol_cell(
                use, saturated_pop, rounds=3, repetitions=4, base_seed=5
            )

    def test_nan_flags_and_counts_saturated_runs(self):
        saturated_pop = build_population(WorkloadSpec(size=60, seed=3))
        use = make_protocol("use", frame_size=4)
        cell = run_protocol_cell(
            use,
            saturated_pop,
            rounds=3,
            repetitions=4,
            base_seed=5,
            on_error="nan",
        )
        assert cell.saturated_runs == 4
        assert np.isnan(cell.estimates).all()

    def test_rejects_unknown_policy(self, population):
        with pytest.raises(ConfigurationError):
            run_protocol_cell(
                make_protocol("fneb"),
                population,
                rounds=2,
                on_error="ignore",
            )


class TestValidation:
    def test_pet_has_no_protocol_engine(self, population):
        assert PetProtocol().batched_engine() is None
        with pytest.raises(ConfigurationError, match="batched engine"):
            run_protocol_cell(
                PetProtocol(), population, rounds=4, repetitions=2
            )

    def test_rejects_bad_rounds(self, population):
        with pytest.raises(ConfigurationError):
            run_protocol_cell(make_protocol("fneb"), population, rounds=0)


class TestSweep:
    SPECS = [
        ProtocolCellSpec("fneb", 150, 6),
        ProtocolCellSpec("lof", 150, 6),
        ProtocolCellSpec("use", 150, 6, config={"frame_size": 256}),
    ]

    def test_workers_do_not_change_results(self):
        serial = sweep_protocol_cells(
            self.SPECS, repetitions=5, base_seed=21
        )
        parallel = sweep_protocol_cells(
            self.SPECS, repetitions=5, base_seed=21, workers=2
        )
        for a, b in zip(serial, parallel):
            assert a.protocol == b.protocol
            assert a.estimates.tolist() == b.estimates.tolist()

    @pytest.mark.parametrize("workers", [None, 2])
    def test_shared_seed_matrix_matches_per_cell_derivation(
        self, workers
    ):
        per_cell = sweep_protocol_cells(
            self.SPECS, repetitions=5, base_seed=21
        )
        shared = sweep_protocol_cells(
            self.SPECS,
            repetitions=5,
            base_seed=21,
            workers=workers,
            share_seeds=True,
        )
        for a, b in zip(per_cell, shared):
            assert a.estimates.tolist() == b.estimates.tolist()
            assert a.slots_per_run == b.slots_per_run

    def test_parallel_progress_counts_finished_cells(self, monkeypatch):
        import multiprocessing

        from repro.obs import ProgressTracker

        def no_manager(*args, **kwargs):
            raise AssertionError("parallel progress started a Manager")

        trackers = {
            workers: ProgressTracker(
                len(self.SPECS), registry=MetricsRegistry(), stream=None
            )
            for workers in (None, 2)
        }
        serial = sweep_protocol_cells(
            self.SPECS, repetitions=5, base_seed=21,
            progress=trackers[None],
        )
        monkeypatch.setattr(multiprocessing, "Manager", no_manager)
        parallel = sweep_protocol_cells(
            self.SPECS, repetitions=5, base_seed=21, workers=2,
            progress=trackers[2],
        )
        for a, b in zip(serial, parallel):
            assert a.protocol == b.protocol
            assert a.estimates.tobytes() == b.estimates.tobytes()
            assert a.slots_per_run == b.slots_per_run
        counts = {
            workers: (t.cells_done, t.slots_done, t.rounds_done)
            for workers, t in trackers.items()
        }
        assert counts[2] == counts[None]
        assert counts[None][0] == len(self.SPECS)
        assert counts[None][1] > 0

    def test_parallel_cells_are_recorded_in_parent_registry(self):
        registry = MetricsRegistry()
        sweep_protocol_cells(
            self.SPECS,
            repetitions=5,
            base_seed=21,
            workers=2,
            registry=registry,
        )
        counters = registry.snapshot()["counters"]
        assert counters["experiment.cells"] == len(self.SPECS)
        assert counters["protocol.FNEB.runs"] == 5

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ConfigurationError):
            sweep_protocol_cells(self.SPECS, repetitions=2, workers=0)

    def test_parallel_registry_matches_serial_on_parity_view(self):
        from repro.obs import parity_view

        views = {}
        for workers in (None, 2):
            registry = MetricsRegistry()
            results = sweep_protocol_cells(
                self.SPECS,
                repetitions=5,
                base_seed=21,
                workers=workers,
                registry=registry,
            )
            views[workers] = (
                parity_view(registry),
                [r.estimates.tolist() for r in results],
            )
        assert views[None] == views[2]

    def test_remote_cells_are_timed_not_nan(self):
        import math

        registry = MetricsRegistry()
        sweep_protocol_cells(
            self.SPECS,
            repetitions=5,
            base_seed=21,
            workers=2,
            registry=registry,
        )
        stats = registry.snapshot()["histograms"][
            "experiment.cell_seconds"
        ]
        assert stats["count"] == len(self.SPECS)
        assert math.isfinite(stats["total"])
        assert stats["total"] > 0

    def test_spec_label_and_build(self):
        spec = ProtocolCellSpec("lof", 99, 4)
        assert spec.label == "lof@n=99"
        protocol, pop = spec.build()
        assert protocol.name == "LoF"
        assert pop.size == 99


class TestObservability:
    @pytest.mark.parametrize("name,config", ENGINE_CASES)
    def test_counters_match_the_scalar_paths(
        self, name, config, population
    ):
        protocol = make_protocol(name, **config)
        batched_registry = MetricsRegistry()
        cell = run_protocol_cell(
            protocol,
            population,
            rounds=7,
            repetitions=5,
            base_seed=31,
            registry=batched_registry,
        )

        scalar_registry = MetricsRegistry()
        instrumented = make_protocol(name, **config)
        instrumented.instrument(scalar_registry)
        runner = ExperimentRunner(base_seed=31, repetitions=5)
        runner.run_custom(
            population.size,
            7,
            lambda rng: instrumented.estimate(population, 7, rng).n_hat,
        )

        batched = batched_registry.snapshot()["counters"]
        scalar = scalar_registry.snapshot()["counters"]
        prefix = f"protocol.{protocol.name}"
        for key in (f"{prefix}.runs", f"{prefix}.rounds", f"{prefix}.slots"):
            assert batched[key] == scalar[key], key
        assert (
            batched[f"{prefix}.slots"]
            == cell.slots_per_run * cell.repetitions
        )

    def test_histogram_sees_every_round_statistic(self, population):
        registry = MetricsRegistry()
        cell = run_protocol_cell(
            make_protocol("fneb"),
            population,
            rounds=9,
            repetitions=4,
            base_seed=8,
            registry=registry,
        )
        histogram = registry.snapshot()["histograms"][
            "protocol.FNEB.round_statistic"
        ]
        assert histogram["count"] == 9 * 4
        assert histogram["total"] == pytest.approx(cell.statistics.sum())

    def test_cell_event_carries_saturation(self):
        saturated_pop = build_population(WorkloadSpec(size=60, seed=3))
        registry = MetricsRegistry()
        run_protocol_cell(
            make_protocol("use", frame_size=4),
            saturated_pop,
            rounds=3,
            repetitions=2,
            base_seed=5,
            registry=registry,
            on_error="nan",
        )
        (event,) = [
            e for e in registry.events if e["name"] == "cell"
        ]
        assert event["tier"] == "protocol-batched"
        assert event["saturated_runs"] == 2

    def test_null_registry_records_nothing(self, population):
        cell = run_protocol_cell(
            make_protocol("fneb"),
            population,
            rounds=4,
            repetitions=2,
            base_seed=8,
            registry=NULL_REGISTRY,
        )
        assert cell.repetitions == 2
        assert not NULL_REGISTRY  # stays falsy / no-op


class TestCellRecordSchema:
    def test_to_dict_uses_common_summary_schema(self, population):
        cell = run_protocol_cell(
            make_protocol("fneb"),
            population,
            rounds=12,
            repetitions=4,
            base_seed=7,
        )
        record = cell.to_dict()
        for key in (
            "protocol",
            "estimate",
            "true_n",
            "relative_error",
            "rounds",
            "total_slots",
            "seed_provenance",
        ):
            assert key in record
        assert record["seed_provenance"] == "base_seed=7"
        assert record["true_n"] == population.size
        assert record["repetitions"] == 4
        assert "estimates" not in record
        with_estimates = cell.to_dict(include_estimates=True)
        assert len(with_estimates["estimates"]) == 4
