"""Tests for framed-Aloha identification."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

import repro
from repro.api import EstimateRequest
from repro.errors import ConfigurationError, EstimationError
from repro.config import AccuracyRequirement
from repro.obs import MetricsRegistry
from repro.protocols.aloha import (
    SCHOUTE_FACTOR,
    AlohaEstimatorProtocol,
    FramedAlohaIdentification,
)
from repro.protocols.registry import make_protocol
from repro.serve import EstimationService
from repro.sim.protocol_batched import run_protocol_cell
from repro.sim.workload import WorkloadSpec, build_population
from repro.tags.population import TagPopulation


class TestIdentification:
    def test_identifies_everyone(self):
        population = TagPopulation.random(
            500, np.random.default_rng(0)
        )
        result = FramedAlohaIdentification().identify(
            population, np.random.default_rng(1)
        )
        assert result.identified == frozenset(
            int(i) for i in population.tag_ids
        )
        assert result.count == 500

    def test_empty_population(self):
        result = FramedAlohaIdentification().identify(
            TagPopulation([]), np.random.default_rng(2)
        )
        assert result.count == 0
        assert result.total_slots == 0

    def test_cost_roughly_linear(self):
        rng = np.random.default_rng(3)
        protocol = FramedAlohaIdentification()
        costs = {}
        for n in (500, 2_000):
            population = TagPopulation.random(n, rng)
            costs[n] = protocol.identify(population, rng).total_slots
        ratio = costs[2_000] / costs[500]
        assert 2.5 < ratio < 6.0  # ~4x for 4x the tags

    def test_cost_near_theoretical_throughput(self):
        # Optimal framed Aloha resolves ~1/e tags per slot: expect
        # roughly e*n slots, within a loose band for Q adaptation.
        rng = np.random.default_rng(4)
        n = 3_000
        population = TagPopulation.random(n, rng)
        slots = FramedAlohaIdentification().identify(
            population, rng
        ).total_slots
        assert 2.0 * n < slots < 6.0 * n

    def test_count_helper(self):
        rng = np.random.default_rng(5)
        population = TagPopulation.random(100, rng)
        count, slots = FramedAlohaIdentification().count(
            population, rng
        )
        assert count == 100
        assert slots > 100


class TestValidation:
    def test_rejects_bad_q_range(self):
        with pytest.raises(ConfigurationError):
            FramedAlohaIdentification(initial_q=5, max_q=4)
        with pytest.raises(ConfigurationError):
            FramedAlohaIdentification(min_q=-1)

    def test_rejects_inverted_clamp(self):
        with pytest.raises(ConfigurationError):
            FramedAlohaIdentification(initial_q=2, min_q=3, max_q=8)


class TestEstimator:
    def test_accurate_at_design_load(self):
        # Schoute at t = n/f = 1 is essentially unbiased.
        protocol = AlohaEstimatorProtocol(frame_size=1024)
        population = TagPopulation.random(
            1_000, np.random.default_rng(21)
        )
        result = protocol.estimate(
            population, rounds=30, rng=np.random.default_rng(22)
        )
        assert 0.9 < result.accuracy(1_000) < 1.1

    def test_plan_rounds_positive_and_monotone(self):
        protocol = AlohaEstimatorProtocol()
        tight = protocol.plan_rounds(AccuracyRequirement(0.05, 0.01))
        loose = protocol.plan_rounds(AccuracyRequirement(0.10, 0.01))
        assert tight >= loose >= 1

    def test_empty_population_statistic_zero(self):
        protocol = AlohaEstimatorProtocol(frame_size=64)
        assert protocol.round_statistic(5, TagPopulation([])) == 0.0

    def test_registry_entry(self):
        protocol = make_protocol("aloha", frame_size=256)
        assert isinstance(protocol, AlohaEstimatorProtocol)
        assert protocol.frame_size == 256

    def test_rejects_bad_frame_size(self):
        with pytest.raises(ConfigurationError):
            AlohaEstimatorProtocol(frame_size=0)

    def test_batched_engine_matches_scalar_statistic(self):
        protocol = AlohaEstimatorProtocol(frame_size=128)
        population = TagPopulation.random(
            128, np.random.default_rng(23)
        )
        seeds = np.arange(50, dtype=np.uint64)
        batched = protocol.batched_engine().round_statistics(
            seeds, population
        )
        scalar = [
            protocol.round_statistic(int(seed), population)
            for seed in seeds
        ]
        assert batched.tolist() == scalar


class TestSaturation:
    """At n = 10^5 a 1024-slot frame is all-collision every round."""

    SATURATED_N = 100_000

    @pytest.fixture(scope="class")
    def saturated_population(self):
        return build_population(
            WorkloadSpec(size=self.SATURATED_N, seed=31)
        )

    def test_scalar_estimate_raises(self, saturated_population):
        with pytest.raises(EstimationError, match="all-collision"):
            AlohaEstimatorProtocol().estimate(
                saturated_population, 3, np.random.default_rng(32)
            )

    def test_sampled_estimate_raises(self):
        with pytest.raises(EstimationError, match="all-collision"):
            AlohaEstimatorProtocol().estimate_sampled(
                self.SATURATED_N, 3, np.random.default_rng(33)
            )

    def test_facade_with_accuracy_raises(self):
        with pytest.raises(EstimationError):
            repro.estimate(
                self.SATURATED_N,
                "aloha",
                seed=34,
                accuracy=AccuracyRequirement(0.1, 0.05),
            )

    def test_cell_flags_every_repetition(self, saturated_population):
        protocol = AlohaEstimatorProtocol()
        cell = run_protocol_cell(
            protocol,
            saturated_population,
            rounds=2,
            repetitions=3,
            base_seed=35,
            on_error="nan",
        )
        assert np.isnan(cell.estimates).all()
        assert cell.saturated_runs == cell.repetitions == 3
        with pytest.raises(EstimationError):
            run_protocol_cell(
                protocol,
                saturated_population,
                rounds=2,
                repetitions=3,
                base_seed=35,
            )

    def test_served_request_is_an_error_and_never_cached(self):
        request = EstimateRequest(
            population=self.SATURATED_N,
            protocol="aloha",
            seed=36,
            rounds=2,
            population_seed=31,
        )

        async def main():
            registry = MetricsRegistry()
            service = EstimationService(registry=registry)
            async with service:
                first = await service.submit(request)
                second = await service.submit(request)
            return registry, service, first, second

        registry, service, first, second = asyncio.run(main())
        assert first.status == second.status == "error"
        assert "all-collision" in first.detail
        assert len(service.cache) == 0
        counters = registry.snapshot().counters
        assert "serve.cache.hits" not in counters
        assert counters["serve.requests.submitted"] == 2

    def test_one_readable_frame_keeps_the_estimate(self):
        # Only a run with *every* frame all-collision saturates; the
        # best non-saturated frame (one singleton, f - 1 collisions)
        # reads 1.39 below the ceiling and counts as readable.
        protocol = AlohaEstimatorProtocol(frame_size=64)
        ceiling = SCHOUTE_FACTOR * 64
        best_readable = 1 + SCHOUTE_FACTOR * 63
        statistics = np.array([ceiling, best_readable, ceiling])
        assert protocol.estimate_from_statistics(
            statistics
        ) == pytest.approx(statistics.mean())
        with pytest.raises(EstimationError):
            protocol.estimate_from_statistics(np.full(4, ceiling))
