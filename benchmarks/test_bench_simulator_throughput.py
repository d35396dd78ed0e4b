"""Microbenchmarks: round throughput of the simulator tiers.

Not a paper artifact — these justify the tiered design documented in
DESIGN.md by measuring the cost of one estimation round per tier, and
the batched experiment engine against the per-repetition reference
loop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import PetConfig
from repro.core.path import EstimatingPath
from repro.sim.batched import BatchedExperimentEngine
from repro.sim.experiment import ExperimentRunner
from repro.sim.sampled import SampledSimulator
from repro.sim.slotsim import SlotLevelSimulator
from repro.sim.vectorized import VectorizedSimulator
from repro.sim.workload import WorkloadSpec
from repro.tags.population import TagPopulation

N = 5_000


@pytest.fixture(scope="module")
def population():
    return TagPopulation.random(N, np.random.default_rng(0))


def test_bench_slot_level_round(benchmark, population):
    # Slot-level is O(n) Python work per slot: bench a single round on
    # a small slice of the population.
    small = TagPopulation(
        [int(t) for t in population.tag_ids[:500]]
    )
    simulator = SlotLevelSimulator(
        small,
        config=PetConfig(rounds=1, passive_tags=True),
        rng=np.random.default_rng(1),
    )
    height = simulator.reader.config.tree_height
    rng = np.random.default_rng(2)

    def one_round():
        path = EstimatingPath.random(height, rng)
        return simulator.run_round(path, 0)

    depth, slots = benchmark(one_round)
    assert 0 <= depth <= 32
    assert slots >= 1


def test_bench_vectorized_round_active(benchmark, population):
    simulator = VectorizedSimulator(
        population, config=PetConfig(), rng=np.random.default_rng(3)
    )
    rng = np.random.default_rng(4)

    def one_round():
        return simulator.run_round(EstimatingPath.random(32, rng), 0)

    depth, slots = benchmark(one_round)
    assert slots == 5


def test_bench_vectorized_round_passive(benchmark, population):
    simulator = VectorizedSimulator(
        population,
        config=PetConfig(passive_tags=True),
        rng=np.random.default_rng(5),
    )
    rng = np.random.default_rng(6)

    def one_round():
        return simulator.run_round(EstimatingPath.random(32, rng), 0)

    depth, slots = benchmark(one_round)
    assert slots >= 5


def test_bench_sampled_batch(benchmark):
    simulator = SampledSimulator(
        1_000_000, rng=np.random.default_rng(7)
    )

    def batch():
        return simulator.estimate_batch(rounds=4697, repetitions=10)

    estimates = benchmark(batch)
    assert estimates.shape == (10,)
    assert 0.9 < estimates.mean() / 1_000_000 < 1.1


# Batched engine vs the per-repetition reference loop.  Reduced scale
# (50 reps x 512 rounds) so the loop baseline stays benchmarkable.
_CELL_SPEC = WorkloadSpec(size=10_000, seed=0)
_CELL_CONFIG = PetConfig(passive_tags=True)
_CELL_REPS = 50
_CELL_ROUNDS = 512


def test_bench_batched_engine_cell(benchmark):
    engine = BatchedExperimentEngine(
        base_seed=2011, repetitions=_CELL_REPS
    )

    def cell():
        return engine.run_cell(_CELL_SPEC, _CELL_CONFIG, _CELL_ROUNDS)

    repeated = benchmark(cell)
    assert repeated.estimates.shape == (_CELL_REPS,)
    assert 0.8 < repeated.estimates.mean() / _CELL_SPEC.size < 1.2


def test_bench_repetition_loop_cell(benchmark):
    runner = ExperimentRunner(base_seed=2011, repetitions=_CELL_REPS)

    def cell():
        return runner.run_vectorized_loop(
            _CELL_SPEC, _CELL_CONFIG, _CELL_ROUNDS
        )

    repeated = benchmark(cell)
    assert repeated.estimates.shape == (_CELL_REPS,)
    assert 0.8 < repeated.estimates.mean() / _CELL_SPEC.size < 1.2
