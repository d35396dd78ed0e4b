"""Unit tests for the batched experiment engine's building blocks.

Bit-identity of whole cells against the reference loop and the
slot-level simulator lives in ``test_equivalence.py``; these tests pin
the batched helpers against their scalar counterparts and the engine's
validation behaviour.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import PetConfig
from repro.errors import ConfigurationError
from repro.sim.batched import (
    BatchedExperimentEngine,
    batched_gray_depths_fresh,
    batched_gray_depths_sorted,
)
from repro.sim.vectorized import gray_depth_of_codes, gray_depth_sorted
from repro.sim.workload import WorkloadSpec, build_population

HEIGHT = 16


class TestBatchedGrayDepthsSorted:
    def test_matches_scalar_on_random_paths(self):
        rng = np.random.default_rng(40)
        codes = np.sort(
            rng.integers(0, 2**HEIGHT, size=400, dtype=np.uint64)
        )
        path_bits = rng.integers(
            0, 2**HEIGHT, size=1_000, dtype=np.uint64
        )
        batched = batched_gray_depths_sorted(codes, path_bits, HEIGHT)
        for bits, depth in zip(path_bits.tolist(), batched.tolist()):
            assert depth == gray_depth_sorted(codes, bits, HEIGHT)

    def test_exact_code_hit_is_full_depth(self):
        codes = np.sort(
            np.array([3, 77, 1024, 40_000], dtype=np.uint64)
        )
        batched = batched_gray_depths_sorted(codes, codes, HEIGHT)
        assert batched.tolist() == [HEIGHT] * codes.size

    def test_empty_population_depth_zero(self):
        path_bits = np.arange(10, dtype=np.uint64)
        batched = batched_gray_depths_sorted(
            np.array([], dtype=np.uint64), path_bits, HEIGHT
        )
        assert batched.tolist() == [0] * 10

    def test_boundary_paths(self):
        # Paths below the smallest and above the largest code exercise
        # the index clamps that stand in for the missing neighbour.
        codes = np.sort(
            np.array([100, 200, 60_000], dtype=np.uint64)
        )
        lo = np.array([0], dtype=np.uint64)
        hi = np.array([2**HEIGHT - 1], dtype=np.uint64)
        assert batched_gray_depths_sorted(codes, lo, HEIGHT)[
            0
        ] == gray_depth_sorted(codes, 0, HEIGHT)
        assert batched_gray_depths_sorted(codes, hi, HEIGHT)[
            0
        ] == gray_depth_sorted(codes, 2**HEIGHT - 1, HEIGHT)


class TestBatchedGrayDepthsFresh:
    def test_matches_scalar_per_round(self):
        population = build_population(WorkloadSpec(size=120, seed=21))
        rng = np.random.default_rng(41)
        rounds = 64
        seeds = rng.integers(0, 2**63, size=rounds, dtype=np.uint64)
        path_bits = rng.integers(
            0, 2**HEIGHT, size=rounds, dtype=np.uint64
        )
        batched = batched_gray_depths_fresh(
            population.tag_ids,
            seeds,
            path_bits,
            HEIGHT,
            population.family,
        )
        for seed, bits, depth in zip(
            seeds.tolist(), path_bits.tolist(), batched.tolist()
        ):
            codes = population.codes(seed, HEIGHT)
            assert depth == gray_depth_of_codes(codes, bits, HEIGHT)

    def test_chunking_does_not_change_depths(self):
        population = build_population(WorkloadSpec(size=90, seed=22))
        rng = np.random.default_rng(42)
        rounds = 50
        seeds = rng.integers(0, 2**63, size=rounds, dtype=np.uint64)
        path_bits = rng.integers(
            0, 2**HEIGHT, size=rounds, dtype=np.uint64
        )
        one_shot = batched_gray_depths_fresh(
            population.tag_ids,
            seeds,
            path_bits,
            HEIGHT,
            population.family,
        )
        # chunk_elements of 1 forces one round per chunk.
        tiny_chunks = batched_gray_depths_fresh(
            population.tag_ids,
            seeds,
            path_bits,
            HEIGHT,
            population.family,
            chunk_elements=1,
        )
        assert one_shot.tolist() == tiny_chunks.tolist()

    def test_empty_population_depth_zero(self):
        population = build_population(WorkloadSpec(size=0, seed=23))
        seeds = np.arange(8, dtype=np.uint64)
        path_bits = np.arange(8, dtype=np.uint64)
        batched = batched_gray_depths_fresh(
            population.tag_ids,
            seeds,
            path_bits,
            HEIGHT,
            population.family,
        )
        assert batched.tolist() == [0] * 8


class TestEngineValidation:
    def test_rejects_zero_repetitions(self):
        with pytest.raises(ConfigurationError):
            BatchedExperimentEngine(repetitions=0)

    def test_rejects_zero_rounds(self):
        engine = BatchedExperimentEngine(base_seed=1, repetitions=2)
        with pytest.raises(ConfigurationError):
            engine.run_cell(
                WorkloadSpec(size=10, seed=0), PetConfig(), rounds=0
            )

    def test_rejects_excessive_height(self):
        engine = BatchedExperimentEngine(base_seed=1, repetitions=2)
        with pytest.raises(ConfigurationError):
            engine.run_cell(
                WorkloadSpec(size=10, seed=0),
                PetConfig(tree_height=63),
                rounds=4,
            )

    def test_result_shape_and_metadata(self):
        engine = BatchedExperimentEngine(base_seed=1, repetitions=7)
        spec = WorkloadSpec(size=200, seed=5)
        repeated = engine.run_cell(
            spec, PetConfig(tree_height=HEIGHT, passive_tags=True), 12
        )
        assert repeated.estimates.shape == (7,)
        assert repeated.true_n == 200
        assert repeated.rounds == 12
        assert repeated.slots_per_run > 0
