"""Grid sweeps and shared seed matrices stay bit-identical to cells."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import PetConfig
from repro.errors import ConfigurationError
from repro.obs.registry import MetricsRegistry
from repro.sim.experiment import ExperimentRunner
from repro.sim.protocol_batched import seed_matrix
from repro.sim.workload import WorkloadSpec

GRID = [2, 5, 8]
SPEC = WorkloadSpec(size=120, seed=7)


def _runner(repetitions: int = 8) -> ExperimentRunner:
    return ExperimentRunner(
        base_seed=2011,
        repetitions=repetitions,
        registry=MetricsRegistry(),
    )


@pytest.mark.parametrize("passive", [True, False])
def test_grid_matches_per_cell_run_cell(passive):
    config = PetConfig(tree_height=16, passive_tags=passive)
    runner = _runner()
    per_cell = [
        runner.run_vectorized(SPEC, config, rounds) for rounds in GRID
    ]
    grid = runner.sweep_rounds(SPEC, config, GRID)
    for reference, cell in zip(per_cell, grid):
        assert cell.rounds == reference.rounds
        np.testing.assert_array_equal(
            cell.estimates, reference.estimates
        )
        assert cell.slots_per_run == reference.slots_per_run


def test_parallel_grid_matches_serial():
    config = PetConfig(tree_height=16, passive_tags=True)
    runner = _runner()
    serial = runner.sweep_rounds(SPEC, config, GRID)
    parallel = runner.sweep_rounds(SPEC, config, GRID, workers=2)
    for a, b in zip(serial, parallel):
        np.testing.assert_array_equal(a.estimates, b.estimates)
        assert a.slots_per_run == b.slots_per_run


def test_grid_handles_unsorted_and_duplicate_rounds():
    config = PetConfig(tree_height=16, passive_tags=True)
    runner = _runner(repetitions=4)
    grid = runner.sweep_rounds(SPEC, config, [8, 2, 8])
    assert [cell.rounds for cell in grid] == [8, 2, 8]
    np.testing.assert_array_equal(
        grid[0].estimates, grid[2].estimates
    )


def test_grid_validates_inputs():
    config = PetConfig(tree_height=16, passive_tags=True)
    runner = _runner(repetitions=2)
    with pytest.raises(ConfigurationError, match="non-empty"):
        runner.sweep_rounds(SPEC, config, [])
    with pytest.raises(ConfigurationError, match="rounds"):
        runner.sweep_rounds(SPEC, config, [4, 0])
    with pytest.raises(ConfigurationError, match="workers"):
        runner.sweep_rounds(SPEC, config, [4], workers=-1)


def test_seed_matrix_columns_are_prefix_stable():
    # A narrow cell's seed matrix is exactly the column prefix of the
    # widest one (full-range uint64 draws are stream-prefix-stable), so
    # cells that differ only in rounds can share one draw and one
    # statistics pass, reducing each prefix.
    wide = seed_matrix(2011, 6, 40)
    for draws in (1, 7, 39, 40):
        np.testing.assert_array_equal(
            seed_matrix(2011, 6, draws), wide[:, :draws]
        )
