"""Shared-memory array lifecycle: ownership, cleanup, crash safety."""

from __future__ import annotations

import glob

import numpy as np
import pytest

from repro.config import PetConfig
from repro.errors import ConfigurationError
from repro.obs.registry import MetricsRegistry
from repro.sim.experiment import ExperimentRunner
from repro.sim.shm import SharedArray, SharedArraySpec
from repro.sim.workload import WorkloadSpec


def _segment_names() -> "set[str]":
    """Names of the live POSIX shared-memory segments on this host."""
    return {
        path.rsplit("/", 1)[-1] for path in glob.glob("/dev/shm/psm_*")
    }


@pytest.fixture(autouse=True)
def _no_leaked_segments():
    """Every test must leave the system segment table as it found it."""
    before = _segment_names()
    yield
    assert _segment_names() - before == set()


# ---------------------------------------------------------------------
# SharedArray basics


def test_create_attach_roundtrip():
    source = np.arange(24, dtype=np.uint64).reshape(4, 6)
    with SharedArray.create(source) as shared:
        assert shared.owner
        np.testing.assert_array_equal(shared.array, source)
        spec = shared.spec
        assert isinstance(spec, SharedArraySpec)
        assert spec.shape == (4, 6)
        assert spec.nbytes == source.nbytes
        attached = SharedArray.attach(spec)
        try:
            assert not attached.owner
            np.testing.assert_array_equal(attached.array, source)
            # Writes through one mapping are visible through the other.
            attached.array[0, 0] = np.uint64(99)
            assert int(shared.array[0, 0]) == 99
        finally:
            attached.close()


def test_context_manager_unlinks_on_exception():
    spec = None
    with pytest.raises(RuntimeError, match="boom"):
        with SharedArray.zeros((8,), np.int64) as shared:
            spec = shared.spec
            raise RuntimeError("boom")
    with pytest.raises(FileNotFoundError):
        SharedArray.attach(spec)


def test_close_is_idempotent_and_invalidates_view():
    shared = SharedArray.zeros((4,), np.float64)
    shared.close()
    shared.close()
    with pytest.raises(ConfigurationError, match="closed"):
        shared.array
    shared.unlink()


def test_attached_handle_refuses_to_unlink():
    with SharedArray.zeros((4,), np.int64) as shared:
        attached = SharedArray.attach(shared.spec)
        try:
            with pytest.raises(ConfigurationError, match="creating"):
                attached.unlink()
        finally:
            attached.close()


def test_empty_arrays_are_rejected():
    with pytest.raises(ConfigurationError, match="non-empty"):
        SharedArray.zeros((0, 4), np.int64)


def test_creation_counts_segments_and_bytes():
    registry = MetricsRegistry()
    with SharedArray.zeros((16,), np.uint64, registry=registry):
        pass
    snapshot = registry.snapshot()
    counters = {
        name: value for name, value in snapshot.counters.items()
    }
    assert counters["sharedmem.segments"] == 1
    assert counters["sharedmem.bytes"] == 16 * 8


# ---------------------------------------------------------------------
# Grid lifecycle: serial never allocates, crashes never leak


def test_serial_rounds_grid_allocates_no_segment():
    registry = MetricsRegistry()
    runner = ExperimentRunner(
        base_seed=5, repetitions=4, registry=registry
    )
    for workers in (None, 0, 1):
        runner.sweep_rounds(
            WorkloadSpec(size=32, seed=3),
            PetConfig(tree_height=16, passive_tags=True),
            [2, 4],
            workers=workers,
        )
    counters = registry.snapshot().counters
    assert counters.get("sharedmem.segments", 0) == 0


def test_parallel_sweep_unlinks_when_a_worker_crashes():
    # A negative population seed is only rejected when a worker builds
    # the population, after the parent has created both the word and
    # the depth segment; the autouse fixture asserts both are gone.
    registry = MetricsRegistry()
    runner = ExperimentRunner(
        base_seed=5, repetitions=4, registry=registry
    )
    with pytest.raises(ValueError):
        runner.sweep_rounds(
            WorkloadSpec(size=32, seed=-100),
            PetConfig(tree_height=16, passive_tags=True),
            [2, 4],
            workers=2,
        )
    counters = registry.snapshot().counters
    assert counters["sharedmem.segments"] == 2
    assert counters["sharedmem.unlinks"] == 2


def test_parallel_rounds_grid_counts_and_cleans_segments():
    registry = MetricsRegistry()
    runner = ExperimentRunner(
        base_seed=5, repetitions=6, registry=registry
    )
    runner.sweep_rounds(
        WorkloadSpec(size=32, seed=3),
        PetConfig(tree_height=16, passive_tags=True),
        [2, 4, 8],
        workers=2,
    )
    counters = registry.snapshot().counters
    assert counters["sharedmem.segments"] == 2  # words + depths
    assert counters["sharedmem.unlinks"] == 2
