"""Tests for round-level tracing and deterministic replay."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.analysis.mellin import gray_depth_cdf
from repro.config import PetConfig
from repro.core.search import (
    slot_outcome_tables,
    slots_lookup_table,
    strategy_for,
)
from repro.errors import ConfigurationError
from repro.obs import (
    EstimatorHealth,
    MetricsRegistry,
    ReplayedRound,
    RoundTraceRecord,
    RoundTraceRecorder,
    SamplingPolicy,
    depth_tail_tables,
    read_trace,
    replay_round,
    verify_replay,
    write_trace,
)
from repro.sim.batched import BatchedExperimentEngine
from repro.sim.sampled import SampledSimulator
from repro.sim.workload import WorkloadSpec


def _tables(height: int, binary_search: bool = True):
    strategy = strategy_for(binary_search)
    slots = slots_lookup_table(strategy, height)
    busy, idle = slot_outcome_tables(strategy, height)
    return slots, busy, idle


def _sampled_records(
    n: int = 1000,
    rounds: int = 200,
    height: int = 32,
    seed: int = 7,
    policy: SamplingPolicy | None = None,
) -> RoundTraceRecorder:
    recorder = RoundTraceRecorder(
        policy=policy, registry=MetricsRegistry()
    )
    rng = np.random.default_rng(seed)
    uniforms = rng.random(rounds)
    depths = np.searchsorted(
        gray_depth_cdf(n, height), uniforms, side="left"
    ).astype(np.int64)
    slots, busy, idle = _tables(height)
    recorder.record_sampled_run(
        run_index=0,
        depths=depths,
        uniforms=uniforms,
        true_n=n,
        tree_height=height,
        binary_search=True,
        slots_table=slots,
        busy_table=busy,
        idle_table=idle,
    )
    return recorder


class TestSamplingPolicy:
    def test_parse_all(self):
        assert SamplingPolicy.parse("all").mode == "all"

    def test_parse_every_k(self):
        policy = SamplingPolicy.parse("every_k:32")
        assert policy.mode == "every_k"
        assert policy.every_k == 32

    def test_parse_outliers_with_threshold(self):
        policy = SamplingPolicy.parse("outliers_only:1e-4")
        assert policy.mode == "outliers_only"
        assert policy.tail_threshold == pytest.approx(1e-4)

    def test_parse_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            SamplingPolicy.parse("sometimes")

    def test_every_k_requires_stride(self):
        with pytest.raises(ConfigurationError):
            SamplingPolicy.parse("every_k")

    def test_threshold_range_enforced(self):
        with pytest.raises(ConfigurationError):
            SamplingPolicy(mode="outliers_only", tail_threshold=0.7)


class TestDepthTailTables:
    def test_shapes_and_bounds(self):
        is_outlier, tail = depth_tail_tables(1000, 32)
        assert is_outlier.shape == tail.shape == (33,)
        assert np.all(tail > 0) and np.all(tail <= 1)

    def test_typical_depth_is_not_an_outlier(self):
        # E[depth] ~ log2(n) + const: for n=1000 depth 10 is typical.
        is_outlier, _ = depth_tail_tables(1000, 32)
        assert not is_outlier[10]
        # Depths far in the tails are flagged.
        assert is_outlier[0]
        assert is_outlier[31]

    def test_tables_are_read_only(self):
        is_outlier, tail = depth_tail_tables(50, 16)
        with pytest.raises(ValueError):
            is_outlier[0] = False
        with pytest.raises(ValueError):
            tail[0] = 0.5


class TestRecorderPolicies:
    def test_all_keeps_every_round(self):
        recorder = _sampled_records(rounds=100)
        assert len(recorder) == 100
        assert recorder.rounds_seen == 100
        assert recorder.rounds_recorded == 100

    def test_every_k_keeps_stride(self):
        recorder = _sampled_records(
            rounds=100,
            policy=SamplingPolicy(mode="every_k", every_k=10),
        )
        assert len(recorder) == 10
        assert [r.round_index for r in recorder.records] == list(
            range(0, 100, 10)
        )

    def test_outliers_only_keeps_flagged_rounds(self):
        recorder = _sampled_records(
            rounds=5000,
            policy=SamplingPolicy(mode="outliers_only"),
        )
        assert 0 < len(recorder) < 5000
        assert all(r.outlier for r in recorder.records)
        assert recorder.rounds_seen == 5000
        assert recorder.rounds_recorded == len(recorder)

    def test_ring_buffer_evicts_oldest(self):
        recorder = RoundTraceRecorder(
            capacity=10, registry=MetricsRegistry()
        )
        n, height = 500, 32
        rng = np.random.default_rng(0)
        uniforms = rng.random(25)
        depths = np.searchsorted(
            gray_depth_cdf(n, height), uniforms, side="left"
        ).astype(np.int64)
        slots, busy, idle = _tables(height)
        recorder.record_sampled_run(
            0, depths, uniforms, n, height, True, slots, busy, idle
        )
        assert len(recorder) == 10
        assert recorder.records_evicted == 15
        assert [r.round_index for r in recorder.records] == list(
            range(15, 25)
        )

    def test_accounting_counters_reach_registry(self):
        registry = MetricsRegistry()
        rng = np.random.default_rng(1)
        uniforms = rng.random(50)
        n, height = 100, 16
        depths = np.searchsorted(
            gray_depth_cdf(n, height), uniforms, side="left"
        ).astype(np.int64)
        recorder = RoundTraceRecorder(registry=registry)
        slots, busy, idle = _tables(height)
        recorder.record_sampled_run(
            0, depths, uniforms, n, height, True, slots, busy, idle
        )
        counters = registry.snapshot()["counters"]
        assert counters["trace.rounds.seen"] == 50
        assert counters["trace.rounds.recorded"] == 50


class TestSampledReplay:
    def test_replay_matches_every_record(self):
        recorder = _sampled_records(rounds=300)
        assert len(recorder) == 300
        for record in recorder.records:
            assert verify_replay(record)

    def test_replay_matches_outlier_records(self):
        recorder = _sampled_records(
            rounds=5000,
            policy=SamplingPolicy(mode="outliers_only"),
        )
        assert recorder.outlier_records()
        for record in recorder.outlier_records():
            assert verify_replay(record)

    def test_replay_detects_corruption(self):
        recorder = _sampled_records(rounds=1)
        (record,) = recorder.records
        corrupt = RoundTraceRecord.from_dict(
            {**record.to_dict(), "gray_depth": record.gray_depth + 1}
        )
        assert not verify_replay(corrupt)

    def test_replay_rejects_missing_seed_material(self):
        with pytest.raises(ConfigurationError):
            replay_round(
                RoundTraceRecord(
                    tier="sampled",
                    protocol="PET",
                    run_index=0,
                    round_index=0,
                    tree_height=32,
                    binary_search=True,
                    passive_tags=False,
                    gray_depth=5,
                    slots=6,
                    busy_slots=5,
                    idle_slots=1,
                )
            )


class TestLiveRecording:
    def test_sampled_estimate_batch_records_and_replays(self):
        registry = MetricsRegistry()
        recorder = RoundTraceRecorder(registry=registry)
        registry.attach_diagnostics(round_trace=recorder)
        simulator = SampledSimulator(
            2000,
            rng=np.random.default_rng(3),
            registry=registry,
        )
        simulator.estimate_batch(rounds=50, repetitions=4)
        assert len(recorder) == 200
        for record in recorder.records:
            assert record.tier == "sampled"
            assert verify_replay(record)

    def test_sampled_recording_never_perturbs_estimates(self):
        plain = SampledSimulator(
            2000, rng=np.random.default_rng(3)
        ).estimate_batch(rounds=50, repetitions=4)
        registry = MetricsRegistry()
        registry.attach_diagnostics(
            round_trace=RoundTraceRecorder(registry=registry)
        )
        traced = SampledSimulator(
            2000, rng=np.random.default_rng(3), registry=registry
        ).estimate_batch(rounds=50, repetitions=4)
        np.testing.assert_array_equal(plain, traced)

    def test_scalar_run_round_records_trace(self):
        registry = MetricsRegistry()
        recorder = RoundTraceRecorder(registry=registry)
        registry.attach_diagnostics(round_trace=recorder)
        simulator = SampledSimulator(
            500, rng=np.random.default_rng(11), registry=registry
        )
        simulator.estimate(rounds=20)
        assert len(recorder) == 20
        for record in recorder.records:
            assert verify_replay(record)

    @pytest.mark.parametrize("passive", [False, True])
    def test_batched_engine_records_and_replays(self, passive):
        registry = MetricsRegistry()
        recorder = RoundTraceRecorder(registry=registry)
        registry.attach_diagnostics(round_trace=recorder)
        engine = BatchedExperimentEngine(
            base_seed=2011, repetitions=3, registry=registry
        )
        spec = WorkloadSpec(size=200, seed=5)
        config = PetConfig(passive_tags=passive)
        engine.run_cell(spec, config, rounds=40)
        assert len(recorder) == 120
        for record in recorder.records:
            assert record.tier == "batched"
            assert record.passive_tags == passive
            assert verify_replay(record)

    def test_batched_recording_never_perturbs_estimates(self):
        spec = WorkloadSpec(size=200, seed=5)
        config = PetConfig()
        plain = BatchedExperimentEngine(
            base_seed=2011, repetitions=3
        ).run_cell(spec, config, rounds=40)
        registry = MetricsRegistry()
        registry.attach_diagnostics(
            round_trace=RoundTraceRecorder(registry=registry)
        )
        traced = BatchedExperimentEngine(
            base_seed=2011, repetitions=3, registry=registry
        ).run_cell(spec, config, rounds=40)
        np.testing.assert_array_equal(
            plain.estimates, traced.estimates
        )

    def test_full_diagnostics_stack_never_perturbs_estimates(self):
        spec = WorkloadSpec(size=2000, seed=5)
        config = PetConfig(passive_tags=True)
        plain = BatchedExperimentEngine(
            base_seed=2011, repetitions=8
        ).run_cell(spec, config, rounds=128)
        registry = MetricsRegistry()
        recorder = RoundTraceRecorder(
            policy=SamplingPolicy(mode="outliers_only"),
            registry=registry,
        )
        health = EstimatorHealth(registry=registry)
        registry.attach_diagnostics(round_trace=recorder, health=health)
        diagnosed = BatchedExperimentEngine(
            base_seed=2011, repetitions=8, registry=registry
        ).run_cell(spec, config, rounds=128)
        np.testing.assert_array_equal(
            plain.estimates, diagnosed.estimates
        )
        assert health.rounds_observed == 128 * 8
        outliers = recorder.outlier_records()
        assert outliers
        assert all(verify_replay(record) for record in outliers)


class TestTracePersistence:
    def test_jsonl_round_trip(self):
        recorder = _sampled_records(rounds=25)
        sink = io.StringIO()
        written = write_trace(sink, recorder.records)
        assert written == 25
        loaded = list(read_trace(io.StringIO(sink.getvalue())))
        assert loaded == recorder.records
        for record in loaded:
            assert verify_replay(record)

    def test_file_round_trip(self, tmp_path):
        recorder = _sampled_records(rounds=10)
        path = tmp_path / "trace.jsonl"
        write_trace(str(path), recorder.records)
        assert list(read_trace(str(path))) == recorder.records


class TestReplayedRound:
    def test_matches_requires_depth_and_slots(self):
        replay = ReplayedRound(gray_depth=5, slots=6)
        base = _sampled_records(rounds=1).records[0]
        record = RoundTraceRecord.from_dict(
            {**base.to_dict(), "gray_depth": 5, "slots": 6}
        )
        assert replay.matches(record)
        assert not replay.matches(
            RoundTraceRecord.from_dict(
                {**record.to_dict(), "slots": 7}
            )
        )
