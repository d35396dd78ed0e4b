"""Tests for the repro.estimate one-call facade."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.config import AccuracyRequirement
from repro.core.accuracy import rounds_required
from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry
from repro.tags.population import TagPopulation


class TestEstimate:
    def test_exported_from_package_root(self):
        assert repro.estimate is not None
        assert "estimate" in repro.__all__

    def test_integer_population_synthesized(self):
        result = repro.estimate(5_000, seed=1, rounds=256)
        assert result.protocol == "PET"
        assert result.rounds == 256
        assert 3_000 < result.n_hat < 7_000

    def test_seed_makes_runs_reproducible(self):
        first = repro.estimate(5_000, seed=1, rounds=64)
        second = repro.estimate(5_000, seed=1, rounds=64)
        assert first.n_hat == second.n_hat

    def test_existing_population_used_as_is(self):
        population = TagPopulation.random(
            1_000, np.random.default_rng(0)
        )
        result = repro.estimate(population, seed=3, rounds=128)
        assert 500 < result.n_hat < 2_000

    def test_iterable_of_tag_ids(self):
        result = repro.estimate(range(500), seed=3, rounds=128)
        assert 200 < result.n_hat < 1_200

    def test_protocol_and_config_forwarded(self):
        result = repro.estimate(
            5_000,
            protocol="fneb",
            seed=1,
            rounds=32,
            frame_size=2**14,
        )
        assert result.protocol == "FNEB"
        assert result.total_slots == 32 * 14

    def test_default_rounds_follow_paper_contract(self):
        result = repro.estimate(1_000, seed=1)
        assert result.rounds == rounds_required(
            AccuracyRequirement().epsilon, AccuracyRequirement().delta
        )

    def test_accuracy_plans_rounds(self):
        result = repro.estimate(
            1_000, seed=1, accuracy=AccuracyRequirement(0.10, 0.05)
        )
        assert result.rounds == rounds_required(0.10, 0.05)

    def test_explicit_rounds_beat_accuracy(self):
        result = repro.estimate(
            1_000,
            seed=1,
            rounds=48,
            accuracy=AccuracyRequirement(0.10, 0.05),
        )
        assert result.rounds == 48

    def test_protocol_config_rounds_used_when_not_pinned(self):
        from repro.config import PetConfig

        result = repro.estimate(
            1_000, seed=1, config=PetConfig(rounds=100)
        )
        assert result.rounds == 100

    def test_registry_records_the_run(self):
        registry = MetricsRegistry()
        result = repro.estimate(
            2_000, seed=5, rounds=64, registry=registry
        )
        counters = registry.snapshot()["counters"]
        assert counters["protocol.PET.runs"] == 1
        assert counters["protocol.PET.rounds"] == result.rounds
        assert counters["protocol.PET.slots"] == result.total_slots

    def test_negative_population_rejected(self):
        with pytest.raises(ConfigurationError):
            repro.estimate(-1, seed=1)

    def test_zero_rounds_rejected(self):
        with pytest.raises(ConfigurationError):
            repro.estimate(1_000, seed=1, rounds=0)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            repro.estimate(1_000, protocol="chirp", seed=1)

    def test_unknown_config_keyword_rejected(self):
        with pytest.raises(ConfigurationError, match="frame_size"):
            repro.estimate(1_000, seed=1, frame_size=64)

    def test_seed_and_rng_together_rejected(self):
        with pytest.raises(ConfigurationError, match="not both"):
            repro.estimate(
                1_000,
                seed=1,
                rng=np.random.default_rng(2),
                rounds=16,
            )

    def test_rng_alone_still_accepted(self):
        result = repro.estimate(
            1_000, rng=np.random.default_rng(2), rounds=32
        )
        assert result.seed_provenance == "rng"

    def test_result_to_dict_round_trips(self):
        result = repro.estimate(2_000, seed=5, rounds=64)
        record = result.to_dict()
        assert record["protocol"] == "PET"
        assert record["estimate"] == result.n_hat
        assert record["rounds"] == 64
        assert record["seed_provenance"] == "seed=5"
        assert record["true_n"] is None
        assert record["relative_error"] is None
        assert "observations" in record
        full = result.to_dict(include_statistics=True)
        assert len(full["per_round_statistics"]) == 64

    def test_result_summary_carries_relative_error(self):
        result = repro.estimate(2_000, seed=5, rounds=64)
        record = result.summary(true_n=2_000)
        assert record["true_n"] == 2_000
        assert record["relative_error"] == pytest.approx(
            (result.n_hat - 2_000) / 2_000
        )


class TestImportCost:
    def test_estimate_does_not_load_scipy_stats(self):
        # scipy.stats costs about half a second of import time; only
        # the fig-6 theory curves need it, so the facade must not.
        script = (
            "import sys, repro\n"
            "repro.estimate(2_000, seed=1, rounds=32)\n"
            "repro.estimate(2_000, 'lof', seed=1, rounds=32)\n"
            "print('scipy.stats' in sys.modules)\n"
        )
        src = os.path.join(os.path.dirname(repro.__file__), os.pardir)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.abspath(src), env.get("PYTHONPATH")])
        )
        output = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert output.strip() == "False"


class TestRequestModel:
    """The unified EstimateRequest/resolve_request path."""

    def test_exported_from_package_root(self):
        for name in (
            "EstimateRequest",
            "EstimateResponse",
            "resolve_request",
            "execute_request",
        ):
            assert name in repro.__all__

    def test_facade_matches_request_path(self):
        via_facade = repro.estimate(2_000, seed=9, rounds=64)
        request = repro.EstimateRequest(
            population=2_000, seed=9, rounds=64
        )
        via_request = repro.execute_request(
            repro.resolve_request(request)
        )
        assert via_facade.n_hat == via_request.n_hat
        assert via_facade.total_slots == via_request.total_slots

    def test_resolve_rejects_seed_plus_rng(self):
        request = repro.EstimateRequest(
            population=100, seed=1, rng=np.random.default_rng(2)
        )
        with pytest.raises(ConfigurationError, match="not both"):
            repro.resolve_request(request)

    def test_resolve_plans_rounds_from_accuracy(self):
        request = repro.EstimateRequest(
            population=100,
            seed=1,
            accuracy=AccuracyRequirement(0.10, 0.05),
        )
        resolved = repro.resolve_request(request)
        assert resolved.rounds == rounds_required(0.10, 0.05)

    def test_population_seed_shares_population(self):
        cache: dict = {}
        requests = [
            repro.EstimateRequest(
                population=500,
                seed=seed,
                population_seed=77,
                rounds=16,
            )
            for seed in (1, 2)
        ]
        resolved = [
            repro.resolve_request(r, population_cache=cache)
            for r in requests
        ]
        assert resolved[0].population is resolved[1].population
        assert len(cache) == 1

    def test_population_seed_equivalent_to_prebuilt_population(self):
        population = TagPopulation.random(
            500, np.random.default_rng(77)
        )
        direct = repro.estimate(population, seed=3, rounds=32)
        request = repro.EstimateRequest(
            population=500, seed=3, population_seed=77, rounds=32
        )
        via_request = repro.execute_request(
            repro.resolve_request(request)
        )
        assert direct.n_hat == via_request.n_hat

    def test_population_seed_requires_integer_population(self):
        request = repro.EstimateRequest(
            population=TagPopulation(range(10)),
            seed=1,
            population_seed=2,
        )
        with pytest.raises(ConfigurationError, match="integer"):
            repro.resolve_request(request)

    def test_response_statuses_validated(self):
        with pytest.raises(ConfigurationError):
            repro.EstimateResponse(status="maybe")

    def test_response_to_dict_embeds_result_schema(self):
        result = repro.estimate(1_000, seed=4, rounds=32)
        response = repro.EstimateResponse(
            status="ok", result=result, tenant="t0"
        )
        assert response.ok
        assert response.estimate == result.n_hat
        record = response.to_dict()
        assert record["status"] == "ok"
        assert record["result"]["estimate"] == result.n_hat

    def test_rejected_response_has_no_estimate(self):
        response = repro.EstimateResponse(
            status="rejected", retry_after=0.5
        )
        assert not response.ok
        assert response.estimate != response.estimate  # NaN
