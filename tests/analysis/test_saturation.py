"""Tests for saturation analysis and the corrected estimator."""

from __future__ import annotations

import pytest

from repro.analysis.saturation import (
    corrected_estimate,
    effective_range,
    estimator_bias,
    expected_depth_exact,
    saturation_level,
)
from repro.errors import AnalysisError


class TestSaturationLevel:
    def test_empty_population_unsaturated(self):
        assert saturation_level(0, 32) == 0.0

    def test_paper_sizing_claim(self):
        # "H = 32 can accommodate n = 40,000,000 with p >= 0.99":
        # saturation (black fraction) stays below 1%.
        assert saturation_level(40_000_000, 32) < 0.01

    def test_saturation_grows_with_n(self):
        assert saturation_level(10**6, 16) > saturation_level(10**4, 16)

    def test_rejects_bad_inputs(self):
        with pytest.raises(AnalysisError):
            saturation_level(-1, 32)
        with pytest.raises(AnalysisError):
            saturation_level(10, 0)


class TestEstimatorBias:
    def test_unbiased_when_unsaturated(self):
        assert abs(estimator_bias(50_000, 32)) < 0.01

    def test_negative_bias_when_saturated(self):
        assert estimator_bias(50_000, 16) < -0.2

    def test_bias_worsens_with_saturation(self):
        assert estimator_bias(50_000, 16) < estimator_bias(50_000, 20)

    def test_small_n_bias_is_about_one_over_2n(self):
        for n in (10, 100, 1000):
            assert estimator_bias(n, 32) == pytest.approx(
                1.0 / (2 * n), rel=0.02
            )


class TestCorrectedEstimate:
    def test_inverts_exact_depth(self):
        # Feed the corrected estimator the exact expected depth: it
        # should recover n even deep into saturation.
        for n, height in ((50_000, 18), (50_000, 17), (200_000, 20)):
            mean_depth = expected_depth_exact(n, height)
            estimate = corrected_estimate(mean_depth, height)
            assert estimate == pytest.approx(n, rel=0.02), (n, height)

    def test_matches_plain_estimator_when_unsaturated(self):
        from repro.core.accuracy import PHI

        n, height = 10_000, 32
        mean_depth = expected_depth_exact(n, height)
        corrected = corrected_estimate(mean_depth, height)
        plain = 2.0**mean_depth / PHI
        assert corrected == pytest.approx(plain, rel=0.02)

    def test_saturated_observation_returns_bracket(self):
        estimate = corrected_estimate(16.0, 16, max_n=10**7)
        assert estimate == pytest.approx(10**7)

    def test_rejects_out_of_range_depth(self):
        with pytest.raises(AnalysisError):
            corrected_estimate(33.0, 32)
        with pytest.raises(AnalysisError):
            corrected_estimate(-1.0, 32)


class TestEffectiveRange:
    def test_h32_covers_tens_of_millions(self):
        assert effective_range(32) > 10_000_000

    def test_larger_h_larger_range(self):
        assert effective_range(24) > effective_range(18)

    def test_range_consistent_with_bias(self):
        height = 20
        limit = effective_range(height, bias_tolerance=0.05)
        assert abs(estimator_bias(limit, height)) <= 0.05
        assert abs(estimator_bias(limit * 2, height)) > 0.05

    def test_rejects_tiny_height(self):
        with pytest.raises(AnalysisError):
            effective_range(4)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(AnalysisError):
            effective_range(32, bias_tolerance=0.0)
