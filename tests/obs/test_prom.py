"""Tests for the OpenMetrics/Prometheus text exporter and parser."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    MetricsRegistry,
    PrometheusExporter,
    parse_openmetrics,
    render_openmetrics,
)
from repro.obs.metrics import bucket_index, bucket_upper_bounds
from repro.obs.prom import sanitize_metric_name


def _populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("sim.rounds").inc(4697)
    registry.gauge("diag.n_hat").set(987.5)
    registry.histogram("pet.gray_depth").observe_many([9, 10, 11])
    return registry


class TestNameSanitization:
    def test_dots_become_underscores_with_prefix(self):
        assert (
            sanitize_metric_name("pet.gray_depth")
            == "repro_pet_gray_depth"
        )

    def test_result_always_matches_grammar(self):
        import re

        grammar = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
        for weird in ("9lives", "a-b", "x y", "Ünïcode", ""):
            assert grammar.match(sanitize_metric_name(weird))


class TestRenderOpenmetrics:
    def test_counter_rendered_with_total_suffix(self):
        text = render_openmetrics(_populated_registry())
        assert "# TYPE repro_sim_rounds counter" in text
        assert "repro_sim_rounds_total 4697" in text

    def test_gauge_and_histogram_rendered(self):
        text = render_openmetrics(_populated_registry())
        assert "# TYPE repro_diag_n_hat gauge" in text
        assert "repro_diag_n_hat 987.5" in text
        assert "# TYPE repro_pet_gray_depth histogram" in text
        assert "repro_pet_gray_depth_count 3" in text
        assert "repro_pet_gray_depth_sum 30" in text

    def test_histogram_buckets_cumulative_with_inf_terminator(self):
        text = render_openmetrics(_populated_registry())
        # 9, 10, 11 land in the (8, 16] log2 bucket.
        assert 'repro_pet_gray_depth_bucket{le="16.0"} 3' in text
        assert 'repro_pet_gray_depth_bucket{le="+Inf"} 3' in text

    def test_terminated_by_eof(self):
        assert render_openmetrics(_populated_registry()).endswith(
            "# EOF\n"
        )

    def test_non_finite_values_use_spec_literals(self):
        registry = MetricsRegistry()
        registry.gauge("nan_gauge").set(math.nan)
        registry.gauge("inf_gauge").set(math.inf)
        registry.gauge("neg_inf_gauge").set(-math.inf)
        text = render_openmetrics(registry)
        assert "repro_nan_gauge NaN" in text
        assert "repro_inf_gauge +Inf" in text
        assert "repro_neg_inf_gauge -Inf" in text


class TestParseOpenmetrics:
    def test_round_trip_of_rendered_output(self):
        registry = _populated_registry()
        samples, types = parse_openmetrics(
            render_openmetrics(registry)
        )
        assert samples["repro_sim_rounds_total"] == 4697
        assert samples["repro_diag_n_hat"] == 987.5
        assert samples["repro_pet_gray_depth_count"] == 3
        assert samples["repro_pet_gray_depth_mean"] == 10.0
        assert types["repro_sim_rounds"] == "counter"
        assert types["repro_pet_gray_depth"] == "histogram"

    def test_histogram_bucket_array_round_trips(self):
        registry = _populated_registry()
        samples, _ = parse_openmetrics(render_openmetrics(registry))
        buckets = registry.histogram("pet.gray_depth").buckets
        bounds = bucket_upper_bounds()
        cumulative = 0
        for index, count in enumerate(buckets[:-1]):
            cumulative += count
            if count:
                le = f'{{le="{bounds[index]!r}"}}'
                assert samples[f"repro_pet_gray_depth_bucket{le}"] == (
                    cumulative
                )
        assert samples['repro_pet_gray_depth_bucket{le="+Inf"}'] == 3

    def test_malformed_labels_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_openmetrics(
                '# TYPE a histogram\na_bucket{le=0.5} 1\n# EOF\n'
            )

    def test_non_finite_round_trip(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(math.nan)
        samples, _ = parse_openmetrics(render_openmetrics(registry))
        assert math.isnan(samples["repro_g"])

    def test_missing_eof_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_openmetrics("# TYPE a gauge\na 1\n")

    def test_undeclared_sample_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_openmetrics("orphan 1\n# EOF\n")

    def test_malformed_sample_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_openmetrics(
                "# TYPE a gauge\na 1 extra\n# EOF\n"
            )

    def test_content_after_eof_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_openmetrics(
                "# TYPE a gauge\na 1\n# EOF\na 2\n"
            )

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_openmetrics(
                "# TYPE a gauge\na wat\n# EOF\n"
            )


class TestExemplars:
    TRACE = "ab" * 16

    def _traced_registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        latency = registry.histogram("serve.request.latency_seconds")
        latency.observe(0.02, trace_id=self.TRACE)
        latency.observe(4.0, trace_id="cd" * 16)
        latency.observe(0.5)  # untraced: no exemplar on this bucket
        registry.counter("serve.requests.ok").inc(3)
        return registry

    def test_rendered_bucket_carries_exemplar_suffix(self):
        text = render_openmetrics(self._traced_registry())
        assert f'# {{trace_id="{self.TRACE}"}} 0.02' in text

    def test_default_parse_still_two_tuple(self):
        """Callers unaware of exemplars keep the (samples, types)
        shape and simply skip the suffix."""
        result = parse_openmetrics(
            render_openmetrics(self._traced_registry())
        )
        assert len(result) == 2
        samples, types = result
        assert (
            types["repro_serve_request_latency_seconds"] == "histogram"
        )

    def test_with_exemplars_returns_third_mapping(self):
        registry = self._traced_registry()
        _, _, exemplars = parse_openmetrics(
            render_openmetrics(registry), with_exemplars=True
        )
        assert len(exemplars) == 2
        traced = {
            exemplar[0] for exemplar in exemplars.values()
        }
        assert traced == {self.TRACE, "cd" * 16}
        # Render -> parse round trip: each exemplar keeps its value and
        # sits on the bucket line of the band its value fell in.
        bounds = bucket_upper_bounds()
        prefix = "repro_serve_request_latency_seconds_bucket"
        expected = {
            f'{prefix}{{le="{bounds[bucket_index(value)]!r}"}}': (
                trace_id,
                value,
            )
            for trace_id, value in ((self.TRACE, 0.02), ("cd" * 16, 4.0))
        }
        assert {
            sample: exemplar[:2] for sample, exemplar in exemplars.items()
        } == expected

    def test_exemplar_on_non_bucket_sample_rejected(self):
        with pytest.raises(ConfigurationError, match="non-bucket"):
            parse_openmetrics(
                '# TYPE a gauge\na 1 # {trace_id="ff"} 1\n# EOF\n',
                with_exemplars=True,
            )

    def test_malformed_exemplar_rejected(self):
        with pytest.raises(ConfigurationError, match="exemplar"):
            parse_openmetrics(
                "# TYPE a histogram\n"
                'a_bucket{le="+Inf"} 1 # {trace_id=} 1\n'
                "# EOF\n",
                with_exemplars=True,
            )


class TestPrometheusExporter:
    def test_export_writes_parseable_file(self, tmp_path):
        path = tmp_path / "metrics.prom"
        PrometheusExporter(str(path)).export(_populated_registry())
        samples, _ = parse_openmetrics(path.read_text())
        assert samples["repro_sim_rounds_total"] == 4697

    def test_export_replaces_rather_than_appends(self, tmp_path):
        path = tmp_path / "metrics.prom"
        exporter = PrometheusExporter(str(path))
        exporter.export(_populated_registry())
        exporter.export(_populated_registry())
        # Still exactly one EOF: the scrape file is a snapshot.
        assert path.read_text().count("# EOF") == 1
