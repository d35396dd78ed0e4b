"""Tests for the exporters (in-memory, JSON-lines, console summary)."""

from __future__ import annotations

import io
import json
import math

from repro.obs import (
    ConsoleSummaryExporter,
    InMemoryExporter,
    JsonLinesExporter,
    MetricsRegistry,
    decode_value,
)
from repro.obs.export import iter_records


def _populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("sim.slots").inc(100)
    registry.gauge("experiment.rounds_per_second").set(1234.5)
    registry.histogram("pet.gray_depth").observe_many([3, 4, 5])
    with registry.span("cell", tier="batched", n=50):
        pass
    registry.event("cell", n=50, n_hat=51.25)
    return registry


#: Record kinds in export order — the finished span contributes both a
#: ``span.cell.seconds`` histogram and the span record itself.
EXPECTED_KINDS = [
    "counter", "gauge", "histogram", "histogram", "span", "event",
]


class TestIterRecords:
    def test_all_kinds_present_and_tagged(self):
        kinds = [r["kind"] for r in iter_records(_populated_registry())]
        assert kinds == EXPECTED_KINDS

    def test_schema_triplet_on_every_record(self):
        for record in iter_records(_populated_registry()):
            assert record["type"] == record["kind"]
            assert "name" in record
            assert isinstance(record["ts"], float)


class TestInMemoryExporter:
    def test_collects_and_filters_by_kind(self):
        exporter = InMemoryExporter()
        exporter.export(_populated_registry())
        assert len(exporter.records) == len(EXPECTED_KINDS)
        (counter,) = exporter.of_kind("counter")
        assert counter == {
            "kind": "counter",
            "type": "counter",
            "name": "sim.slots",
            "ts": counter["ts"],
            "value": 100,
        }
        (span,) = exporter.of_kind("span")
        assert span["path"] == "cell"
        assert span["attributes"] == {"tier": "batched", "n": 50}
        (event,) = exporter.of_kind("event")
        assert event["n_hat"] == 51.25


class TestJsonLinesExporter:
    def test_stream_round_trip(self):
        sink = io.StringIO()
        JsonLinesExporter(sink).export(_populated_registry())
        lines = sink.getvalue().strip().split("\n")
        records = [json.loads(line) for line in lines]
        assert [r["kind"] for r in records] == EXPECTED_KINDS
        histogram = records[2]
        assert histogram["name"] == "pet.gray_depth"
        assert histogram["count"] == 3
        assert histogram["mean"] == 4.0

    def test_histogram_records_carry_bucket_arrays(self):
        from repro.obs.metrics import BUCKET_COUNT

        sink = io.StringIO()
        JsonLinesExporter(sink).export(_populated_registry())
        records = [
            json.loads(line)
            for line in sink.getvalue().strip().split("\n")
        ]
        histogram = next(
            r for r in records if r.get("name") == "pet.gray_depth"
        )
        assert len(histogram["buckets"]) == BUCKET_COUNT
        assert sum(histogram["buckets"]) == 3

    def test_snapshot_record_kind(self):
        sink = io.StringIO()
        snapshot = _populated_registry().snapshot(worker_id="pid:3")
        JsonLinesExporter(sink).export_snapshot(snapshot)
        (record,) = [
            json.loads(line)
            for line in sink.getvalue().strip().split("\n")
        ]
        assert record["kind"] == "snapshot"
        assert record["name"] == "pid:3"
        assert record["counters"] == {"sim.slots": 100}
        assert record["histograms"]["pet.gray_depth"]["count"] == 3

    def test_file_destination_appends(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        exporter = JsonLinesExporter(str(path))
        exporter.export(_populated_registry())
        exporter.export(_populated_registry())
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 2 * len(EXPECTED_KINDS)  # appended, not truncated

    def test_non_finite_floats_round_trip_as_sentinels(self):
        registry = MetricsRegistry()
        registry.gauge("bad").set(math.nan)
        registry.event("e", seconds=math.inf, drop=-math.inf)
        sink = io.StringIO()
        JsonLinesExporter(sink).export(registry)
        records = [
            json.loads(line)
            for line in sink.getvalue().strip().split("\n")
        ]
        by_kind = {r["kind"]: r for r in records}
        assert by_kind["gauge"]["value"] == "NaN"
        assert math.isnan(decode_value(by_kind["gauge"]["value"]))
        assert decode_value(by_kind["event"]["seconds"]) == math.inf
        assert decode_value(by_kind["event"]["drop"]) == -math.inf

    def test_histogram_with_non_finite_stats_round_trips(self):
        # An empty histogram's min/max are +/-inf and mean/std NaN;
        # the JSONL encoding must survive a strict JSON parse and
        # decode back to the same non-finite values.
        registry = MetricsRegistry()
        registry.histogram("empty")
        sink = io.StringIO()
        JsonLinesExporter(sink).export(registry)
        (line,) = sink.getvalue().strip().split("\n")
        record = json.loads(line)  # strict parse: no bare NaN/Infinity
        assert record["kind"] == "histogram"
        assert math.isnan(decode_value(record["mean"]))
        assert decode_value(record["min"]) == math.inf
        assert decode_value(record["max"]) == -math.inf

    def test_context_manager_closes_file(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        with JsonLinesExporter(str(path)) as exporter:
            exporter.export(_populated_registry())
            handle = exporter._handle
            assert handle is not None and not handle.closed
        assert handle.closed
        assert exporter._handle is None
        lines = path.read_text().strip().split("\n")
        assert len(lines) == len(EXPECTED_KINDS)

    def test_close_leaves_caller_streams_open(self):
        sink = io.StringIO()
        with JsonLinesExporter(sink) as exporter:
            exporter.export(_populated_registry())
        assert not sink.closed  # caller owns the stream's lifecycle


class TestConsoleSummaryExporter:
    def test_render_mentions_every_metric(self):
        rendered = ConsoleSummaryExporter().render(
            _populated_registry()
        )
        assert "sim.slots" in rendered
        assert "100" in rendered
        assert "experiment.rounds_per_second" in rendered
        assert "pet.gray_depth" in rendered

    def test_export_writes_to_stream(self):
        sink = io.StringIO()
        ConsoleSummaryExporter(sink).export(_populated_registry())
        assert "metrics summary" in sink.getvalue()

    def test_empty_registry_renders_placeholder(self):
        rendered = ConsoleSummaryExporter().render(MetricsRegistry())
        assert "no metrics recorded" in rendered
