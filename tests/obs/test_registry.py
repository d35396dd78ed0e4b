"""Tests for MetricsRegistry, spans, events, and the active switch."""

from __future__ import annotations

import pytest

from repro.obs import (
    MetricsRegistry,
    get_registry,
    set_registry,
    use_registry,
)
from repro.obs.registry import NULL_REGISTRY, NullRegistry


class TestMetricLookup:
    def test_same_name_returns_same_metric(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_kinds_are_separate_namespaces(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.gauge("x").set(2)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["x"] == 1
        assert snapshot["gauges"]["x"] == 2.0

    def test_snapshot_is_sorted_and_plain(self):
        registry = MetricsRegistry()
        registry.counter("zebra").inc()
        registry.counter("aard").inc(2)
        registry.histogram("h").observe(3.0)
        snapshot = registry.snapshot()
        assert list(snapshot["counters"]) == ["aard", "zebra"]
        stats = snapshot["histograms"]["h"]
        assert stats["count"] == 1
        assert stats["mean"] == 3.0
        assert stats["total"] == 3.0


class TestSpans:
    def test_nested_spans_build_dotted_paths(self):
        registry = MetricsRegistry()
        with registry.span("experiment"):
            with registry.span("cell", n=100):
                with registry.span("round"):
                    pass
        paths = [record.path for record in registry.trace]
        assert paths == [
            "experiment.cell.round",
            "experiment.cell",
            "experiment",
        ]  # completion order: innermost first

    def test_span_records_attributes_and_timing_histogram(self):
        registry = MetricsRegistry()
        with registry.span("cell", tier="batched", n=10):
            pass
        record = registry.trace[0]
        assert record.name == "cell"
        assert record.attributes == {"tier": "batched", "n": 10}
        assert record.seconds >= 0.0
        stats = registry.snapshot()["histograms"]["span.cell.seconds"]
        assert stats["count"] == 1

    def test_trace_is_bounded_and_drops_are_counted(self):
        registry = MetricsRegistry(max_trace=2)
        for _ in range(5):
            with registry.span("s"):
                pass
        assert len(registry.trace) == 2
        assert registry.snapshot()["counters"]["obs.spans.dropped"] == 3
        # The timing histogram still sees every span.
        assert (
            registry.snapshot()["histograms"]["span.s.seconds"]["count"]
            == 5
        )

    def test_span_stack_unwinds_on_exception(self):
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with registry.span("outer"):
                raise RuntimeError("boom")
        with registry.span("next"):
            pass
        assert registry.trace[-1].path == "next"

    def test_untraced_spans_carry_no_ids(self):
        registry = MetricsRegistry()
        with registry.span("cell"):
            pass
        record = registry.trace[0]
        assert record.trace_id is None
        assert record.span_id is None
        assert record.parent_id is None

    def test_spans_under_trace_context_build_id_tree(self):
        from repro.obs import TraceContext, use_trace_context

        registry = MetricsRegistry()
        ctx = TraceContext.root()
        with use_trace_context(ctx):
            with registry.span("outer"):
                with registry.span("inner"):
                    pass
        inner, outer = registry.trace
        assert inner.trace_id == outer.trace_id == ctx.trace_id
        assert outer.parent_id == ctx.span_id
        assert inner.parent_id == outer.span_id
        assert inner.span_id != outer.span_id


class TestRecordSpan:
    def test_externally_timed_span_reaches_trace_and_histogram(self):
        registry = MetricsRegistry()
        record = registry.record_span(
            "queue.wait", start=10.0, seconds=0.25, tenant="t0"
        )
        assert registry.trace == [record]
        assert record.name == record.path == "queue.wait"
        assert record.start == 10.0
        assert record.seconds == 0.25
        assert record.attributes == {"tenant": "t0"}
        stats = registry.snapshot()["histograms"][
            "span.queue.wait.seconds"
        ]
        assert stats["count"] == 1
        assert stats["total"] == 0.25

    def test_explicit_path_overrides_name(self):
        registry = MetricsRegistry()
        record = registry.record_span(
            "kernel", start=0.0, seconds=0.1, path="serve.kernel"
        )
        assert record.name == "kernel"
        assert record.path == "serve.kernel"
        assert (
            "span.serve.kernel.seconds"
            in registry.snapshot()["histograms"]
        )

    def test_trace_identity_stamped_from_context_argument(self):
        from repro.obs import TraceContext

        registry = MetricsRegistry()
        ctx = TraceContext.root().child()
        record = registry.record_span(
            "respond", start=0.0, seconds=0.01, trace=ctx
        )
        assert record.trace_id == ctx.trace_id
        assert record.span_id == ctx.span_id
        assert record.parent_id == ctx.parent_id

    def test_traced_duration_becomes_bucket_exemplar(self):
        from repro.obs import TraceContext

        registry = MetricsRegistry()
        ctx = TraceContext.root()
        registry.record_span(
            "kernel", start=0.0, seconds=0.125, trace=ctx
        )
        histogram = registry.histogram("span.kernel.seconds")
        assert histogram.exemplars is not None
        assert {
            exemplar[0] for exemplar in histogram.exemplars.values()
        } == {ctx.trace_id}

    def test_respects_trace_cap(self):
        registry = MetricsRegistry(max_trace=1)
        registry.record_span("a", start=0.0, seconds=0.1)
        registry.record_span("b", start=0.0, seconds=0.1)
        assert len(registry.trace) == 1
        assert (
            registry.snapshot()["counters"]["obs.spans.dropped"] == 1
        )

    def test_null_registry_records_nothing(self):
        assert (
            NULL_REGISTRY.record_span("a", start=0.0, seconds=0.1)
            is None
        )
        assert NULL_REGISTRY.trace == []


class TestEvents:
    def test_events_record_fields_in_order(self):
        registry = MetricsRegistry()
        registry.event("cell", n=100, n_hat=101.5)
        assert registry.events == [
            {"name": "cell", "n": 100, "n_hat": 101.5}
        ]

    def test_events_are_bounded_and_drops_are_counted(self):
        registry = MetricsRegistry(max_trace=3)
        for index in range(5):
            registry.event("e", index=index)
        assert len(registry.events) == 3
        assert registry.snapshot()["counters"]["obs.events.dropped"] == 2


class TestActiveRegistry:
    def test_default_is_the_null_registry(self):
        assert get_registry() is NULL_REGISTRY

    def test_use_registry_scopes_and_restores(self):
        registry = MetricsRegistry()
        with use_registry(registry) as active:
            assert active is registry
            assert get_registry() is registry
        assert get_registry() is NULL_REGISTRY

    def test_use_registry_restores_on_exception(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            with use_registry(registry):
                raise ValueError
        assert get_registry() is NULL_REGISTRY

    def test_set_registry_returns_previous(self):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            assert previous is NULL_REGISTRY
            assert get_registry() is registry
        finally:
            set_registry(previous)

    def test_truthiness_gates_optional_work(self):
        assert MetricsRegistry()
        assert not NullRegistry()
        assert not NULL_REGISTRY


class TestDeltaSnapshotter:
    """Delta streaming must merge to exactly the full-snapshot state."""

    def _populate(self, registry):
        registry.counter("c").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(0.25)
        registry.event("e", phase="one")
        registry.record_span("s", start=0.0, seconds=0.1)

    def test_idle_snapshotter_yields_none(self):
        from repro.obs import DeltaSnapshotter

        registry = MetricsRegistry()
        snapshotter = DeltaSnapshotter(registry)
        assert snapshotter.delta() is None
        self._populate(registry)
        assert snapshotter.delta() is not None
        # Nothing moved since the last delta: nothing to ship.
        assert snapshotter.delta() is None

    def test_delta_sequence_merges_like_one_full_snapshot(self):
        from repro.obs import DeltaSnapshotter

        source = MetricsRegistry()
        snapshotter = DeltaSnapshotter(source, worker_id="shard-7")
        streamed = MetricsRegistry()

        self._populate(source)
        streamed.merge(snapshotter.delta())
        source.counter("c").inc(3)
        source.counter("c2").inc()
        source.gauge("g").set(0.5)
        source.histogram("h").observe(4.0)
        source.histogram("h").observe(0.01)
        source.event("e", phase="two")
        source.record_span("s2", start=0.2, seconds=0.05)
        streamed.merge(snapshotter.delta())

        direct = MetricsRegistry()
        direct.merge(source.snapshot(worker_id="shard-7"))

        got, want = streamed.snapshot(), direct.snapshot()
        assert got["counters"] == want["counters"]
        assert got["gauges"] == want["gauges"]
        assert got["histograms"] == want["histograms"]
        assert streamed.trace == direct.trace
        assert streamed.events == direct.events

    def test_single_delta_equals_full_snapshot_with_zero_metrics(self):
        from repro.obs import DeltaSnapshotter

        source = MetricsRegistry()
        snapshotter = DeltaSnapshotter(source, worker_id="shard-1")
        self._populate(source)
        source.counter("untouched")
        source.histogram("empty")
        streamed = MetricsRegistry()
        streamed.merge(snapshotter.delta())
        direct = MetricsRegistry()
        direct.merge(source.snapshot(worker_id="shard-1"))
        got, want = streamed.snapshot(), direct.snapshot()
        assert got["counters"] == want["counters"]
        assert got["counters"]["untouched"] == 0.0
        assert got["histograms"] == want["histograms"]
        assert got["histograms"]["empty"]["count"] == 0
        # Shipped once; an unchanged zero metric is not re-sent.
        assert snapshotter.delta() is None

    def test_deltas_carry_only_increments(self):
        from repro.obs import DeltaSnapshotter

        registry = MetricsRegistry()
        snapshotter = DeltaSnapshotter(registry)
        registry.counter("c").inc(10)
        registry.histogram("h").observe(1.0)
        snapshotter.delta()
        registry.counter("c").inc(1)
        registry.histogram("h").observe(3.0)
        delta = snapshotter.delta()
        assert delta.counters == {"c": 1.0}
        stats = delta.histograms["h"]
        assert stats["count"] == 1
        assert stats["total"] == 3.0
        assert sum(stats["buckets"]) == 1

    def test_worker_id_tags_spans_and_events(self):
        from repro.obs import DeltaSnapshotter

        registry = MetricsRegistry()
        snapshotter = DeltaSnapshotter(registry, worker_id="shard-3")
        registry.record_span("s", start=0.0, seconds=0.1)
        registry.event("e", x=1)
        delta = snapshotter.delta()
        assert delta.spans[0].attributes["worker.id"] == "shard-3"
        assert delta.events[0]["worker.id"] == "shard-3"
        # The source registry's own records stay untagged.
        assert "worker.id" not in registry.trace[0].attributes
        assert "worker.id" not in registry.events[0]
