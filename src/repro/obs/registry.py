"""The metrics registry and the process-wide active-registry switch.

:class:`MetricsRegistry` is the single object instrumented code talks
to: it creates/looks up named metrics, opens :class:`~repro.obs.span.Span`
regions, and records free-form events (one dict per event — used for
per-cell results so exporters can emit final estimates next to the
counters).

Instrumented components resolve their registry at construction time:

    registry = registry if registry is not None else get_registry()

The default active registry is :data:`NULL_REGISTRY` — a
:class:`NullRegistry` whose metrics, spans, and events are all no-ops —
so nothing is recorded (and effectively nothing is paid) until a caller
opts in, either by passing a registry explicitly or by installing one
with :func:`set_registry` / :func:`use_registry` (what the CLI's
``--metrics-out`` does).  Registries are truthy, the null registry is
falsy, so batch code can gate optional aggregate computations with
``if registry:``.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Iterator

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    _NullCounter,
    _NullGauge,
    _NullHistogram,
)
from .span import NULL_SPAN, NullSpan, Span, SpanRecord


@dataclass
class RegistrySnapshot:
    """Picklable point-in-time copy of a registry's full contents.

    This is what worker processes ship back to the sweep parent: plain
    dicts, lists, and :class:`~repro.obs.span.SpanRecord` rows — nothing
    that references the live registry — so the object pickles cleanly
    across a ``ProcessPoolExecutor`` boundary and feeds
    :meth:`MetricsRegistry.merge` on the other side.

    For backwards compatibility the snapshot also supports the old
    plain-dict access pattern: ``snapshot["counters"]`` /
    ``snapshot["gauges"]`` / ``snapshot["histograms"]`` return the same
    mappings the dict-returning ``snapshot()`` of earlier versions did
    (histogram stats dicts additionally carry ``sum_squares`` and the
    fixed-grid ``buckets`` array).

    Attributes
    ----------
    counters:
        Metric name → monotone total.
    gauges:
        Metric name → last-written value.
    gauge_ts:
        Metric name → ``time.time()`` of the last write (``0.0`` =
        never written); drives last-write-wins merging.
    histograms:
        Metric name → stats dict (``count`` / ``total`` /
        ``sum_squares`` / ``min`` / ``max`` / ``mean`` / ``std`` /
        ``buckets``, plus ``exemplars`` when any bucket carries one).
    spans:
        The registry's completed-span trace (tagged with ``worker.id``
        when the snapshot was taken with a ``worker_id``).
    events:
        The registry's event rows (same ``worker.id`` tagging).
    worker_id:
        Identity of the process that took the snapshot, or ``None``.
    """

    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    gauge_ts: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, dict[str, object]] = field(
        default_factory=dict
    )
    spans: list[SpanRecord] = field(default_factory=list)
    events: list[dict[str, object]] = field(default_factory=list)
    worker_id: str | None = None

    def __getitem__(self, key: str) -> dict:
        if key in ("counters", "gauges", "histograms"):
            return getattr(self, key)
        raise KeyError(key)

    def to_dict(self) -> dict[str, object]:
        """JSON-ready plain-dict view (spans become attribute dicts)."""
        from dataclasses import asdict

        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "gauge_ts": dict(self.gauge_ts),
            "histograms": {
                name: dict(stats)
                for name, stats in self.histograms.items()
            },
            "spans": [asdict(record) for record in self.spans],
            "events": [dict(event) for event in self.events],
            "worker_id": self.worker_id,
        }


class DeltaSnapshotter:
    """Incremental :class:`RegistrySnapshot` producer for one registry.

    Each :meth:`delta` call returns only what changed since the
    previous call — counter *increments*, histogram *stat increments*
    (plus the current extrema and exemplars, whose merge rules are
    idempotent), gauges whose value or timestamp moved, and the span /
    event rows appended since last time.  Merging the sequence of
    deltas into a fresh registry lands it exactly where merging one
    full :meth:`MetricsRegistry.snapshot` would:

    * counters: the increments sum to the full total;
    * histograms: count/total/sum_squares/buckets increments sum
      exactly; ``min``/``max`` ship as current values and merge via
      ``min()``/``max()``, so repeating them is harmless;
    * gauges: full ``(value, ts)`` pairs, last-write-wins on merge;
    * spans/events: disjoint slices of the append-only logs.

    This is what bounds the payload cost of periodic worker telemetry:
    a quiet interval ships a few bytes (or nothing — :meth:`delta`
    returns ``None`` when literally nothing moved), not the whole
    registry history.
    """

    def __init__(
        self, registry: "MetricsRegistry", worker_id: str | None = None
    ):
        self._registry = registry
        self.worker_id = worker_id
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, tuple[float, float]] = {}
        self._histograms: dict[
            str, tuple[int, float, float, list[int]]
        ] = {}
        self._span_index = 0
        self._event_index = 0

    def delta(self) -> RegistrySnapshot | None:
        """Changes since the last call (``None`` when nothing moved)."""
        registry = self._registry
        snapshot = RegistrySnapshot(worker_id=self.worker_id)
        changed = False
        for name, metric in registry._counters.items():
            # A metric's first delta ships even at zero, as a full
            # snapshot would, so a one-delta stream merges identically.
            previous = self._counters.get(name)
            if previous is None or metric.value != previous:
                snapshot.counters[name] = metric.value - (previous or 0.0)
                self._counters[name] = metric.value
                changed = True
        for name, metric in registry._gauges.items():
            current = (metric.value, metric.ts)
            if self._gauges.get(name) != current:
                snapshot.gauges[name] = metric.value
                snapshot.gauge_ts[name] = metric.ts
                self._gauges[name] = current
                changed = True
        for name, metric in registry._histograms.items():
            previous = self._histograms.get(name)
            if previous is None:
                previous = (0, 0.0, 0.0, [0] * len(metric.buckets))
            elif metric.count == previous[0]:
                continue
            count = metric.count - previous[0]
            total = metric.total - previous[1]
            sum_squares = metric.sum_squares - previous[2]
            snapshot.histograms[name] = {
                "count": count,
                "mean": total / count if count else 0.0,
                "std": 0.0,
                "min": metric.min,
                "max": metric.max,
                "total": total,
                "sum_squares": sum_squares,
                "buckets": [
                    now - then
                    for now, then in zip(metric.buckets, previous[3])
                ],
                **(
                    {"exemplars": dict(metric.exemplars)}
                    if metric.exemplars
                    else {}
                ),
            }
            self._histograms[name] = (
                metric.count,
                metric.total,
                metric.sum_squares,
                list(metric.buckets),
            )
            changed = True
        spans = registry.trace[self._span_index:]
        self._span_index += len(spans)
        events = registry.events[self._event_index:]
        self._event_index += len(events)
        if self.worker_id is not None:
            spans = [
                replace(
                    record,
                    attributes={
                        **record.attributes,
                        "worker.id": self.worker_id,
                    },
                )
                for record in spans
            ]
            events = [
                {**event, "worker.id": self.worker_id}
                for event in events
            ]
        else:
            events = [dict(event) for event in events]
        if spans or events:
            changed = True
        if not changed:
            return None
        snapshot.spans = spans
        snapshot.events = events
        return snapshot


def _gauge_wins(
    ts_new: float, value_new: float, ts_old: float, value_old: float
) -> bool:
    """Last-write-wins with a total tie-break order.

    Later timestamp wins; equal timestamps break toward the larger
    value (NaN loses to everything) — a total order, so merging any
    number of snapshots in any order converges to the same gauge.
    """
    if ts_new != ts_old:
        return ts_new > ts_old
    if math.isnan(value_new):
        return False
    if math.isnan(value_old):
        return True
    return value_new > value_old


def _strip_volatile(event: dict[str, object]) -> dict[str, object]:
    """An event row minus its timing and worker-identity fields."""
    return {
        key: value
        for key, value in event.items()
        if key not in ("seconds", "worker.id", "ts")
    }


def parity_view(
    snapshot: "RegistrySnapshot | MetricsRegistry",
) -> dict[str, object]:
    """The deterministic projection of a snapshot, for equality tests.

    Parallel and serial sweeps must agree *bit-for-bit* on everything
    that is not a wall-clock measurement: counters, histogram counts /
    extrema / bucket arrays, and the event multiset up to worker-id and
    timing tags.  Gauges (throughput), ``*.seconds`` histograms (cell
    and span timings), and the span trace itself are machine-timed and
    excluded.  Histogram ``total`` / ``sum_squares`` are float sums
    whose grouping differs between the merged and the serial order, so
    they are rounded to 12 significant digits rather than compared
    exactly.
    """
    if isinstance(snapshot, MetricsRegistry):
        snapshot = snapshot.snapshot()
    histograms = {}
    for name, stats in sorted(snapshot.histograms.items()):
        if name.endswith(".seconds") or name.endswith("_seconds"):
            continue
        histograms[name] = {
            "count": stats["count"],
            "min": stats["min"],
            "max": stats["max"],
            "buckets": list(stats["buckets"]),
            "total": float(f"{stats['total']:.12g}"),
            "sum_squares": float(f"{stats['sum_squares']:.12g}"),
        }
    events = sorted(
        json.dumps(_strip_volatile(event), sort_keys=True, default=str)
        for event in snapshot.events
    )
    return {
        "counters": dict(sorted(snapshot.counters.items())),
        "histograms": histograms,
        "events": events,
    }


class MetricsRegistry:
    """Owns every named metric, the span trace, and the event log.

    Parameters
    ----------
    max_trace:
        Upper bound on retained span records and events (each counted
        separately).  Excess records are dropped, not stored, and the
        drop count appears in the ``obs.spans.dropped`` /
        ``obs.events.dropped`` counters.
    """

    def __init__(self, max_trace: int = 10_000):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        # Span-path -> duration histogram, so the per-span hot path
        # skips the f-string name build on every finish.
        self._span_seconds: dict[str, Histogram] = {}
        self._span_stack: list[Span] = []
        self.trace: list[SpanRecord] = []
        self.events: list[dict[str, object]] = []
        self.max_trace = max_trace
        #: Optional round-level diagnostics attached to this registry
        #: (see :mod:`repro.obs.trace` / :mod:`repro.obs.diag`).
        #: Instrumented simulators read these attributes and feed them
        #: when set; all stay ``None`` on the null registry, so the
        #: uninstrumented fast path is unaffected.
        self.round_trace: object | None = None
        self.health: object | None = None
        #: Optional :class:`~repro.obs.slo.SloTracker`; the serve tier
        #: attaches one so every answered request feeds the windowed
        #: error-budget burn-rate gauges.
        self.slo: object | None = None
        #: Optional fleet-status view (see
        #: :class:`repro.serve.shard.FleetStatus`); the sharded router
        #: attaches one so the scrape endpoint can refresh per-shard
        #: liveness gauges and report watchdog health on ``/healthz``.
        self.fleet: object | None = None

    def attach_diagnostics(
        self,
        round_trace: object | None = None,
        health: object | None = None,
        slo: object | None = None,
        fleet: object | None = None,
    ) -> "MetricsRegistry":
        """Attach a round-trace recorder, health monitor, SLO tracker,
        or fleet-status view.

        Returns ``self`` so construction chains:
        ``MetricsRegistry().attach_diagnostics(recorder, health)``.
        """
        if round_trace is not None:
            self.round_trace = round_trace
        if health is not None:
            self.health = health
        if slo is not None:
            self.slo = slo
        if fleet is not None:
            self.fleet = fleet
        return self

    def __bool__(self) -> bool:
        return True

    # -- metric lookup/creation ------------------------------------------

    def counter(self, name: str) -> Counter:
        """Return the named counter, creating it on first use."""
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        """Return the named gauge, creating it on first use."""
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str) -> Histogram:
        """Return the named histogram, creating it on first use."""
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(name)
        return metric

    # -- spans and events ------------------------------------------------

    def span(self, name: str, **attributes: object) -> Span | NullSpan:
        """Open a nested timed region (use as a context manager)."""
        return Span(self, name, **attributes)

    def _finish_span(self, record: SpanRecord) -> None:
        if len(self.trace) < self.max_trace:
            self.trace.append(record)
        else:
            self.counter("obs.spans.dropped").inc()
        metric = self._span_seconds.get(record.path)
        if metric is None:
            metric = self._span_seconds[record.path] = self.histogram(
                f"span.{record.path}.seconds"
            )
        metric.observe(record.seconds, trace_id=record.trace_id)

    def record_span(
        self,
        name: str,
        *,
        start: float,
        seconds: float,
        path: str | None = None,
        trace: "object | None" = None,
        **attributes: object,
    ) -> SpanRecord:
        """Record a span whose timing was measured externally.

        The serve tier's request phases (admission, queue wait, kernel
        execution) cross scheduler ticks and worker threads, so they
        cannot be ``with`` blocks on one registry stack — the service
        times them itself and reports each finished region here.
        ``trace`` is an optional
        :class:`~repro.obs.tracectx.TraceContext` naming the span's
        identity; ``path`` defaults to ``name``.
        """
        trace_id = span_id = parent_id = None
        if trace is not None:
            trace_id = trace.trace_id  # type: ignore[attr-defined]
            span_id = trace.span_id  # type: ignore[attr-defined]
            parent_id = trace.parent_id  # type: ignore[attr-defined]
        record = SpanRecord(
            name=name,
            path=path if path is not None else name,
            start=start,
            seconds=seconds,
            # The **attributes dict is freshly built per call — safe
            # to store without copying.
            attributes=attributes,
            trace_id=trace_id,
            span_id=span_id,
            parent_id=parent_id,
        )
        self._finish_span(record)
        return record

    def event(self, name: str, **fields: object) -> None:
        """Record one structured event row (e.g. a finished cell)."""
        if len(self.events) < self.max_trace:
            self.events.append({"name": name, **fields})
        else:
            self.counter("obs.events.dropped").inc()

    # -- export ----------------------------------------------------------

    def snapshot(self, worker_id: str | None = None) -> RegistrySnapshot:
        """Picklable copy of every metric, span, and event.

        The returned :class:`RegistrySnapshot` still supports the old
        mapping access (``snapshot()["counters"]`` ...), so exporters
        and tests written against the plain-dict shape keep working.

        ``worker_id`` tags every span and event with a ``worker.id``
        attribute — worker processes pass their pid so the parent's
        merged trace records which process timed what.
        """
        spans = list(self.trace)
        events = [dict(event) for event in self.events]
        if worker_id is not None:
            spans = [
                replace(
                    record,
                    attributes={
                        **record.attributes,
                        "worker.id": worker_id,
                    },
                )
                for record in spans
            ]
            for event in events:
                event["worker.id"] = worker_id
        return RegistrySnapshot(
            counters={
                name: metric.value
                for name, metric in sorted(self._counters.items())
            },
            gauges={
                name: metric.value
                for name, metric in sorted(self._gauges.items())
            },
            gauge_ts={
                name: metric.ts
                for name, metric in sorted(self._gauges.items())
            },
            histograms={
                name: {
                    "count": metric.count,
                    "mean": metric.mean,
                    "std": metric.std,
                    "min": metric.min,
                    "max": metric.max,
                    "total": metric.total,
                    "sum_squares": metric.sum_squares,
                    "buckets": list(metric.buckets),
                    **(
                        {"exemplars": dict(metric.exemplars)}
                        if metric.exemplars
                        else {}
                    ),
                }
                for name, metric in sorted(self._histograms.items())
            },
            spans=spans,
            events=events,
            worker_id=worker_id,
        )

    # -- cross-process merge ---------------------------------------------

    def merge(self, snapshot: RegistrySnapshot) -> "MetricsRegistry":
        """Fold a worker's :class:`RegistrySnapshot` into this registry.

        The merge is associative and order-independent over the metric
        state: counters add, histogram moments/extrema/buckets combine
        exactly, and gauges resolve last-write-wins on their write
        timestamps (ties break toward the larger value so the outcome
        does not depend on merge order).  Spans and events append under
        the usual ``max_trace`` cap, each tagged with the snapshot's
        ``worker.id``; note the *retained subset* near the cap does
        depend on merge order even though the drop counters do not.

        Span timings arrive pre-aggregated in the snapshot's
        ``span.*.seconds`` histograms, so merging the trace does not
        re-observe them.  Returns ``self`` for chaining.
        """
        for name, value in snapshot.counters.items():
            self.counter(name).inc(value)
        for name, value in snapshot.gauges.items():
            ts = snapshot.gauge_ts.get(name, 0.0)
            gauge = self.gauge(name)
            if _gauge_wins(ts, value, gauge.ts, gauge.value):
                gauge.value = float(value)
                gauge.ts = ts
        for name, stats in snapshot.histograms.items():
            histogram = self.histogram(name)
            histogram.count += int(stats["count"])  # type: ignore[call-overload]
            histogram.total += float(stats["total"])  # type: ignore[arg-type]
            histogram.sum_squares += float(stats["sum_squares"])  # type: ignore[arg-type]
            histogram.min = min(histogram.min, stats["min"])  # type: ignore[type-var]
            histogram.max = max(histogram.max, stats["max"])  # type: ignore[type-var]
            buckets = stats["buckets"]
            for index, count in enumerate(buckets):  # type: ignore[arg-type]
                histogram.buckets[index] += count
            exemplars = stats.get("exemplars")
            if exemplars:
                mine = histogram.exemplars
                if mine is None:
                    mine = histogram.exemplars = {}
                for index, exemplar in exemplars.items():  # type: ignore[union-attr]
                    index = int(index)
                    current = mine.get(index)
                    # Last-write-wins per bucket on the exemplar's
                    # timestamp, mirroring the gauge merge rule.
                    if current is None or exemplar[2] >= current[2]:
                        mine[index] = tuple(exemplar)  # type: ignore[assignment]
        for record in snapshot.spans:
            if len(self.trace) < self.max_trace:
                self.trace.append(record)
            else:
                self.counter("obs.spans.dropped").inc()
        for event in snapshot.events:
            if len(self.events) < self.max_trace:
                self.events.append(dict(event))
            else:
                self.counter("obs.events.dropped").inc()
        return self


class NullRegistry(MetricsRegistry):
    """The default registry: accepts everything, records nothing.

    All metric factories return shared do-nothing singletons and
    :meth:`span` returns the shared no-op span, so instrumentation left
    in place costs one attribute lookup and one no-op call.
    """

    _NULL_COUNTER = _NullCounter("null")
    _NULL_GAUGE = _NullGauge("null")
    _NULL_HISTOGRAM = _NullHistogram("null")

    def __bool__(self) -> bool:
        return False

    def counter(self, name: str) -> Counter:  # noqa: ARG002
        return self._NULL_COUNTER

    def gauge(self, name: str) -> Gauge:  # noqa: ARG002
        return self._NULL_GAUGE

    def histogram(self, name: str) -> Histogram:  # noqa: ARG002
        return self._NULL_HISTOGRAM

    def span(self, name: str, **attributes: object) -> NullSpan:  # noqa: ARG002
        return NULL_SPAN

    def event(self, name: str, **fields: object) -> None:  # noqa: ARG002
        pass

    def attach_diagnostics(
        self,
        round_trace: object | None = None,  # noqa: ARG002
        health: object | None = None,  # noqa: ARG002
        slo: object | None = None,  # noqa: ARG002
        fleet: object | None = None,  # noqa: ARG002
    ) -> "MetricsRegistry":
        """No-op: the shared null registry never carries diagnostics."""
        return self

    def record_span(
        self,
        name: str,  # noqa: ARG002
        *,
        start: float,  # noqa: ARG002
        seconds: float,  # noqa: ARG002
        path: str | None = None,  # noqa: ARG002
        trace: "object | None" = None,  # noqa: ARG002
        **attributes: object,  # noqa: ARG002
    ) -> None:
        """No-op: the null registry stores no trace, allocates nothing."""
        return None

    def merge(self, snapshot: RegistrySnapshot) -> "MetricsRegistry":  # noqa: ARG002
        """No-op: merging into the null registry records nothing."""
        return self


#: The process-wide default: instrumentation wired to this records nothing.
NULL_REGISTRY = NullRegistry()

_active: MetricsRegistry = NULL_REGISTRY


def get_registry() -> MetricsRegistry:
    """The currently active registry (the null registry by default)."""
    return _active


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the process default; returns the previous."""
    global _active
    previous = _active
    _active = registry
    return previous


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Scoped :func:`set_registry`: restores the previous on exit."""
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
