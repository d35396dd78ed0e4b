"""repro.obs — the zero-dependency observability subsystem.

Counters, gauges, and histogram timers in a :class:`MetricsRegistry`;
nested :class:`Span` timing (experiment -> cell -> round -> slot-batch);
pluggable exporters (in-memory, JSON lines, console summary, and
OpenMetrics/Prometheus text).  Every instrumented component defaults to
the no-op :data:`NULL_REGISTRY`, so recording only happens when a real
registry is passed in or installed with :func:`set_registry` /
:func:`use_registry`.

On top of the metrics layer sit the round-level diagnostics:

* :class:`RoundTraceRecorder` / :func:`replay_round`
  (:mod:`repro.obs.trace`) — per-round records carrying their seed
  material, with bit-exact deterministic replay;
* :class:`EstimatorHealth` (:mod:`repro.obs.diag`) — streaming
  ``n_hat``, theory CI, rounds-remaining countdown, outlier flags, and
  drift alerts;
* :class:`CardinalityMonitor` (:mod:`repro.obs.monitor`) — the EWMA
  population-change detector, emitting ``monitor.drift`` events;
* :func:`render_text_report` / :func:`render_html_report`
  (:mod:`repro.obs.report`) — the ``--diagnose`` reports.

Attach diagnostics to a registry with
:meth:`MetricsRegistry.attach_diagnostics`; instrumented simulators
feed whatever is attached.

Cross-process telemetry (parallel sweeps) builds on three pieces:

* :meth:`MetricsRegistry.snapshot` / :meth:`MetricsRegistry.merge` —
  picklable :class:`RegistrySnapshot` objects that merge associatively,
  so worker registries fold into the parent losslessly;
* :class:`ProgressTracker` (:mod:`repro.obs.progress`) — live status
  line, ETA, and the ``sweep.progress.*`` gauges, ticked in the parent
  as each worker's cell future completes;
* the batched-kernel phases (:data:`KERNEL_PHASES`) — ordinary spans,
  so their ``span.<path>.seconds`` histograms merge like any other and
  :func:`~repro.obs.span.write_phase_json` sums them per phase.

See docs/OBSERVABILITY.md for metric names, exporter formats, and how
to wire a custom exporter.
"""

from .diag import DEFAULT_WARMUP_ROUNDS, EstimatorHealth, HealthReport
from .export import (
    ConsoleSummaryExporter,
    Exporter,
    InMemoryExporter,
    JsonLinesExporter,
    decode_value,
    iter_records,
    snapshot_record,
    write_span_trace,
)
from .fleetview import render_fleet
from .http import OPENMETRICS_CONTENT_TYPE, MetricsServer, trace_timeline
from .metrics import Counter, Gauge, Histogram
from .monitor import (
    CardinalityMonitor,
    EpochReport,
    HeartbeatMonitor,
    monitor_population,
    simulate_monitoring,
)
from .progress import ProgressTracker, default_worker_id
from .prom import (
    PrometheusExporter,
    parse_openmetrics,
    render_openmetrics,
    write_openmetrics,
)
from .registry import (
    NULL_REGISTRY,
    DeltaSnapshotter,
    MetricsRegistry,
    NullRegistry,
    RegistrySnapshot,
    get_registry,
    parity_view,
    set_registry,
    use_registry,
)
from .report import (
    render_html_report,
    render_text_report,
    write_html_report,
)
from .slo import SloTracker, merge_slo_gauges, publish_shard_slo
from .span import KERNEL_PHASES, NullSpan, Span, SpanRecord
from .tracectx import (
    TraceContext,
    current_trace,
    new_span_id,
    new_trace_id,
    start_trace,
    use_trace_context,
)
from .trace import (
    DEFAULT_TAIL_THRESHOLD,
    DEFAULT_TRACE_CAPACITY,
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

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "RegistrySnapshot",
    "DeltaSnapshotter",
    "get_registry",
    "parity_view",
    "set_registry",
    "use_registry",
    "Span",
    "NullSpan",
    "SpanRecord",
    # distributed tracing
    "TraceContext",
    "current_trace",
    "new_trace_id",
    "new_span_id",
    "start_trace",
    "use_trace_context",
    # SLO error budgets
    "SloTracker",
    "merge_slo_gauges",
    "publish_shard_slo",
    # scrape endpoint + trace rendering
    "MetricsServer",
    "OPENMETRICS_CONTENT_TYPE",
    "trace_timeline",
    "write_span_trace",
    "Exporter",
    "InMemoryExporter",
    "JsonLinesExporter",
    "ConsoleSummaryExporter",
    "iter_records",
    "decode_value",
    "snapshot_record",
    # cross-process progress + kernel phases
    "ProgressTracker",
    "default_worker_id",
    "KERNEL_PHASES",
    # trace / replay
    "DEFAULT_TAIL_THRESHOLD",
    "DEFAULT_TRACE_CAPACITY",
    "SamplingPolicy",
    "RoundTraceRecord",
    "RoundTraceRecorder",
    "ReplayedRound",
    "depth_tail_tables",
    "replay_round",
    "verify_replay",
    "read_trace",
    "write_trace",
    # health diagnostics
    "DEFAULT_WARMUP_ROUNDS",
    "EstimatorHealth",
    "HealthReport",
    # drift monitor + fleet watchdog
    "CardinalityMonitor",
    "EpochReport",
    "HeartbeatMonitor",
    "monitor_population",
    "simulate_monitoring",
    "render_fleet",
    # prometheus / reports
    "PrometheusExporter",
    "render_openmetrics",
    "write_openmetrics",
    "parse_openmetrics",
    "render_text_report",
    "render_html_report",
    "write_html_report",
]
