"""Prometheus / OpenMetrics text exposition for a metrics registry.

:func:`render_openmetrics` turns a :class:`~repro.obs.registry.MetricsRegistry`
snapshot into the OpenMetrics text format — ``# TYPE`` metadata lines,
``_total``-suffixed counters, gauges, and histograms rendered as true
``histogram`` families (cumulative ``_bucket{le="..."}`` lines over the
registry's fixed log2 grid, ``_count`` / ``_sum``) plus ``_min`` /
``_max`` / ``_mean`` gauges — terminated by the mandatory ``# EOF``
marker.  The output is
what a Prometheus scrape endpoint or node-exporter textfile collector
expects, so a CLI run with ``--prom-out`` drops straight into an
existing monitoring stack.

Metric names are sanitized to the Prometheus grammar
(``[a-zA-Z_:][a-zA-Z0-9_:]*``): the registry's dotted names map
``pet.rounds`` → ``pet_rounds``, prefixed with ``repro_``.  Non-finite
values use the spec's ``NaN`` / ``+Inf`` / ``-Inf`` literals.

Histogram buckets carry **exemplars** when the registry recorded any:
the OpenMetrics ``# {trace_id="..."} value timestamp`` suffix on a
``_bucket`` line, pointing each latency band at a concrete trace id
(see :mod:`repro.obs.tracectx`).

:func:`parse_openmetrics` is a small validating reader for the subset
this module emits — enough for tests (and smoke checks) to assert that
``--prom-out`` files are well-formed and carry the expected samples.
It understands the exemplar suffix (pass ``with_exemplars=True`` for
them).
"""

from __future__ import annotations

import math
import re
from typing import Mapping

from ..errors import ConfigurationError
from .metrics import BUCKET_COUNT, bucket_upper_bounds
from .registry import MetricsRegistry

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")

#: Prefix on every exported metric, namespacing them in a shared scrape.
METRIC_PREFIX = "repro_"


def sanitize_metric_name(name: str, prefix: str = METRIC_PREFIX) -> str:
    """Map a registry metric name onto the Prometheus name grammar."""
    candidate = prefix + _SANITIZE.sub("_", name)
    if not _NAME_OK.match(candidate):
        candidate = "_" + candidate
    return candidate


def _format_value(value: float) -> str:
    """One sample value, using the spec's non-finite literals."""
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def _format_exemplar(
    exemplar: tuple[str, float, float] | list | None,
) -> str:
    """The OpenMetrics exemplar suffix for one bucket line ('' if none)."""
    if not exemplar:
        return ""
    trace_id, value, ts = exemplar
    return (
        f' # {{trace_id="{trace_id}"}}'
        f" {_format_value(float(value))} {_format_value(float(ts))}"
    )


def render_openmetrics(
    registry: MetricsRegistry, prefix: str = METRIC_PREFIX
) -> str:
    """Render the registry's metrics in OpenMetrics text format."""
    snapshot = registry.snapshot()
    lines: list[str] = []

    counters = snapshot["counters"]
    assert isinstance(counters, dict)
    for name, value in counters.items():
        metric = sanitize_metric_name(name, prefix)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric}_total {_format_value(value)}")

    gauges = snapshot["gauges"]
    assert isinstance(gauges, dict)
    for name, value in gauges.items():
        metric = sanitize_metric_name(name, prefix)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(value)}")

    histograms = snapshot["histograms"]
    assert isinstance(histograms, dict)
    bounds = bucket_upper_bounds()
    for name, stats in histograms.items():
        metric = sanitize_metric_name(name, prefix)
        lines.append(f"# TYPE {metric} histogram")
        exemplars = stats.get("exemplars") or {}
        cumulative = 0
        for index, count in enumerate(stats.get("buckets") or ()):
            bound = bounds[index]
            if count == 0 or math.isinf(bound):
                continue
            cumulative += int(count)
            lines.append(
                f'{metric}_bucket{{le="{bound!r}"}} {cumulative}'
                + _format_exemplar(exemplars.get(index))
            )
        # The +Inf bucket is mandatory and must equal _count.
        lines.append(
            f'{metric}_bucket{{le="+Inf"}} {int(stats["count"])}'
            + _format_exemplar(exemplars.get(BUCKET_COUNT - 1))
        )
        lines.append(f"{metric}_count {_format_value(stats['count'])}")
        lines.append(f"{metric}_sum {_format_value(stats['total'])}")
        for suffix in ("min", "max", "mean"):
            aggregate = f"{metric}_{suffix}"
            lines.append(f"# TYPE {aggregate} gauge")
            lines.append(
                f"{aggregate} {_format_value(stats[suffix])}"
            )

    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_openmetrics(
    dest: object, registry: MetricsRegistry, prefix: str = METRIC_PREFIX
) -> None:
    """Write :func:`render_openmetrics` output to a path or handle."""
    text = render_openmetrics(registry, prefix)
    if hasattr(dest, "write"):
        dest.write(text)  # type: ignore[attr-defined]
    else:
        with open(dest, "w", encoding="utf-8") as handle:  # type: ignore[arg-type]
            handle.write(text)


class PrometheusExporter:
    """Exporter-shaped wrapper over :func:`render_openmetrics`.

    Mirrors the call surface of the JSON exporters in
    :mod:`repro.obs.export` (``export(registry)``) so the CLI can treat
    all sinks uniformly.
    """

    def __init__(self, path: str, prefix: str = METRIC_PREFIX):
        self.path = path
        self.prefix = prefix

    def export(self, registry: MetricsRegistry) -> None:
        """Render the registry to ``self.path``, replacing the file."""
        write_openmetrics(self.path, registry, self.prefix)


def _parse_value(token: str, line_no: int) -> float:
    if token == "NaN":
        return math.nan
    if token == "+Inf":
        return math.inf
    if token == "-Inf":
        return -math.inf
    try:
        return float(token)
    except ValueError as exc:
        raise ConfigurationError(
            f"line {line_no}: invalid sample value {token!r}"
        ) from exc


#: An OpenMetrics exemplar suffix: ``{trace_id="..."} value [ts]``.
_EXEMPLAR_OK = re.compile(
    r'^\{trace_id="(?P<trace_id>[^"{}]*)"\}'
    r"\s+(?P<value>\S+)(?:\s+(?P<ts>\S+))?$"
)


def _parse_exemplar(
    suffix: str, line_no: int
) -> tuple[str, float, float | None]:
    match = _EXEMPLAR_OK.match(suffix.strip())
    if match is None:
        raise ConfigurationError(
            f"line {line_no}: malformed exemplar {suffix!r}"
        )
    ts_token = match.group("ts")
    return (
        match.group("trace_id"),
        _parse_value(match.group("value"), line_no),
        _parse_value(ts_token, line_no) if ts_token else None,
    )


def parse_openmetrics(
    text: str, *, with_exemplars: bool = False
) -> tuple:
    """Parse (and validate) the subset of OpenMetrics this module emits.

    Returns ``(samples, types)``: sample name → value, and declared
    metric name → type.  With ``with_exemplars=True`` a third mapping is
    returned — bucket sample name → ``(trace_id, value, ts)`` for every
    ``# {trace_id="..."}`` exemplar suffix (the syntax
    :func:`render_openmetrics` emits; exemplars are accepted only on
    ``_bucket`` / ``_total`` samples, as in the spec).  Raises
    :class:`~repro.errors.ConfigurationError` on malformed lines, an
    undeclared sample's metric, or a missing ``# EOF`` terminator.
    """
    samples: dict[str, float] = {}
    types: dict[str, str] = {}
    exemplars: dict[str, tuple[str, float, float | None]] = {}
    saw_eof = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if saw_eof:
            raise ConfigurationError(
                f"line {line_no}: content after # EOF"
            )
        if line == "# EOF":
            saw_eof = True
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                raise ConfigurationError(
                    f"line {line_no}: malformed TYPE line {raw!r}"
                )
            _, _, metric, kind = parts
            if not _NAME_OK.match(metric):
                raise ConfigurationError(
                    f"line {line_no}: invalid metric name {metric!r}"
                )
            if kind not in {"counter", "gauge", "summary", "histogram"}:
                raise ConfigurationError(
                    f"line {line_no}: unknown metric type {kind!r}"
                )
            types[metric] = kind
            continue
        if line.startswith("#"):
            # Other comments (HELP, UNIT) are legal; skip them.
            continue
        exemplar = None
        if " # " in line:
            line, _, suffix = line.partition(" # ")
            exemplar = _parse_exemplar(suffix, line_no)
        parts = line.split()
        if len(parts) != 2:
            raise ConfigurationError(
                f"line {line_no}: malformed sample line {raw!r}"
            )
        sample_name, token = parts
        bare_name = _split_labels(sample_name, line_no)
        if not _NAME_OK.match(bare_name):
            raise ConfigurationError(
                f"line {line_no}: invalid sample name {sample_name!r}"
            )
        if not _sample_declared(bare_name, types):
            raise ConfigurationError(
                f"line {line_no}: sample {sample_name!r} has no"
                " preceding # TYPE declaration"
            )
        if exemplar is not None:
            if not (
                bare_name.endswith("_bucket")
                or bare_name.endswith("_total")
            ):
                raise ConfigurationError(
                    f"line {line_no}: exemplar on non-bucket sample"
                    f" {sample_name!r}"
                )
            exemplars[sample_name] = exemplar
        samples[sample_name] = _parse_value(token, line_no)
    if not saw_eof:
        raise ConfigurationError("missing # EOF terminator")
    if with_exemplars:
        return samples, types, exemplars
    return samples, types


#: One or more ``key="value"`` pairs in braces; values may not contain
#: quotes or braces (true of everything this module emits).
_LABELS_OK = re.compile(
    r'^\{[a-zA-Z_][a-zA-Z0-9_]*="[^"{}]*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"{}]*")*\}$'
)


def _split_labels(sample_name: str, line_no: int) -> str:
    """Strip (and validate) a sample name's ``{...}`` label block."""
    brace = sample_name.find("{")
    if brace == -1:
        return sample_name
    labels = sample_name[brace:]
    if not _LABELS_OK.match(labels):
        raise ConfigurationError(
            f"line {line_no}: malformed labels {labels!r}"
        )
    return sample_name[:brace]


def _sample_declared(
    sample_name: str, types: Mapping[str, str]
) -> bool:
    """Whether a (label-stripped) sample belongs to a declared family."""
    if sample_name in types:
        return True
    for suffix in ("_total", "_count", "_sum", "_bucket"):
        if sample_name.endswith(suffix):
            if sample_name[: -len(suffix)] in types:
                return True
    return False

