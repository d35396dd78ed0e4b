"""Exporters: turn a registry's contents into something consumable.

Three built-ins, each a single ``export(registry)`` call:

* :class:`InMemoryExporter` — keeps structured records on the object;
  the natural choice for tests and programmatic post-processing.
* :class:`JsonLinesExporter` — one JSON object per line, ``kind``-tagged
  (``counter`` / ``gauge`` / ``histogram`` / ``span`` / ``event``, plus
  ``snapshot`` for cross-process worker records), appended
  to a file or file-like object.  This is what the CLI's
  ``--metrics-out PATH`` writes.
* :class:`ConsoleSummaryExporter` — a compact human table of counters,
  gauges, and histogram summaries on stdout (or any stream).

Every record in the stream carries the schema triplet ``type`` (alias
of ``kind``), ``name``, and ``ts`` (UNIX seconds stamped at export
time), so downstream log pipelines can route records without knowing
the per-kind payloads.

A custom exporter is anything with ``export(registry)``; build it on
:meth:`repro.obs.registry.MetricsRegistry.snapshot`, ``registry.trace``
and ``registry.events`` (see docs/OBSERVABILITY.md for a worked
example).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict
from typing import IO, Iterable, Iterator, Protocol

from .registry import MetricsRegistry, RegistrySnapshot


class Exporter(Protocol):
    """The exporter interface: consume one registry, produce output."""

    def export(self, registry: MetricsRegistry) -> None:
        """Emit everything currently recorded in ``registry``."""
        ...


def iter_records(
    registry: MetricsRegistry,
) -> Iterator[dict[str, object]]:
    """Flatten a registry into ``kind``-tagged plain-dict records.

    The shared record stream behind the in-memory and JSON-lines
    exporters; order is counters, gauges, histograms (each
    name-sorted), then spans and events in completion order.  All
    records of one export share a single ``ts`` stamp (the export is a
    snapshot, not a replay of when each value was written).
    """
    ts = time.time()

    def _stamp(
        kind: str, name: object, payload: dict[str, object]
    ) -> dict[str, object]:
        return {
            "kind": kind,
            "type": kind,
            "name": name,
            "ts": ts,
            **payload,
        }

    snapshot = registry.snapshot()
    for name, value in snapshot["counters"].items():  # type: ignore[union-attr]
        yield _stamp("counter", name, {"value": value})
    for name, value in snapshot["gauges"].items():  # type: ignore[union-attr]
        yield _stamp("gauge", name, {"value": value})
    for name, stats in snapshot["histograms"].items():  # type: ignore[union-attr]
        yield _stamp("histogram", name, dict(stats))
    for record in registry.trace:
        span = asdict(record)
        yield _stamp("span", span["path"], span)
    for event in registry.events:
        yield _stamp("event", event.get("name", ""), dict(event))


def snapshot_record(
    snapshot: RegistrySnapshot, ts: float | None = None
) -> dict[str, object]:
    """One ``kind="snapshot"`` record for a worker registry snapshot.

    Carries the full :meth:`~RegistrySnapshot.to_dict` payload under the
    same ``type`` / ``name`` / ``ts`` routing triplet as every other
    record (``name`` is the snapshot's worker id, empty for the parent).
    """
    return {
        "kind": "snapshot",
        "type": "snapshot",
        "name": snapshot.worker_id or "",
        "ts": time.time() if ts is None else ts,
        **snapshot.to_dict(),
    }


def write_span_trace(
    destination: str | IO[str], registry: MetricsRegistry
) -> int:
    """Append the registry's span trace as JSON lines; returns count.

    A span-only export (``kind="span"`` records, same schema as the
    full :class:`JsonLinesExporter` stream) sized for trace artifacts:
    ``python -m repro traceview --trace-file`` reads exactly this
    shape, as does the CI trace upload.
    """
    ts = time.time()
    records = []
    for record in registry.trace:
        span = asdict(record)
        records.append(
            {
                "kind": "span",
                "type": "span",
                "name": span["path"],
                "ts": ts,
                **span,
            }
        )
    if hasattr(destination, "write"):
        _write_lines(destination, records)  # type: ignore[arg-type]
    else:
        with open(destination, "a", encoding="utf-8") as handle:  # type: ignore[arg-type]
            _write_lines(handle, records)
    return len(records)


class InMemoryExporter:
    """Collects the record stream on ``self.records``."""

    def __init__(self) -> None:
        self.records: list[dict[str, object]] = []

    def export(self, registry: MetricsRegistry) -> None:
        self.records.extend(iter_records(registry))

    def export_snapshot(self, snapshot: RegistrySnapshot) -> None:
        """Collect one worker snapshot as a ``snapshot`` record."""
        self.records.append(snapshot_record(snapshot))

    def of_kind(self, kind: str) -> list[dict[str, object]]:
        """The collected records of one ``kind``, in export order."""
        return [r for r in self.records if r["kind"] == kind]


class JsonLinesExporter:
    """Writes the record stream as JSON lines to a path or stream.

    Given a path, the file is opened lazily in append mode on first
    :meth:`export` and kept open until :meth:`close`; the class is also
    a context manager, so the natural shape is::

        with JsonLinesExporter("metrics.jsonl") as exporter:
            ...
            exporter.export(registry)

    Given a file-like object, the exporter writes to it but never
    closes it (the caller owns its lifecycle).
    """

    def __init__(self, destination: str | IO[str]):
        self._destination = destination
        self._handle: IO[str] | None = None
        self._owns_handle = isinstance(destination, str)

    def _sink(self) -> IO[str]:
        if self._handle is None:
            if isinstance(self._destination, str):
                self._handle = open(
                    self._destination, "a", encoding="utf-8"
                )
            else:
                self._handle = self._destination
        return self._handle

    def export(self, registry: MetricsRegistry) -> None:
        sink = self._sink()
        _write_lines(sink, iter_records(registry))
        self.flush()

    def export_snapshot(self, snapshot: RegistrySnapshot) -> None:
        """Append one worker snapshot as a ``snapshot`` record."""
        _write_lines(self._sink(), [snapshot_record(snapshot)])
        self.flush()

    def flush(self) -> None:
        """Flush the underlying stream (no-op before the first write)."""
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        """Flush and, if this exporter opened the file, close it."""
        if self._handle is None:
            return
        self._handle.flush()
        if self._owns_handle:
            self._handle.close()
        self._handle = None

    def __enter__(self) -> "JsonLinesExporter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


#: JSON spellings of the non-finite floats (JSON itself has none).
_NONFINITE = {
    math.inf: "Infinity",
    -math.inf: "-Infinity",
}


def _json_safe(value: object) -> object:
    """Map non-finite floats onto round-trippable string sentinels.

    ``json.dumps`` would emit bare ``NaN`` / ``Infinity`` — *invalid*
    JSON that strict parsers reject — so non-finite floats are encoded
    as the strings ``"NaN"`` / ``"Infinity"`` / ``"-Infinity"``
    instead (:func:`decode_value` restores them).  Containers are
    converted recursively.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return _NONFINITE.get(value, "NaN")
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return value


def decode_value(value: object) -> object:
    """Inverse of :func:`_json_safe` for scalar fields."""
    if value == "NaN":
        return math.nan
    if value == "Infinity":
        return math.inf
    if value == "-Infinity":
        return -math.inf
    return value


def _write_lines(
    sink: IO[str], records: Iterable[dict[str, object]]
) -> None:
    for record in records:
        safe = {key: _json_safe(value) for key, value in record.items()}
        sink.write(json.dumps(safe, default=str) + "\n")


class ConsoleSummaryExporter:
    """Prints a human-readable end-of-run summary."""

    def __init__(self, stream: IO[str] | None = None):
        self._stream = stream

    def export(self, registry: MetricsRegistry) -> None:
        print(self.render(registry), file=self._stream)

    def render(self, registry: MetricsRegistry) -> str:
        """The summary as a string (exposed for tests)."""
        snapshot = registry.snapshot()
        lines = ["metrics summary", "==============="]
        counters = snapshot["counters"]
        gauges = snapshot["gauges"]
        histograms = snapshot["histograms"]
        if counters:
            lines.append("counters:")
            width = max(len(name) for name in counters)  # type: ignore[arg-type]
            for name, value in counters.items():  # type: ignore[union-attr]
                lines.append(f"  {name:<{width}}  {value:,}")
        if gauges:
            lines.append("gauges:")
            width = max(len(name) for name in gauges)  # type: ignore[arg-type]
            for name, value in gauges.items():  # type: ignore[union-attr]
                lines.append(f"  {name:<{width}}  {value:,.3f}")
        if histograms:
            lines.append(
                "histograms (count / mean / std / min / max):"
            )
            width = max(len(name) for name in histograms)  # type: ignore[arg-type]
            for name, stats in histograms.items():  # type: ignore[union-attr]
                lines.append(
                    f"  {name:<{width}}  {stats['count']:,} / "
                    f"{stats['mean']:.4g} / {stats['std']:.4g} / "
                    f"{stats['min']:.4g} / {stats['max']:.4g}"
                )
        if not (counters or gauges or histograms):
            lines.append("(no metrics recorded)")
        return "\n".join(lines)
