"""Nested-timing spans: experiment -> cell -> round -> slot-batch.

A :class:`Span` measures one timed region and knows its place in the
nesting: the registry keeps a stack of open spans, so a span opened
while another is active records a dotted path like
``experiment.cell.round``.  Completed spans become immutable
:class:`SpanRecord` rows in the registry's trace, and every span also
feeds a histogram named ``span.<path>.seconds`` — so exporters get both
the individual timeline and the aggregate timing distribution.

Spans are context managers::

    with registry.span("experiment"):
        with registry.span("cell", n=10_000):
            ...

The trace is bounded (:attr:`repro.obs.registry.MetricsRegistry.max_trace`);
once full, further records are dropped and counted in the
``obs.spans.dropped`` counter rather than growing without limit —
per-round spans in a million-round run must not become the new hot path.

The batched engines open one span per :data:`KERNEL_PHASES` entry per
cell, so "where did a cell's time go" is read from the same
``span.<path>.seconds`` histograms as every other timing;
:func:`write_phase_json` sums them per phase (the CLI's
``--profile-out``).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from types import TracebackType
from typing import TYPE_CHECKING

from .tracectx import current_trace, reset_trace_context, set_trace_context

if TYPE_CHECKING:
    from .registry import MetricsRegistry

#: The batched-kernel phases, in pipeline order: the reader's path and
#: seed draws, the tags' hashing and answers, the per-repetition
#: reductions (slot counts, histograms, traces), and the Eq. 14
#: inversions that turn statistics into ``n_hat``.
KERNEL_PHASES = (
    "seed_matrix",
    "hash_passes",
    "reduction",
    "finalize",
)


@dataclass(frozen=True)
class SpanRecord:
    """One completed timed region.

    Attributes
    ----------
    name:
        The span's own label (``"cell"``).
    path:
        Dot-joined ancestry including the name (``"experiment.cell"``).
    start:
        ``time.perf_counter()`` at entry — a monotonic offset, useful
        for ordering and gaps, not a wall-clock date.
    seconds:
        Duration of the region.
    attributes:
        Free-form key/value context given at :meth:`Span.__init__`
        (population size, rounds, ...).
    trace_id / span_id / parent_id:
        Distributed-trace identity (see :mod:`repro.obs.tracectx`);
        all ``None`` when the span ran without an active
        :class:`~repro.obs.tracectx.TraceContext`.
    """

    name: str
    path: str
    start: float
    seconds: float
    attributes: dict[str, object] = field(default_factory=dict)
    trace_id: str | None = None
    span_id: str | None = None
    parent_id: str | None = None


class Span:
    """A timed region; created via ``registry.span(name, **attributes)``.

    When a :class:`~repro.obs.tracectx.TraceContext` is active on entry
    the span claims a child context (new span id, parent = enclosing
    span), installs it for the body, and stamps the resulting
    :class:`SpanRecord` with the ids — so nesting ``with`` spans builds
    the same parent/child tree in the trace ids as in the dotted paths.
    """

    __slots__ = (
        "name",
        "attributes",
        "_registry",
        "_start",
        "path",
        "trace_id",
        "span_id",
        "parent_id",
        "_token",
    )

    def __init__(self, registry: object, name: str, **attributes: object):
        self.name = name
        self.attributes = attributes
        self._registry = registry
        self._start = 0.0
        self.path = name
        self.trace_id: str | None = None
        self.span_id: str | None = None
        self.parent_id: str | None = None
        self._token: object | None = None

    def __enter__(self) -> "Span":
        registry = self._registry
        stack = registry._span_stack  # type: ignore[attr-defined]
        if stack:
            self.path = f"{stack[-1].path}.{self.name}"
        stack.append(self)
        context = current_trace()
        if context is not None:
            mine = context.child()
            self.trace_id = mine.trace_id
            self.span_id = mine.span_id
            self.parent_id = mine.parent_id
            self._token = set_trace_context(mine)
        self._start = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        traceback: TracebackType | None,
    ) -> None:
        seconds = time.perf_counter() - self._start
        registry = self._registry
        stack = registry._span_stack  # type: ignore[attr-defined]
        if stack and stack[-1] is self:
            stack.pop()
        if self._token is not None:
            reset_trace_context(self._token)
            self._token = None
        registry._finish_span(  # type: ignore[attr-defined]
            SpanRecord(
                name=self.name,
                path=self.path,
                start=self._start,
                seconds=seconds,
                attributes=dict(self.attributes),
                trace_id=self.trace_id,
                span_id=self.span_id,
                parent_id=self.parent_id,
            )
        )


class NullSpan:
    """Do-nothing span handed out by the null registry."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


#: Shared no-op span instance (spans carry no per-use state when null).
NULL_SPAN = NullSpan()


def write_phase_json(
    path: str,
    registry: "MetricsRegistry",
    extra: "dict[str, object] | None" = None,
) -> None:
    """Write per-phase wall-time totals to ``path`` as JSON.

    Sums every ``span.<path>.seconds`` histogram whose last path segment
    names a :data:`KERNEL_PHASES` entry, whatever spans enclose it
    (``cell``, ``sweep.cell``, ``grid``).  Worker registries merge into
    the parent's, so after a parallel sweep this is the cross-process
    total.
    """
    phases: dict[str, list[float]] = {}
    for name, stats in registry.snapshot()["histograms"].items():
        if not (name.startswith("span.") and name.endswith(".seconds")):
            continue
        phase = name[: -len(".seconds")].rsplit(".", 1)[-1]
        if phase in KERNEL_PHASES:
            row = phases.setdefault(phase, [0.0, 0])
            row[0] += float(stats["total"])
            row[1] += int(stats["count"])
    total = sum(seconds for seconds, _ in phases.values())
    payload: dict[str, object] = {
        "total_seconds": round(total, 6),
        "phases": {
            phase: {
                "seconds": round(seconds, 6),
                "calls": int(calls),
                "fraction": round(seconds / total, 4) if total > 0 else 0.0,
            }
            for phase, (seconds, calls) in sorted(phases.items())
        },
    }
    if extra:
        payload.update(extra)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
