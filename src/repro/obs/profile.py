"""Phase profiler: where do batched-kernel cells spend their time?

The batched engines (:mod:`repro.sim.batched`,
:mod:`repro.sim.protocol_batched`) execute each cell as a short
pipeline of array passes.  :class:`PhaseProfiler` wraps those passes in
named wall-time (and optionally allocation) sampling contexts:

* ``seed_matrix`` — seed-tree spawn and the per-repetition word draws;
* ``hash_passes`` — population build, code hashing, and the gray-depth
  / sufficient-statistic matrix passes;
* ``reduction`` — slot-table lookups, bincounts, and the metric
  reductions;
* ``finalize`` — the estimator inversions that turn statistics into
  ``n_hat``.

Instrumented kernels resolve their profiler as::

    profiler = (registry.profiler if registry else None) or NULL_PROFILER
    with profiler.phase("seed_matrix"):
        ...

so the unattached path costs one shared no-op context manager per
phase.  Attaching a profiler never changes a cell's estimates, and a
profiled cell reports every :data:`KERNEL_PHASES` entry
(``tests/obs/test_profile.py::TestProfiledCell``).  Each phase exit
also feeds a
``profile.<phase>.seconds`` histogram on the attached registry, which
rides the ordinary export surface: OpenMetrics via ``--prom-out``,
JSON lines via ``--metrics-out``, and cross-process aggregation via
:meth:`~repro.obs.registry.MetricsRegistry.merge`.  The standalone
JSON artifact (CLI ``--profile-out``) comes from
:meth:`PhaseProfiler.write_json`.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Iterator

from .registry import MetricsRegistry

#: The canonical batched-kernel phases, in pipeline order.  Profilers
#: accept any name, but these are the ones the engines emit and the
#: tests assert on.
KERNEL_PHASES = (
    "seed_matrix",
    "hash_passes",
    "reduction",
    "finalize",
)


class PhaseStats:
    """Accumulated wall time / calls / allocations for one phase."""

    __slots__ = ("name", "seconds", "calls", "alloc_bytes")

    def __init__(self, name: str):
        self.name = name
        self.seconds = 0.0
        self.calls = 0
        self.alloc_bytes = 0


class PhaseProfiler:
    """Low-overhead accumulating profiler for named code phases.

    Parameters
    ----------
    registry:
        When given, every phase exit observes its duration into the
        registry's ``profile.<phase>.seconds`` histogram (so profiles
        survive snapshot/merge and appear in every exporter).
    track_alloc:
        Sample net allocations per phase with :mod:`tracemalloc`.
        Allocation tracking is *much* more expensive than the wall-time
        sampling (tracemalloc hooks every allocation), so it is off by
        default.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        track_alloc: bool = False,
    ):
        self.phases: dict[str, PhaseStats] = {}
        self.track_alloc = track_alloc
        self._registry = registry
        self._started_tracemalloc = False
        if track_alloc:
            import tracemalloc

            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._started_tracemalloc = True

    def __bool__(self) -> bool:
        return True

    def stats(self, name: str) -> PhaseStats:
        """The named phase's accumulator, created on first use."""
        stats = self.phases.get(name)
        if stats is None:
            stats = self.phases[name] = PhaseStats(name)
        return stats

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time (and optionally allocation-sample) the body."""
        if self.track_alloc:
            import tracemalloc

            alloc_before = tracemalloc.get_traced_memory()[0]
        start = time.perf_counter()
        try:
            yield
        finally:
            seconds = time.perf_counter() - start
            stats = self.stats(name)
            stats.seconds += seconds
            stats.calls += 1
            if self.track_alloc:
                alloc_after = tracemalloc.get_traced_memory()[0]
                stats.alloc_bytes += max(alloc_after - alloc_before, 0)
            registry = self._registry
            if registry is not None:
                registry.histogram(f"profile.{name}.seconds").observe(
                    seconds
                )

    @property
    def total_seconds(self) -> float:
        """Wall time accumulated across every phase."""
        return sum(stats.seconds for stats in self.phases.values())

    def report(self) -> dict[str, dict[str, float]]:
        """Per-phase totals plus each phase's fraction of the whole."""
        total = self.total_seconds
        return {
            name: {
                "seconds": stats.seconds,
                "calls": stats.calls,
                "fraction": (
                    stats.seconds / total if total > 0 else 0.0
                ),
                "alloc_bytes": stats.alloc_bytes,
            }
            for name, stats in sorted(self.phases.items())
        }

    def write_json(
        self, path: str, extra: dict[str, object] | None = None
    ) -> None:
        """Write the report (plus caller context) as a JSON artifact."""
        payload: dict[str, object] = {
            "total_seconds": round(self.total_seconds, 6),
            "track_alloc": self.track_alloc,
            "phases": {
                name: {
                    "seconds": round(row["seconds"], 6),
                    "calls": int(row["calls"]),
                    "fraction": round(row["fraction"], 4),
                    "alloc_bytes": int(row["alloc_bytes"]),
                }
                for name, row in self.report().items()
            },
        }
        if extra:
            payload.update(extra)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")

    def close(self) -> None:
        """Stop tracemalloc if this profiler was the one to start it."""
        if self._started_tracemalloc:
            import tracemalloc

            tracemalloc.stop()
            self._started_tracemalloc = False


class _NullPhaseContext:
    """Shared reusable no-op context manager (one per process)."""

    __slots__ = ()

    def __enter__(self) -> "_NullPhaseContext":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


class NullPhaseProfiler:
    """Do-nothing profiler; what unattached kernels run against.

    Falsy (like the null registry) so code can gate optional extra work
    with ``if profiler:`` while the hot path stays a single shared
    no-op context manager.
    """

    _NULL_CONTEXT = _NullPhaseContext()

    def __bool__(self) -> bool:
        return False

    def phase(self, name: str) -> _NullPhaseContext:  # noqa: ARG002
        return self._NULL_CONTEXT


#: The process-wide shared no-op profiler.
NULL_PROFILER = NullPhaseProfiler()


def active_profiler(
    registry: MetricsRegistry | None,
) -> "PhaseProfiler | NullPhaseProfiler":
    """The profiler attached to ``registry``, or the shared no-op one."""
    profiler = registry.profiler if registry else None
    return profiler if profiler is not None else NULL_PROFILER  # type: ignore[return-value]


#: Registry histogram names carrying phase timings look like this.
_PHASE_HISTOGRAM_PREFIX = "profile."
_PHASE_HISTOGRAM_SUFFIX = ".seconds"


def registry_phase_report(
    registry: MetricsRegistry,
) -> dict[str, dict[str, float]]:
    """Per-phase totals reconstructed from ``profile.*.seconds``.

    The profiler mirrors every phase exit into the registry, and those
    histograms survive :meth:`~MetricsRegistry.snapshot` /
    :meth:`~MetricsRegistry.merge` — so after a parallel sweep the
    *registry* is the authoritative cross-process source of phase
    timings, while each profiler object only saw its own process.
    Allocation totals are process-local and reported as 0 here.
    """
    report: dict[str, dict[str, float]] = {}
    snapshot = registry.snapshot()
    histograms = snapshot["histograms"]
    total = 0.0
    for name, stats in histograms.items():  # type: ignore[union-attr]
        if not (
            name.startswith(_PHASE_HISTOGRAM_PREFIX)
            and name.endswith(_PHASE_HISTOGRAM_SUFFIX)
        ):
            continue
        phase = name[
            len(_PHASE_HISTOGRAM_PREFIX) : -len(_PHASE_HISTOGRAM_SUFFIX)
        ]
        report[phase] = {
            "seconds": float(stats["total"]),
            "calls": int(stats["count"]),
            "alloc_bytes": 0,
        }
        total += float(stats["total"])
    for row in report.values():
        row["fraction"] = row["seconds"] / total if total > 0 else 0.0
    return dict(sorted(report.items()))


def write_phase_json(
    path: str,
    registry: MetricsRegistry,
    profiler: "PhaseProfiler | None" = None,
    extra: dict[str, object] | None = None,
) -> None:
    """Write the registry-derived phase report as a JSON artifact.

    When the (parent-process) ``profiler`` is given, its allocation
    totals are grafted onto the matching phases — wall times still come
    from the registry, which has the merged cross-process view.
    """
    report = registry_phase_report(registry)
    if profiler is not None:
        for name, stats in profiler.phases.items():
            if name in report:
                report[name]["alloc_bytes"] = stats.alloc_bytes
    total = sum(row["seconds"] for row in report.values())
    payload: dict[str, object] = {
        "total_seconds": round(total, 6),
        "track_alloc": bool(profiler and profiler.track_alloc),
        "phases": {
            name: {
                "seconds": round(row["seconds"], 6),
                "calls": int(row["calls"]),
                "fraction": round(row["fraction"], 4),
                "alloc_bytes": int(row["alloc_bytes"]),
            }
            for name, row in report.items()
        },
    }
    if extra:
        payload.update(extra)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
