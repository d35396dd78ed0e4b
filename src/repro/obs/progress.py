"""Live sweep progress: ETA, throughput, and a status line.

Large sweeps (Fig. 4's 24 cells x 300 repetitions, the table-3
comparison grid) can run for minutes with no output at all.
:class:`ProgressTracker` is the missing feedback loop: the sweep ticks
it with :meth:`ProgressTracker.cell_done` as each cell finishes — in
the serial loop, or in the parent as each worker's future completes
(a finished cell's future is its heartbeat) — and it renders a
throttled single-line terminal status with per-cell throughput and
ETA, mirrored into ``sweep.progress.*`` gauges so exporters and
Prometheus scrapes see the same numbers.

Progress is *display-only* state: nothing here touches seeds or
results, and the ``sweep.progress.*`` gauges are excluded from the
serial-vs-parallel parity contract (see
:func:`repro.obs.registry.parity_view`).
"""

from __future__ import annotations

import os
import time
from typing import IO, Callable

from .registry import MetricsRegistry, get_registry

#: Minimum seconds between two terminal renders: keeps a
#: thousand-cell sweep from melting the terminal.
DEFAULT_THROTTLE_SECONDS = 0.25


def default_worker_id() -> str:
    """The conventional worker identity tag: ``pid:<os.getpid()>``."""
    return f"pid:{os.getpid()}"


class ProgressTracker:
    """Parent-side progress aggregation, rendering, and gauges.

    Parameters
    ----------
    total_cells:
        Number of cells the sweep will run (the ETA denominator).
    registry:
        Receives the ``sweep.progress.*`` gauges; defaults to the
        process-wide active registry (no-op when null).
    stream:
        Where the status line goes; ``None`` disables rendering (the
        gauges and aggregates still update).
    min_interval:
        Minimum seconds between two renders (final render is always
        emitted).
    clock:
        Injectable time source for tests (defaults to
        ``time.monotonic``).
    """

    def __init__(
        self,
        total_cells: int,
        registry: MetricsRegistry | None = None,
        stream: IO[str] | None = None,
        min_interval: float = DEFAULT_THROTTLE_SECONDS,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.total_cells = total_cells
        self.registry = (
            registry if registry is not None else get_registry()
        )
        self.stream = stream
        self.min_interval = min_interval
        self._clock = clock
        self._start = clock()
        self._last_render = -float("inf")
        self.cells_done = 0
        self.slots_done = 0
        self.rounds_done = 0
        self.current_n: int | None = None

    # -- aggregate properties --------------------------------------------

    @property
    def elapsed_seconds(self) -> float:
        """Wall-clock seconds since the tracker was created."""
        return max(self._clock() - self._start, 0.0)

    @property
    def cells_per_second(self) -> float:
        """Finished-cell throughput so far (0 before the first cell)."""
        elapsed = self.elapsed_seconds
        if elapsed <= 0 or self.cells_done == 0:
            return 0.0
        return self.cells_done / elapsed

    @property
    def eta_seconds(self) -> float:
        """Estimated seconds to completion (inf before the first cell)."""
        rate = self.cells_per_second
        if rate <= 0:
            return float("inf")
        return max(self.total_cells - self.cells_done, 0) / rate

    @property
    def fraction_done(self) -> float:
        """Completed fraction in [0, 1] (1.0 for an empty sweep)."""
        if self.total_cells <= 0:
            return 1.0
        return min(self.cells_done / self.total_cells, 1.0)

    # -- feeding the tracker ---------------------------------------------

    def cell_done(
        self,
        n: int | None = None,
        slots: int = 0,
        rounds: int = 0,
    ) -> None:
        """Count one finished cell and render."""
        self.cells_done += 1
        self.slots_done += slots
        self.rounds_done += rounds
        if n is not None:
            self.current_n = n
        self._update_gauges()
        self.render()

    # -- output ----------------------------------------------------------

    def _update_gauges(self) -> None:
        registry = self.registry
        if not registry:
            return
        registry.gauge("sweep.progress.cells_total").set(
            self.total_cells
        )
        registry.gauge("sweep.progress.cells_done").set(self.cells_done)
        registry.gauge("sweep.progress.fraction").set(
            self.fraction_done
        )
        registry.gauge("sweep.progress.slots_done").set(self.slots_done)
        registry.gauge("sweep.progress.cells_per_second").set(
            self.cells_per_second
        )
        eta = self.eta_seconds
        if eta != float("inf"):
            registry.gauge("sweep.progress.eta_seconds").set(eta)

    def status_line(self) -> str:
        """The current one-line progress summary."""
        parts = [
            f"sweep {self.cells_done}/{self.total_cells} cells",
            f"{self.fraction_done:6.1%}",
        ]
        rate = self.cells_per_second
        if rate > 0:
            parts.append(f"{rate:.2f} cells/s")
            parts.append(f"eta {_format_eta(self.eta_seconds)}")
        if self.slots_done:
            parts.append(f"{self.slots_done:,} slots")
        if self.current_n is not None:
            parts.append(f"n={self.current_n:,}")
        return "  ".join(parts)

    def render(self, force: bool = False) -> None:
        """Write the throttled status line (no-op without a stream)."""
        if self.stream is None:
            return
        now = self._clock()
        if not force and now - self._last_render < self.min_interval:
            return
        self._last_render = now
        self.stream.write("\r\x1b[2K" + self.status_line())
        self.stream.flush()

    def finish(self) -> None:
        """Final render plus the newline that releases the status line."""
        self._update_gauges()
        if self.stream is None:
            return
        self.render(force=True)
        self.stream.write("\n")
        self.stream.flush()


def _format_eta(seconds: float) -> str:
    """Compact ``1h02m``/``3m20s``/``12.5s`` ETA formatting."""
    if seconds == float("inf"):
        return "?"
    if seconds >= 3600:
        hours, rem = divmod(int(seconds), 3600)
        return f"{hours}h{rem // 60:02d}m"
    if seconds >= 60:
        minutes, rem = divmod(int(seconds), 60)
        return f"{minutes}m{rem:02d}s"
    return f"{seconds:.1f}s"
