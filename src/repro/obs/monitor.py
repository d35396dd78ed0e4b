"""Continuous cardinality monitoring, wired into the obs event stream.

The paper positions PET for one-shot estimation; real deployments
(dock doors, conveyor portals, exhibition halls) re-estimate
continuously and want to know *when the population changed*, not just
how big it is.  This module builds that layer:

* :class:`CardinalityMonitor` ingests a stream of per-epoch estimates,
  maintains an exponentially-weighted mean and deviation, and flags
  epochs whose estimate departs from the running mean by more than a
  configurable number of standard errors.  Every flagged epoch is also
  emitted as a ``monitor.drift`` event through the monitor's registry
  (the process-wide active registry by default — a no-op until a real
  one is installed) and counted in ``monitor.drift.alerts``, so drift
  shows up in the same exporters as everything else;
* :func:`monitor_population` wires the monitor to a finished estimate
  stream, and :func:`simulate_monitoring` to a simulator factory, so
  dynamic-population scenarios can be tracked end to end.

The detector is deliberately simple (EWMA + z-score) — the point is the
protocol integration, and the false-positive rate is controlled by the
same normal-tail arithmetic as the paper's Eq. 17.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

from ..core.accuracy import SIGMA_H, confidence_scale
from ..errors import ConfigurationError
from .registry import MetricsRegistry, get_registry


@dataclass(frozen=True)
class EpochReport:
    """The monitor's verdict for one epoch.

    Attributes
    ----------
    epoch:
        Epoch index.
    estimate:
        The epoch's cardinality estimate.
    smoothed:
        EWMA of the estimates *before* folding this epoch in.
    z_score:
        Standardized departure of this epoch from the running mean
        (``nan`` during warm-up).
    changed:
        Whether the detector flagged a population change.
    """

    epoch: int
    estimate: float
    smoothed: float
    z_score: float
    changed: bool


class CardinalityMonitor:
    """EWMA change detector over a stream of PET estimates.

    Parameters
    ----------
    rounds_per_epoch:
        PET rounds backing each estimate — sets the expected relative
        standard error ``ln2 * sigma_h / sqrt(m)`` of a single epoch.
    alpha:
        EWMA smoothing factor in ``(0, 1]``; higher = more reactive.
    delta:
        Target false-positive rate per epoch; converted to a z
        threshold with the paper's Eq. 17 machinery.
    warmup_epochs:
        Epochs consumed before change detection arms.
    registry:
        Registry that receives ``monitor.drift`` events and the
        ``monitor.drift.alerts`` counter; defaults to the process-wide
        active registry at construction time.
    """

    def __init__(
        self,
        rounds_per_epoch: int,
        alpha: float = 0.3,
        delta: float = 0.01,
        warmup_epochs: int = 3,
        registry: MetricsRegistry | None = None,
    ):
        if rounds_per_epoch < 1:
            raise ConfigurationError(
                f"rounds_per_epoch must be >= 1, got {rounds_per_epoch}"
            )
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError(
                f"alpha must lie in (0, 1], got {alpha!r}"
            )
        if warmup_epochs < 1:
            raise ConfigurationError(
                f"warmup_epochs must be >= 1, got {warmup_epochs}"
            )
        self._alpha = alpha
        self._threshold = confidence_scale(delta)
        self._warmup = warmup_epochs
        self._registry = (
            registry if registry is not None else get_registry()
        )
        #: Expected relative std of one epoch's estimate.
        self.epoch_relative_std = (
            math.log(2.0) * SIGMA_H / math.sqrt(rounds_per_epoch)
        )
        self._smoothed: float | None = None
        self._epoch = 0
        self.reports: list[EpochReport] = []

    @property
    def smoothed(self) -> float | None:
        """Current EWMA of the estimates (None before the first)."""
        return self._smoothed

    def observe(self, estimate: float) -> EpochReport:
        """Ingest one epoch's estimate; returns the verdict."""
        if estimate <= 0:
            raise ConfigurationError(
                f"estimates must be positive, got {estimate!r}"
            )
        previous = self._smoothed
        if previous is None:
            z_score = float("nan")
            changed = False
            self._smoothed = estimate
        else:
            sigma = self.epoch_relative_std * previous
            z_score = (estimate - previous) / sigma if sigma else 0.0
            changed = (
                self._epoch >= self._warmup
                and abs(z_score) > self._threshold
            )
            if changed:
                # Re-anchor on the new level rather than averaging
                # across the change point.
                self._smoothed = estimate
            else:
                self._smoothed = (
                    self._alpha * estimate
                    + (1.0 - self._alpha) * previous
                )
        report = EpochReport(
            epoch=self._epoch,
            estimate=estimate,
            smoothed=previous if previous is not None else estimate,
            z_score=z_score,
            changed=changed,
        )
        self.reports.append(report)
        if changed:
            registry = self._registry
            registry.counter("monitor.drift.alerts").inc()
            registry.event(
                "monitor.drift",
                epoch=report.epoch,
                estimate=report.estimate,
                smoothed=report.smoothed,
                z_score=report.z_score,
            )
        self._epoch += 1
        return report

    @property
    def change_epochs(self) -> list[int]:
        """Epochs at which a change was flagged."""
        return [r.epoch for r in self.reports if r.changed]


class HeartbeatMonitor:
    """EWMA stall detector over per-shard heartbeat arrivals.

    The sharded router's watchdog feeds it two signals: every
    heartbeat's inter-arrival gap (:meth:`beat`) and, whenever health
    is evaluated, the current age of each shard's last heartbeat
    (:meth:`check`).  The gaps are EWMA-smoothed — the same machinery
    :class:`CardinalityMonitor` applies to estimates — so the stall
    threshold adapts to the cadence a loaded worker *actually*
    sustains rather than the configured interval alone: a shard is
    stalled when its heartbeat age exceeds ``misses`` times the larger
    of the smoothed gap and the nominal interval.

    Alerts are edge-triggered: one ``fleet.stall`` event and one
    ``fleet.stall.alerts`` count per outage, with a
    ``fleet.stall.recovered`` event when the shard beats again — the
    idiom the drift monitor uses, so stalls land in the same exporters
    and event stream as every other alert.
    """

    def __init__(
        self,
        interval: float,
        misses: int = 2,
        alpha: float = 0.3,
        registry: MetricsRegistry | None = None,
    ):
        if interval <= 0:
            raise ConfigurationError(
                f"interval must be > 0, got {interval}"
            )
        if misses < 1:
            raise ConfigurationError(
                f"misses must be >= 1, got {misses}"
            )
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError(
                f"alpha must lie in (0, 1], got {alpha!r}"
            )
        self.interval = interval
        self.misses = misses
        self._alpha = alpha
        self._registry = (
            registry if registry is not None else get_registry()
        )
        self._smoothed_gap: dict[int, float] = {}
        self._alerting: set[int] = set()

    def beat(self, shard: int, gap: float) -> None:
        """Feed one observed inter-arrival gap for ``shard``."""
        previous = self._smoothed_gap.get(shard)
        self._smoothed_gap[shard] = (
            gap
            if previous is None
            else self._alpha * gap + (1.0 - self._alpha) * previous
        )
        if shard in self._alerting:
            self._alerting.discard(shard)
            self._registry.event(
                "fleet.stall.recovered", shard=shard, gap=gap
            )

    def threshold(self, shard: int) -> float:
        """Heartbeat age beyond which ``shard`` counts as stalled."""
        expected = max(
            self._smoothed_gap.get(shard, self.interval),
            self.interval,
        )
        return self.misses * expected

    def check(self, shard: int, age: float) -> bool:
        """Whether ``shard``'s heartbeat age marks it stalled (alerts
        once per outage)."""
        stalled = age > self.threshold(shard)
        if stalled and shard not in self._alerting:
            self._alerting.add(shard)
            registry = self._registry
            registry.counter("fleet.stall.alerts").inc()
            registry.event(
                "fleet.stall",
                shard=shard,
                age_seconds=age,
                threshold_seconds=self.threshold(shard),
                misses=self.misses,
            )
        return stalled

    @property
    def alerting(self) -> set[int]:
        """Shards currently inside an un-recovered stall alert."""
        return set(self._alerting)


def monitor_population(
    estimates: Iterable[float],
    rounds_per_epoch: int,
    **monitor_kwargs: object,
) -> list[EpochReport]:
    """Run a monitor over a finished estimate stream (convenience)."""
    monitor = CardinalityMonitor(
        rounds_per_epoch=rounds_per_epoch,
        **monitor_kwargs,  # type: ignore[arg-type]
    )
    return [monitor.observe(value) for value in estimates]


def simulate_monitoring(
    true_sizes: list[int],
    rounds_per_epoch: int,
    seed: int = 0,
    estimator_factory: Callable[[int, int], float] | None = None,
) -> list[EpochReport]:
    """Estimate each epoch's population and feed the monitor.

    Parameters
    ----------
    true_sizes:
        Ground-truth population size per epoch.
    rounds_per_epoch:
        PET rounds per estimate.
    estimator_factory:
        ``(n, epoch) -> estimate``; defaults to a sampled-tier PET
        estimation seeded from ``(seed, epoch)``.
    """
    import numpy as np

    from ..config import PetConfig
    from ..sim.sampled import SampledSimulator

    if estimator_factory is None:

        def estimator_factory(n: int, epoch: int) -> float:
            simulator = SampledSimulator(
                n,
                config=PetConfig(rounds=rounds_per_epoch),
                rng=np.random.default_rng((seed, epoch)),
            )
            return simulator.estimate().n_hat

    monitor = CardinalityMonitor(rounds_per_epoch=rounds_per_epoch)
    return [
        monitor.observe(estimator_factory(n, epoch))
        for epoch, n in enumerate(true_sizes)
    ]
