"""Framed slotted-Aloha identification with Q-adaptation.

The exact-counting baseline the paper's introduction argues *against*
for large populations: identify every tag, then count.  This is the
EPC-Gen2-style flavour — the reader opens a frame of ``2^Q`` slots, each
unidentified tag picks a uniform slot, singleton slots resolve one tag
each, and ``Q`` adapts toward the (load ~ 1) throughput optimum from the
observed idle/collision mix.

The simulation is slot-exact in cost accounting but vectorized in
execution: a frame's slot choices are drawn in one batch, singletons
are resolved set-wise, and the per-frame slot count (plus one Query
command slot) is charged.  Expected total cost is ``~ e * n`` slots —
linear in ``n``, the scaling PET escapes.
"""

from __future__ import annotations

import math

import numpy as np

from ..config import AccuracyRequirement
from ..core.accuracy import confidence_scale
from ..errors import ConfigurationError, EstimationError
from ..hashing import uniform_slot_matrix, uniform_slots
from ..tags.population import TagPopulation
from .base import (
    BatchedRoundEngine,
    CardinalityEstimatorProtocol,
    IdentificationResult,
    ProtocolResult,
)


#: Schoute's backlog estimate: each collision slot hides ~2.39 tags on
#: average at the throughput-optimal operating point.
SCHOUTE_FACTOR = 2.39


class FramedAlohaIdentification:
    """Framed slotted Aloha with Schoute backlog-driven frame sizing.

    After each frame the reader estimates the remaining backlog from
    the observed collision count (Schoute 1983: ``~2.39`` tags per
    collision slot) and sizes the next frame to match — the classic
    dynamic-frame Aloha policy underlying Gen2's Q adaptation, without
    Q's per-slot oscillation.  Total cost converges to ``~e * n`` slots.

    Parameters
    ----------
    initial_q:
        Starting frame exponent (frame size ``2^Q``).
    min_q, max_q:
        Clamp range for the frame exponent.
    max_frames:
        Safety valve against non-termination.
    """

    name = "Aloha-Q"

    def __init__(
        self,
        initial_q: int = 4,
        min_q: int = 0,
        max_q: int = 15,
        max_frames: int = 100_000,
    ):
        if not 0 <= min_q <= initial_q <= max_q <= 30:
            raise ConfigurationError(
                "need 0 <= min_q <= initial_q <= max_q <= 30"
            )
        self.initial_q = initial_q
        self.min_q = min_q
        self.max_q = max_q
        self.max_frames = max_frames

    def identify(
        self, population: TagPopulation, rng: np.random.Generator
    ) -> IdentificationResult:
        """Run frames until every tag is identified."""
        remaining = np.array(population.tag_ids, dtype=np.uint64)
        identified: list[int] = []
        total_slots = 0
        q = self.initial_q
        frames = 0
        while remaining.size > 0:
            frames += 1
            if frames > self.max_frames:
                raise ConfigurationError(
                    f"identification did not converge within "
                    f"{self.max_frames} frames"
                )
            frame_size = 1 << q
            total_slots += 1 + frame_size  # Query command + the frame
            choices = rng.integers(0, frame_size, size=remaining.size)
            _, inverse, counts = np.unique(
                choices, return_inverse=True, return_counts=True
            )
            is_singleton = counts[inverse] == 1
            identified.extend(int(t) for t in remaining[is_singleton])
            remaining = remaining[~is_singleton]

            collisions = int((counts >= 2).sum())
            backlog = max(SCHOUTE_FACTOR * collisions, 1.0)
            q = int(np.clip(round(np.log2(backlog)), self.min_q,
                            self.max_q))
        return IdentificationResult(
            protocol=self.name,
            identified=frozenset(identified),
            total_slots=total_slots,
        )

    def count(
        self, population: TagPopulation, rng: np.random.Generator
    ) -> tuple[int, int]:
        """Exact count via identification; returns ``(count, slots)``."""
        result = self.identify(population, rng)
        return result.count, result.total_slots


class AlohaEstimatorProtocol(CardinalityEstimatorProtocol):
    """Single-frame Schoute estimator: ``n_hat = S + 2.39 C`` per round.

    The estimation-flavoured cousin of :class:`FramedAlohaIdentification`
    (and Gen2's Q loop): open one fixed frame per round, count singleton
    slots ``S`` (one tag each) and collision slots ``C`` (~2.39 hidden
    tags each at the throughput-optimal load), and read the backlog
    estimate straight off.  At design load ``t = n/f = 1`` the statistic
    is essentially unbiased (``E[S + 2.39 C]/n = 0.9995``); the round
    planner prices its deviation from the multinomial slot-category
    covariances at that load.
    """

    name = "ALOHA"

    def __init__(self, frame_size: int = 1024):
        if frame_size < 1:
            raise ConfigurationError(
                f"frame_size must be >= 1, got {frame_size}"
            )
        self.frame_size = frame_size

    def slots_per_round(self) -> int:
        """One frame per round."""
        return self.frame_size

    def plan_rounds(self, requirement: AccuracyRequirement) -> int:
        """CLT planner on ``S + 2.39 C`` at design load ``t = 1``.

        Slot categories are multinomial-ish; with per-slot category
        probabilities ``p0 = e^-t`` (idle), ``p1 = t e^-t`` (singleton),
        ``p2 = 1 - p0 - p1`` (collision), the round statistic's variance
        is ``f (p1(1-p1) + 2.39^2 p2(1-p2) - 2*2.39 p1 p2)`` and its
        mean is ``~ f t``.
        """
        c = confidence_scale(requirement.delta)
        t = 1.0
        p0 = math.exp(-t)
        p1 = t * math.exp(-t)
        p2 = 1.0 - p0 - p1
        variance = self.frame_size * (
            p1 * (1.0 - p1)
            + SCHOUTE_FACTOR**2 * p2 * (1.0 - p2)
            - 2.0 * SCHOUTE_FACTOR * p1 * p2
        )
        relative_sigma = math.sqrt(variance) / (self.frame_size * t)
        rounds = (c * relative_sigma / requirement.epsilon) ** 2
        return max(1, math.ceil(rounds))

    def round_statistic(
        self, seed: int, population: TagPopulation
    ) -> float:
        """One frame's backlog reading ``S + 2.39 C``."""
        if population.size == 0:
            return 0.0
        slots = uniform_slots(
            seed, population.tag_ids, self.frame_size, population.family
        )
        counts = np.bincount(slots, minlength=self.frame_size)
        singletons = int((counts == 1).sum())
        collisions = int((counts >= 2).sum())
        return singletons + SCHOUTE_FACTOR * collisions

    def estimate_from_mean(self, mean_statistic: float) -> float:
        """The Schoute statistic estimates ``n`` directly."""
        return float(mean_statistic)

    def estimate_from_statistics(self, statistics: np.ndarray) -> float:
        """One run's estimate from its per-round ``S + 2.39 C`` readings.

        Raises :class:`~repro.errors.EstimationError` when every frame
        was all-collision (no idle and no singleton slot): the reading
        is then pinned at its ceiling ``2.39 f`` whatever ``n`` is, just
        as the zero estimators saturate when no slot is empty.  Every
        other frame reads at most ``2.39 f - 1.39`` (one collision slot
        traded for a singleton), so the per-round test below is exact
        without comparing floats for equality.
        """
        ceiling = SCHOUTE_FACTOR * self.frame_size
        if np.all(statistics > ceiling - 1.0):
            raise EstimationError(
                "every frame was all-collision: frame saturated; "
                "increase the frame size (ALOHA needs a prior "
                "magnitude of n)"
            )
        return self.estimate_from_mean(float(statistics.mean()))

    def estimate(
        self,
        population: TagPopulation,
        rounds: int,
        rng: np.random.Generator,
    ) -> ProtocolResult:
        if rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
        statistics = np.empty(rounds)
        for round_index in range(rounds):
            seed = int(rng.integers(0, 2**63))
            statistics[round_index] = self.round_statistic(
                seed, population
            )
        n_hat = self.estimate_from_statistics(statistics)
        return self._observe_result(
            ProtocolResult(
                protocol=self.name,
                n_hat=n_hat,
                rounds=rounds,
                total_slots=rounds * self.slots_per_round(),
                per_round_statistics=statistics,
            )
        )

    def estimate_sampled(
        self, n: int, rounds: int, rng: np.random.Generator
    ) -> ProtocolResult:
        """Law-exact Schoute sampling from the true size ``n``.

        The serve tier's degraded rung: draw each frame's slot counts
        as one ``Multinomial(n, uniform)`` throw instead of hashing
        every tag, then read ``S + 2.39 C`` off the categories.  Same
        statistic distribution as :meth:`estimate` at ``O(f)`` per
        round independent of ``n``, but different randomness
        consumption — results are not bit-identical.
        """
        if rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
        if n < 0:
            raise ConfigurationError(f"population size must be >= 0, got {n}")
        pvals = np.full(self.frame_size, 1.0 / self.frame_size)
        counts = rng.multinomial(int(n), pvals, size=rounds)
        singletons = (counts == 1).sum(axis=1)
        collisions = (counts >= 2).sum(axis=1)
        statistics = (
            singletons + SCHOUTE_FACTOR * collisions
        ).astype(np.float64)
        n_hat = self.estimate_from_statistics(statistics)
        return self._observe_result(
            ProtocolResult(
                protocol=self.name,
                n_hat=n_hat,
                rounds=rounds,
                total_slots=rounds * self.slots_per_round(),
                per_round_statistics=statistics,
            )
        )

    def batched_engine(self) -> "AlohaBatchedEngine":
        """ALOHA's vectorized cell executor (slot-category counts)."""
        return AlohaBatchedEngine(self)


class AlohaBatchedEngine(BatchedRoundEngine):
    """Whole-cell Schoute statistic via one offset bincount per chunk."""

    protocol: AlohaEstimatorProtocol

    def round_statistics(
        self, seeds: np.ndarray, population: TagPopulation
    ) -> np.ndarray:
        frame_size = self.protocol.frame_size
        if population.size == 0:
            return np.zeros(len(seeds))
        slots = uniform_slot_matrix(
            seeds, population.tag_ids, frame_size, population.family
        )
        rows = len(seeds)
        offsets = np.arange(rows, dtype=np.int64)[:, None] * frame_size
        counts = np.bincount(
            (slots + offsets).ravel(), minlength=rows * frame_size
        ).reshape(rows, frame_size)
        singletons = (counts == 1).sum(axis=1)
        collisions = (counts >= 2).sum(axis=1)
        return singletons + SCHOUTE_FACTOR * collisions

    def reduce(self, statistics: np.ndarray) -> float:
        return self.protocol.estimate_from_statistics(statistics)

    def work_per_seed(self, population: TagPopulation) -> int:
        return max(1, population.size + self.protocol.frame_size)
