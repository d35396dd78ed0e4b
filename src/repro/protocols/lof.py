"""LoF — Lottery-Frame estimation (Qian et al., PerCom 2008).

Each round the reader broadcasts a seed and opens a frame of ``B``
slots; every tag hashes itself to slot ``j`` with geometric probability
``2^-(j+1)`` (a "lottery": half the tags in slot 0, a quarter in slot 1,
...) and responds there.  The reader reads the whole frame — ``B`` slots
on air — and records the index ``R`` of the first *empty* slot, the
Flajolet-Martin statistic.  With

    E[R] ~ log2(kappa * n),   kappa = 0.77351...

(the FM bias constant), averaging ``R`` over ``m`` rounds and inverting
gives ``n_hat = 2^(R_bar) / kappa``.

Cost: ``B`` slots per round (the frame must be swept even after the
first empty slot, since later slots are needed in other rounds of the
original protocol's bitmap; we charge the full frame as the paper's
comparison does).  The per-round deviation ``sigma(R) ~ 1.12`` is
computed exactly from the (independent-bucket) PMF by the planner.
"""

from __future__ import annotations

import math

import numpy as np

from ..analysis.theory import lof_round_moments
from ..config import AccuracyRequirement
from ..core.accuracy import confidence_scale
from ..errors import ConfigurationError, EstimationError
from ..hashing import geometric_bucket_matrix, geometric_buckets
from ..hashing.geometric import geometric_pmf
from ..tags.population import TagPopulation
from .base import (
    BatchedRoundEngine,
    CardinalityEstimatorProtocol,
    ProtocolResult,
    SampledBatch,
)

#: Flajolet-Martin bias constant: E[R] ~ log2(KAPPA * n).
KAPPA = 0.77351

#: Default frame length: 32 geometric slots cover ~2^32 tags.
DEFAULT_FRAME_SLOTS = 32

#: Design cardinality at which the planner evaluates sigma(R); the
#: deviation is asymptotically flat in n (the FM periodic term only
#: wiggles it by ~1e-5).
_PLANNING_N = 50_000


class LofProtocol(CardinalityEstimatorProtocol):
    """Geometric (lottery) frame estimator with the FM statistic."""

    name = "LoF"

    def __init__(self, frame_slots: int = DEFAULT_FRAME_SLOTS):
        if frame_slots < 2:
            raise ConfigurationError(
                f"frame_slots must be >= 2, got {frame_slots}"
            )
        self.frame_slots = frame_slots

    def slots_per_round(self) -> int:
        """The full frame is swept each round."""
        return self.frame_slots

    def plan_rounds(self, requirement: AccuracyRequirement) -> int:
        """Same CLT argument as PET's Eq. 20, with sigma(R) for sigma."""
        c = confidence_scale(requirement.delta)
        sigma = lof_round_moments(_PLANNING_N, self.frame_slots).std
        lower = (-c * sigma / math.log2(1.0 - requirement.epsilon)) ** 2
        upper = (c * sigma / math.log2(1.0 + requirement.epsilon)) ** 2
        return max(1, math.ceil(max(lower, upper)))

    def first_empty_bucket(
        self, seed: int, population: TagPopulation
    ) -> int:
        """The round statistic ``R``: index of the first empty slot."""
        if population.size == 0:
            return 0
        buckets = geometric_buckets(
            seed,
            population.tag_ids,
            self.frame_slots - 1,
            population.family,
        )
        occupancy = np.bincount(buckets, minlength=self.frame_slots) > 0
        empty = np.flatnonzero(~occupancy)
        if empty.size == 0:
            return self.frame_slots
        return int(empty[0])

    def estimate_from_mean(self, mean_r: float) -> float:
        """Invert ``E[R] = log2(kappa n)`` at the observed mean."""
        if mean_r <= 0.0:
            raise EstimationError(
                "mean first-empty index is 0: population appears empty"
            )
        return 2.0**mean_r / KAPPA

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
            statistics[round_index] = self.first_empty_bucket(
                seed, population
            )
        n_hat = self.estimate_from_mean(float(statistics.mean()))
        return self._observe_result(
            ProtocolResult(
                protocol=self.name,
                n_hat=n_hat,
                rounds=rounds,
                total_slots=rounds * self.slots_per_round(),
                per_round_statistics=statistics,
            )
        )

    def round_statistic_pmf(self, n: int) -> np.ndarray:
        """Law of the round statistic ``R`` for ``n`` tags.

        Independent-bucket occupancy (the same approximation the round
        planner's :func:`~repro.analysis.theory.lof_round_moments`
        uses): bucket ``j`` is occupied with ``q_j = 1 - (1-p_j)^n``,
        and ``R = r`` requires buckets ``0..r-1`` occupied and bucket
        ``r`` empty, so ``P(R=r) = (prod_{j<r} q_j)(1 - q_r)`` with the
        all-occupied residual in ``R = frame_slots``.  Entries telescope
        to an exact sum of 1.
        """
        if n < 1:
            raise EstimationError(f"sampled LoF requires n >= 1, got {n}")
        occupancy = 1.0 - (1.0 - geometric_pmf(self.frame_slots - 1)) ** n
        tail = np.cumprod(occupancy)
        pmf = np.empty(self.frame_slots + 1)
        pmf[0] = 1.0 - tail[0]
        pmf[1 : self.frame_slots] = tail[:-1] - tail[1:]
        pmf[self.frame_slots] = tail[-1]
        return pmf

    def estimate_sampled(
        self, n: int, rounds: int, rng: np.random.Generator
    ) -> ProtocolResult:
        """Fast path: draw ``R`` from its law by inverse CDF.

        One uniform per round looked up in the CDF of
        :meth:`round_statistic_pmf` — no per-round multinomial or
        Python-level first-empty scan.  The historical multinomial
        sampler survives as :meth:`estimate_sampled_multinomial` and the
        test suite cross-checks the two distributions.
        """
        if rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
        cdf = np.cumsum(self.round_statistic_pmf(n))
        statistics = np.minimum(
            np.searchsorted(cdf, rng.random(rounds), side="right"),
            self.frame_slots,
        ).astype(np.float64)
        n_hat = self.estimate_from_mean(float(statistics.mean()))
        return self._observe_result(
            ProtocolResult(
                protocol=self.name,
                n_hat=n_hat,
                rounds=rounds,
                total_slots=rounds * self.slots_per_round(),
                per_round_statistics=statistics,
            )
        )

    def estimate_sampled_multinomial(
        self, n: int, rounds: int, rng: np.random.Generator
    ) -> ProtocolResult:
        """Reference sampler: multinomial bucket occupancy per round.

        Draws each round's per-bucket tag counts from the exact
        multinomial law of the geometric hash, then reads off the first
        empty bucket — identical in distribution to hashing ``n`` real
        tags.  Kept as the slow reference tier for
        :meth:`estimate_sampled`'s inverse-CDF law.
        """
        if n < 1:
            raise EstimationError(f"sampled LoF requires n >= 1, got {n}")
        if rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
        pmf = geometric_pmf(self.frame_slots - 1)
        counts = rng.multinomial(n, pmf, size=rounds)
        statistics = np.empty(rounds)
        for index in range(rounds):
            empty = np.flatnonzero(counts[index] == 0)
            statistics[index] = (
                float(empty[0]) if empty.size else float(self.frame_slots)
            )
        n_hat = self.estimate_from_mean(float(statistics.mean()))
        return self._observe_result(
            ProtocolResult(
                protocol=self.name,
                n_hat=n_hat,
                rounds=rounds,
                total_slots=rounds * self.slots_per_round(),
                per_round_statistics=statistics,
            )
        )

    def estimate_sampled_batch(
        self, n: int, rounds: int, runs: int, rng: np.random.Generator
    ) -> SampledBatch:
        """A whole batch of :meth:`estimate_sampled` runs at once.

        Bit-identical to ``runs`` sequential ``estimate_sampled`` calls
        sharing ``rng`` (same uniform word stream row by row, same CDF
        lookup, same per-row mean).  Runs whose mean statistic is 0 —
        where the scalar path raises
        :class:`~repro.errors.EstimationError` — are flagged ``NaN``
        and counted in ``saturated_runs`` instead of aborting the batch.
        """
        if rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
        if runs < 1:
            raise ConfigurationError(f"runs must be >= 1, got {runs}")
        cdf = np.cumsum(self.round_statistic_pmf(n))
        statistics = np.minimum(
            np.searchsorted(cdf, rng.random((runs, rounds)), side="right"),
            self.frame_slots,
        ).astype(np.float64)
        estimates = np.empty(runs)
        saturated = 0
        for index in range(runs):
            try:
                estimates[index] = self.estimate_from_mean(
                    float(statistics[index].mean())
                )
            except EstimationError:
                estimates[index] = np.nan
                saturated += 1
        return self._observe_batch(
            SampledBatch(
                protocol=self.name,
                rounds=rounds,
                estimates=estimates,
                slots_per_run=rounds * self.slots_per_round(),
                saturated_runs=saturated,
            ),
            statistics,
        )

    def batched_engine(self) -> "LofBatchedEngine":
        """LoF's vectorized cell executor (first empty bucket)."""
        return LofBatchedEngine(self)


class LofBatchedEngine(BatchedRoundEngine):
    """Whole-cell LoF: per-seed first empty bucket via offset bincount."""

    protocol: LofProtocol

    def round_statistics(
        self, seeds: np.ndarray, population: TagPopulation
    ) -> np.ndarray:
        frame_slots = self.protocol.frame_slots
        if population.size == 0:
            return np.zeros(len(seeds))
        buckets = geometric_bucket_matrix(
            seeds,
            population.tag_ids,
            frame_slots - 1,
            population.family,
        )
        rows = len(seeds)
        offsets = np.arange(rows, dtype=np.int64)[:, None] * frame_slots
        counts = np.bincount(
            (buckets + offsets).ravel(), minlength=rows * frame_slots
        ).reshape(rows, frame_slots)
        empty = counts == 0
        first = empty.argmax(axis=1)
        first[~empty.any(axis=1)] = frame_slots
        return first.astype(np.float64)

    def reduce(self, statistics: np.ndarray) -> float:
        return self.protocol.estimate_from_mean(float(statistics.mean()))

    def work_per_seed(self, population: TagPopulation) -> int:
        return max(1, population.size, self.protocol.frame_slots)
