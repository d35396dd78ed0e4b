"""Framed slotted-Aloha estimators: USE, UPE, EZB.

The Kodialam & Nandagopal lineage the paper cites as earlier related
work.  All three observe the occupancy profile of an Aloha frame in
which each tag participates with persistence probability ``p`` and picks
a uniform slot:

* **USE** (Unified Simple Estimator, MobiCom 2006): reads the number of
  *empty* slots ``z`` of one frame and inverts
  ``E[z] = f (1 - p/f)^n`` — the "zero estimator", usable without
  decoding collisions.
* **UPE** (Unified Probabilistic Estimator, MobiCom 2006): same frame
  but sized from a prior magnitude so the load stays near-optimal;
  modelled here as USE with a load-matched persistence (the prior-
  knowledge requirement Sec. 2 criticises).
* **EZB** (Enhanced Zero-Based, INFOCOM 2007): accumulates the zero
  statistic across ``k`` frames and estimates once from the average —
  anonymous and robust to multiple readers.

These are implemented for the related-work comparison example and the
identification-vs-estimation benchmark; the paper's evaluation compares
PET against FNEB and LoF only.
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
    ProtocolResult,
)


class _ZeroFrameEstimator(CardinalityEstimatorProtocol):
    """Shared machinery: estimate from empty-slot counts of frames."""

    def __init__(self, frame_size: int, persistence: float = 1.0):
        if frame_size < 1:
            raise ConfigurationError(
                f"frame_size must be >= 1, got {frame_size}"
            )
        if not 0.0 < persistence <= 1.0:
            raise ConfigurationError(
                f"persistence must lie in (0, 1], got {persistence!r}"
            )
        self.frame_size = frame_size
        self.persistence = persistence

    def slots_per_round(self) -> int:
        """One frame per round."""
        return self.frame_size

    def plan_rounds(self, requirement: AccuracyRequirement) -> int:
        """CLT planner on the zero-count statistic at design load.

        At load ``t = n p / f`` the zero fraction is ``e^-t`` with
        variance ``~ e^-t (1 - e^-t) / f`` per frame; propagating
        through the log-inversion gives the relative deviation of one
        frame's estimate, and the usual ``(c sigma_rel / eps)^2`` round
        count.  Evaluated at the design load ``t = 1``.
        """
        c = confidence_scale(requirement.delta)
        t = 1.0
        zero_fraction = math.exp(-t)
        sigma_zero = math.sqrt(
            zero_fraction * (1.0 - zero_fraction) / self.frame_size
        )
        # n_hat = -(f/p) ln(z/f)  =>  d n_hat / d zfrac = -(f/p)/zfrac;
        # relative sigma of n_hat = sigma_zero / (zfrac * t).
        relative_sigma = sigma_zero / (zero_fraction * t)
        rounds = (c * relative_sigma / requirement.epsilon) ** 2
        return max(1, math.ceil(rounds))

    def empty_slots(self, seed: int, population: TagPopulation) -> int:
        """Count empty slots of one frame under seed-derived behaviour."""
        if population.size == 0:
            return self.frame_size
        slots = uniform_slots(
            seed, population.tag_ids, self.frame_size, population.family
        )
        if self.persistence < 1.0:
            # Persistence decision is also hash-derived (stateless tags):
            # reuse an independent seed stream.
            participation = uniform_slots(
                seed ^ 0xA5A5_A5A5, population.tag_ids, 1 << 20,
                population.family,
            )
            mask = participation < self.persistence * (1 << 20)
            slots = slots[mask]
        if slots.size == 0:
            return self.frame_size
        occupied = np.count_nonzero(
            np.bincount(slots, minlength=self.frame_size)
        )
        return self.frame_size - occupied

    def estimate_from_zero_fraction(self, zero_fraction: float) -> float:
        """Invert ``E[z/f] = (1 - p/f)^n`` at the observed fraction."""
        if zero_fraction <= 0.0:
            raise EstimationError(
                "no empty slots observed: frame saturated; increase the "
                "frame size (USE/UPE need a prior magnitude of n)"
            )
        if zero_fraction >= 1.0:
            return 0.0
        per_tag = math.log(1.0 - self.persistence / self.frame_size)
        return math.log(zero_fraction) / per_tag

    def estimate(
        self,
        population: TagPopulation,
        rounds: int,
        rng: np.random.Generator,
    ) -> ProtocolResult:
        if rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
        zeros = np.empty(rounds)
        for round_index in range(rounds):
            seed = int(rng.integers(0, 2**63))
            zeros[round_index] = self.empty_slots(seed, population)
        zero_fraction = float(zeros.mean()) / self.frame_size
        n_hat = self.estimate_from_zero_fraction(zero_fraction)
        return self._observe_result(
            ProtocolResult(
                protocol=self.name,
                n_hat=n_hat,
                rounds=rounds,
                total_slots=rounds * self.slots_per_round(),
                per_round_statistics=zeros,
            )
        )

    def estimate_sampled(
        self, n: int, rounds: int, rng: np.random.Generator
    ) -> ProtocolResult:
        """Law-exact zero-count sampling from the true size ``n``.

        The serve tier's degraded rung: instead of hashing every tag
        into a frame, draw each frame's occupancy directly —
        participants ``B ~ Binomial(n, p)``, slot choices
        ``Multinomial(B, uniform)`` — and count empty slots.  The
        statistic's distribution matches :meth:`estimate` exactly
        (``O(f)`` per frame independent of ``n``), but consumes
        different randomness, so results are not bit-identical.
        """
        if rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
        if n < 0:
            raise ConfigurationError(f"population size must be >= 0, got {n}")
        draws = rounds * getattr(self, "frames_per_round", 1)
        if self.persistence < 1.0:
            participants = rng.binomial(int(n), self.persistence, size=draws)
        else:
            participants = np.full(draws, int(n))
        pvals = np.full(self.frame_size, 1.0 / self.frame_size)
        counts = rng.multinomial(participants, pvals)
        zeros = (counts == 0).sum(axis=1).astype(np.float64)
        zero_fraction = float(zeros.mean()) / self.frame_size
        n_hat = self.estimate_from_zero_fraction(zero_fraction)
        return self._observe_result(
            ProtocolResult(
                protocol=self.name,
                n_hat=n_hat,
                rounds=rounds,
                total_slots=rounds * self.slots_per_round(),
                per_round_statistics=zeros,
            )
        )

    def batched_engine(self) -> "ZeroFrameBatchedEngine":
        """The shared zero-frame vectorized cell executor."""
        return ZeroFrameBatchedEngine(self)


class ZeroFrameBatchedEngine(BatchedRoundEngine):
    """Whole-cell zero-frame statistic for USE/UPE/EZB.

    Per-seed empty-slot counts via a single offset bincount: tags masked
    out by the persistence draw are parked in a sentinel slot
    ``frame_size`` (one column past the frame) so a ``(rows,
    frame_size + 1)``-wide count matrix yields occupied counts without
    any per-row filtering.
    """

    protocol: _ZeroFrameEstimator

    def __init__(self, protocol: _ZeroFrameEstimator):
        super().__init__(protocol)
        # EZB averages frames_per_round sub-frame statistics per round.
        self.draws_per_round = getattr(protocol, "frames_per_round", 1)

    def round_statistics(
        self, seeds: np.ndarray, population: TagPopulation
    ) -> np.ndarray:
        frame_size = self.protocol.frame_size
        if population.size == 0:
            return np.full(len(seeds), float(frame_size))
        slots = uniform_slot_matrix(
            seeds, population.tag_ids, frame_size, population.family
        )
        if self.protocol.persistence < 1.0:
            participation = uniform_slot_matrix(
                np.asarray(seeds, dtype=np.uint64)
                ^ np.uint64(0xA5A5_A5A5),
                population.tag_ids,
                1 << 20,
                population.family,
            )
            mask = participation < self.protocol.persistence * (1 << 20)
            slots = np.where(mask, slots, frame_size)
        rows = len(seeds)
        width = frame_size + 1
        offsets = np.arange(rows, dtype=np.int64)[:, None] * width
        counts = np.bincount(
            (slots + offsets).ravel(), minlength=rows * width
        ).reshape(rows, width)
        occupied = np.count_nonzero(counts[:, :frame_size], axis=1)
        return (frame_size - occupied).astype(np.float64)

    def reduce(self, statistics: np.ndarray) -> float:
        zero_fraction = float(statistics.mean()) / self.protocol.frame_size
        return self.protocol.estimate_from_zero_fraction(zero_fraction)

    def work_per_seed(self, population: TagPopulation) -> int:
        # Widest row: the slot (and participation) matrices, or the
        # count matrix with its sentinel column.
        return max(1, population.size, self.protocol.frame_size + 1)


class UseProtocol(_ZeroFrameEstimator):
    """USE: full-persistence zero estimator, one frame per round."""

    name = "USE"

    def __init__(self, frame_size: int = 1024):
        super().__init__(frame_size=frame_size, persistence=1.0)


class UpeProtocol(_ZeroFrameEstimator):
    """UPE: persistence tuned to a prior magnitude ``n0``.

    Chooses ``p = f / n0`` (load ~1) so the zero fraction sits near the
    information-optimal ``1/e``.  The dependence on ``n0`` is the
    prior-knowledge drawback PET's related-work section highlights.
    """

    name = "UPE"

    def __init__(self, frame_size: int = 1024, prior_n: int = 1024):
        if prior_n < 1:
            raise ConfigurationError(f"prior_n must be >= 1, got {prior_n}")
        persistence = min(1.0, frame_size / prior_n)
        super().__init__(frame_size=frame_size, persistence=persistence)
        self.prior_n = prior_n


class EzbProtocol(_ZeroFrameEstimator):
    """EZB: the zero statistic averaged over ``k`` sub-frames per round.

    Functionally USE with the variance reduction folded into the round
    structure; its claim to fame is anonymity and multi-reader
    mergeability (bitmaps OR cleanly), which the multireader tests
    exercise.
    """

    name = "EZB"

    def __init__(
        self,
        frame_size: int = 1024,
        persistence: float = 0.5,
        frames_per_round: int = 4,
    ):
        if frames_per_round < 1:
            raise ConfigurationError(
                f"frames_per_round must be >= 1, got {frames_per_round}"
            )
        super().__init__(frame_size=frame_size, persistence=persistence)
        self.frames_per_round = frames_per_round

    def slots_per_round(self) -> int:
        return self.frame_size * self.frames_per_round

    def estimate(
        self,
        population: TagPopulation,
        rounds: int,
        rng: np.random.Generator,
    ) -> ProtocolResult:
        if rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
        zeros = np.empty(rounds * self.frames_per_round)
        for index in range(zeros.size):
            seed = int(rng.integers(0, 2**63))
            zeros[index] = self.empty_slots(seed, population)
        zero_fraction = float(zeros.mean()) / self.frame_size
        n_hat = self.estimate_from_zero_fraction(zero_fraction)
        return self._observe_result(
            ProtocolResult(
                protocol=self.name,
                n_hat=n_hat,
                rounds=rounds,
                total_slots=rounds * self.slots_per_round(),
                per_round_statistics=zeros,
            )
        )
