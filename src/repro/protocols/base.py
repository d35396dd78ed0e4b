"""Common interfaces and result types for the protocol zoo."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from ..config import AccuracyRequirement
from ..errors import ConfigurationError
from ..obs.registry import MetricsRegistry, get_registry
from ..tags.population import TagPopulation


def result_summary(
    protocol: str,
    estimate: float,
    rounds: int,
    total_slots: int,
    seed_provenance: str | None = None,
    true_n: int | None = None,
) -> dict[str, object]:
    """The one result schema every serialization path shares.

    Single runs (:class:`ProtocolResult`), batched comparison cells
    (:class:`~repro.sim.protocol_batched.ProtocolCellResult`), and
    service responses (:class:`~repro.api.EstimateResponse`) all embed
    this shape, so figures, reports, and JSON sinks read one set of
    keys: ``protocol``, ``estimate``, ``true_n``, ``relative_error``
    (signed, ``None`` without ground truth), ``rounds``,
    ``total_slots``, and ``seed_provenance``.
    """
    relative_error: float | None = None
    if true_n is not None and true_n > 0 and estimate == estimate:
        relative_error = (float(estimate) - true_n) / true_n
    return {
        "protocol": protocol,
        "estimate": float(estimate),
        "true_n": int(true_n) if true_n is not None else None,
        "relative_error": relative_error,
        "rounds": int(rounds),
        "total_slots": int(total_slots),
        "seed_provenance": seed_provenance,
    }


@dataclass(frozen=True)
class ProtocolResult:
    """Outcome of one full estimation run by any protocol.

    Attributes
    ----------
    protocol:
        Display name of the protocol that produced the estimate.
    n_hat:
        The cardinality estimate.
    rounds:
        Estimation rounds performed.
    total_slots:
        Time slots consumed across all rounds — the paper's estimating-
        time metric.
    per_round_statistics:
        Raw per-round observations (gray depths, first-nonempty indices,
        first-empty buckets ... protocol-specific), kept for diagnostics;
        ``None`` when the protocol records none.
    seed_provenance:
        Where the run's randomness came from (``"seed=7"``, ``"rng"``,
        ...); stamped by the request path, ``None`` for direct
        protocol calls.
    """

    protocol: str
    n_hat: float
    rounds: int
    total_slots: int
    per_round_statistics: np.ndarray | None = field(
        repr=False, default=None
    )
    seed_provenance: str | None = None

    def accuracy(self, true_n: int) -> float:
        """The Eq. 22 metric ``n_hat / n``."""
        if true_n < 1:
            raise ConfigurationError(f"true_n must be >= 1, got {true_n}")
        return self.n_hat / true_n

    def summary(self, true_n: int | None = None) -> dict[str, object]:
        """The common :func:`result_summary` record for this run."""
        return result_summary(
            protocol=self.protocol,
            estimate=self.n_hat,
            rounds=self.rounds,
            total_slots=self.total_slots,
            seed_provenance=self.seed_provenance,
            true_n=true_n,
        )

    def to_dict(
        self,
        include_statistics: bool = False,
        true_n: int | None = None,
    ) -> dict[str, object]:
        """Plain-type view for exporters, reports, and JSON sinks.

        The :func:`result_summary` schema plus an ``observations``
        count; ``include_statistics`` additionally inlines the raw
        per-round observations as floats.
        """
        record = self.summary(true_n=true_n)
        record["observations"] = (
            0
            if self.per_round_statistics is None
            else int(len(self.per_round_statistics))
        )
        if include_statistics and self.per_round_statistics is not None:
            record["per_round_statistics"] = [
                float(value) for value in self.per_round_statistics
            ]
        return record


@dataclass(frozen=True)
class SampledBatch:
    """Estimates from a batch of independent sampled-tier runs.

    Returned by the batched sampled-law entry points
    (``estimate_sampled_batch``): one estimate per run, with runs that
    saturated the estimator's inversion flagged as ``NaN`` instead of
    aborting the whole batch.

    Attributes
    ----------
    protocol:
        Display name of the protocol.
    rounds:
        Estimation rounds per run.
    estimates:
        One ``n_hat`` per run; ``NaN`` where the run saturated.
    slots_per_run:
        Slots one run would consume on air.
    saturated_runs:
        Number of ``NaN``-flagged entries in ``estimates``.
    """

    protocol: str
    rounds: int
    estimates: np.ndarray
    slots_per_run: int
    saturated_runs: int = 0


@dataclass(frozen=True)
class IdentificationResult:
    """Outcome of an exact identification (anti-collision) run.

    Attributes
    ----------
    protocol:
        Display name.
    identified:
        IDs the reader resolved; for a correct protocol this is the
        whole population.
    total_slots:
        Slots consumed — grows linearly with ``n``, which is the paper's
        argument for estimating instead of identifying.
    """

    protocol: str
    identified: frozenset[int]
    total_slots: int

    @property
    def count(self) -> int:
        """Exact tag count obtained by identification."""
        return len(self.identified)


class CardinalityEstimatorProtocol(abc.ABC):
    """Interface every estimation protocol in the zoo implements.

    Protocols are observable: :meth:`instrument` attaches a
    :class:`~repro.obs.registry.MetricsRegistry`, and every concrete
    ``estimate`` implementation funnels its result through
    :meth:`_observe_result`, which records runs, rounds, slots, and the
    per-round statistic distribution under ``protocol.<name>.*``.  The
    default registry is the process-wide active one (the no-op null
    registry unless something installed a real one), so uninstrumented
    use pays nothing.
    """

    #: Display name, overridden by subclasses.
    name: str = "abstract"

    #: What a ``per_round_statistics`` entry *is* — protocols whose
    #: rounds observe PET gray depths declare ``"gray_depth"`` so an
    #: attached :class:`~repro.obs.diag.EstimatorHealth` can fold them
    #: into its streaming estimate; other statistics stay ``"generic"``
    #: and feed only the drift detector (via the final estimate).
    round_statistic_kind: str = "generic"

    @property
    def registry(self) -> MetricsRegistry:
        """The metrics registry results are recorded against."""
        attached = getattr(self, "_registry", None)
        return attached if attached is not None else get_registry()

    def instrument(
        self, registry: MetricsRegistry
    ) -> "CardinalityEstimatorProtocol":
        """Attach ``registry`` for result recording; returns ``self``."""
        self._registry = registry
        return self

    def _observe_result(self, result: ProtocolResult) -> ProtocolResult:
        """Record ``result`` against the registry and pass it through."""
        registry = self.registry
        prefix = f"protocol.{self.name}"
        registry.counter(f"{prefix}.runs").inc()
        registry.counter(f"{prefix}.rounds").inc(result.rounds)
        registry.counter(f"{prefix}.slots").inc(result.total_slots)
        if result.per_round_statistics is not None:
            registry.histogram(f"{prefix}.round_statistic").observe_many(
                result.per_round_statistics
            )
        health = registry.health
        if health is not None:
            health.observe_protocol_result(
                result, self.round_statistic_kind
            )
        return result

    def _observe_batch(
        self, batch: SampledBatch, statistics: np.ndarray | None
    ) -> SampledBatch:
        """Record a whole batch against the registry; pass it through.

        Feeds the same ``protocol.<name>.*`` counters and
        ``round_statistic`` histogram a loop of single runs would, in
        one call each — so instrumented batch paths stay no-op-free on
        the null registry and bit-identical either way.
        """
        registry = self.registry
        if not registry:
            return batch
        prefix = f"protocol.{self.name}"
        runs = len(batch.estimates)
        registry.counter(f"{prefix}.runs").inc(runs)
        registry.counter(f"{prefix}.rounds").inc(runs * batch.rounds)
        registry.counter(f"{prefix}.slots").inc(
            runs * batch.slots_per_run
        )
        if statistics is not None:
            registry.histogram(f"{prefix}.round_statistic").observe_many(
                statistics
            )
        health = registry.health
        if health is not None:
            finite = batch.estimates[np.isfinite(batch.estimates)]
            if finite.size:
                health.observe_estimates(finite, batch.rounds)
        return batch

    def batched_engine(self) -> "BatchedRoundEngine | None":
        """The protocol's vectorized cell executor, if it has one.

        Protocols whose per-round statistic admits a whole-cell numpy
        program return a :class:`BatchedRoundEngine`;
        :func:`repro.sim.protocol_batched.run_protocol_cell` drives it.
        The default is ``None`` — scalar :meth:`estimate` only.
        """
        return None

    @abc.abstractmethod
    def plan_rounds(self, requirement: AccuracyRequirement) -> int:
        """Rounds needed to meet ``requirement`` (protocol-specific)."""

    @abc.abstractmethod
    def slots_per_round(self) -> int:
        """Deterministic (or worst-case) slots per estimation round."""

    @abc.abstractmethod
    def estimate(
        self,
        population: TagPopulation,
        rounds: int,
        rng: np.random.Generator,
    ) -> ProtocolResult:
        """Run ``rounds`` rounds against ``population``."""

    def estimate_with_requirement(
        self,
        population: TagPopulation,
        requirement: AccuracyRequirement,
        rng: np.random.Generator,
    ) -> ProtocolResult:
        """Plan rounds from the requirement, then estimate."""
        rounds = self.plan_rounds(requirement)
        return self.estimate(population, rounds, rng)

    def planned_slots(self, requirement: AccuracyRequirement) -> int:
        """Total slot budget to meet ``requirement`` (Tables 4/5)."""
        return self.plan_rounds(requirement) * self.slots_per_round()


class BatchedRoundEngine(abc.ABC):
    """Vectorized whole-cell executor for one estimation protocol.

    A batched engine turns a protocol's per-round scalar statistic
    (``first_nonempty``, ``first_empty_bucket``, ``empty_slots`` ...)
    into an array program over a *vector of seeds*, so an experiment
    cell of ``repetitions x rounds`` rounds is a handful of numpy passes
    instead of hundreds of thousands of Python round trips.

    The contract is **bit-identity**: :meth:`round_statistics` must
    equal the scalar statistic evaluated seed by seed, and
    :meth:`reduce` must be the protocol's scalar inversion applied to
    one repetition's statistic row — so batched cell estimates match the
    per-repetition reference loop exactly
    (``tests/sim/test_protocol_batched.py::TestBitIdentity`` enforces
    this for every engine protocol).

    Engines are stateless views over their protocol; obtain one from
    :meth:`CardinalityEstimatorProtocol.batched_engine` and drive it
    with :func:`repro.sim.protocol_batched.run_protocol_cell`.
    """

    #: Statistic draws consumed per protocol round (EZB averages
    #: ``frames_per_round`` sub-frame statistics per round; every other
    #: protocol draws one).
    draws_per_round: int = 1

    def __init__(self, protocol: CardinalityEstimatorProtocol):
        self.protocol = protocol

    @abc.abstractmethod
    def round_statistics(
        self, seeds: np.ndarray, population: TagPopulation
    ) -> np.ndarray:
        """Per-seed sufficient statistic for a vector of round seeds.

        Returns a ``float64`` array of ``len(seeds)`` entries,
        bit-identical to the protocol's scalar per-round statistic at
        each seed.
        """

    @abc.abstractmethod
    def reduce(self, statistics: np.ndarray) -> float:
        """One repetition's estimate from its statistic row.

        Must raise :class:`~repro.errors.EstimationError` exactly when
        the scalar path would (saturation); the cell driver maps that to
        a flagged ``NaN`` when asked to.
        """

    def work_per_seed(self, population: TagPopulation) -> int:
        """Width of the widest single per-seed temporary row.

        The driver sizes chunks so that each temporary — not their sum
        — holds at most :data:`~repro.sim.batched.CHUNK_ELEMENTS`
        elements.  The default is one row per tag (the hash matrix);
        engines with a wider scratch row (a frame-occupancy count
        matrix over a large frame, for example) override this so a big
        frame over a small population stays bounded.
        """
        return max(1, population.size)
