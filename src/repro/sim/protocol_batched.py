"""Protocol-agnostic batched comparison cells.

PR 1 moved PET's experiment cells into numpy
(:class:`~repro.sim.batched.BatchedExperimentEngine`); this module does
the same for the *comparison* protocols the paper benchmarks PET
against.  A cell — ``repetitions x rounds`` independent estimation
rounds of one protocol against one population — becomes a handful of
array passes:

1. :func:`seed_matrix` reproduces the scalar per-round seed stream for
   every repetition at once (PR-1 seed discipline: child generators
   spawned from one base seed, one 63-bit word per round).
2. The protocol's :class:`~repro.protocols.base.BatchedRoundEngine`
   turns the whole seed matrix into per-round sufficient statistics
   (first nonempty slot, first empty geometric bucket, empty-slot
   counts, Schoute slot-category mix) in chunked matrix passes.
3. Each repetition's statistic row is reduced by the protocol's own
   scalar inversion.

The contract is **bit-identity** with the per-repetition reference loop
(:meth:`ExperimentRunner.run_custom` driving the scalar ``estimate``),
enforced by ``tests/sim/test_protocol_batched.py::TestBitIdentity``.
Observability mirrors the scalar path: the same
``protocol.<NAME>.*`` counters and ``round_statistic`` histograms with
exact slot accounting, all skipped without a single allocation on the
null registry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..analysis.stats import SeriesSummary, summarize
from ..config import PAPER_RUNS_PER_POINT
from ..errors import ConfigurationError, EstimationError
from ..obs.registry import MetricsRegistry, get_registry
from ..protocols.base import (
    BatchedRoundEngine,
    CardinalityEstimatorProtocol,
)
from ..tags.population import TagPopulation
from .batched import CHUNK_ELEMENTS
from .workload import WorkloadSpec, build_population


def seed_matrix(
    base_seed: int, repetitions: int, draws: int
) -> np.ndarray:
    """The scalar paths' per-round seeds for a whole cell at once.

    Row ``i`` holds the ``draws`` seeds repetition ``i``'s scalar run
    would draw: the scalar estimators call ``int(rng.integers(0,
    2**63))`` once per round on the ``i``-th child generator of
    ``SeedSequence(base_seed)``, which is bit-identical to one full-range
    ``uint64`` word per round shifted down to 63 bits (the PR-1 word-
    stream discipline; the equivalence tests pin this).
    """
    if repetitions < 1:
        raise ConfigurationError(
            f"repetitions must be >= 1, got {repetitions}"
        )
    if draws < 1:
        raise ConfigurationError(f"draws must be >= 1, got {draws}")
    children = np.random.SeedSequence(base_seed).spawn(repetitions)
    seeds = np.empty((repetitions, draws), dtype=np.uint64)
    for index, child in enumerate(children):
        rng = np.random.default_rng(child)
        seeds[index] = rng.integers(
            0, 2**64, size=draws, dtype=np.uint64
        ) >> np.uint64(1)
    return seeds


@dataclass(frozen=True)
class ProtocolCellResult:
    """One batched comparison cell: every repetition of one data point.

    Attributes
    ----------
    protocol:
        Display name of the protocol that produced the estimates.
    true_n:
        Ground-truth cardinality of the cell.
    rounds:
        Estimation rounds per repetition.
    estimates:
        One ``n_hat`` per repetition; ``NaN`` where the repetition
        saturated and the cell ran with ``on_error="nan"``.
    statistics:
        The raw per-round sufficient statistics, one row per
        repetition (EZB rows hold ``rounds * frames_per_round``
        sub-frame entries).
    slots_per_run:
        Slots one repetition consumes on air.
    saturated_runs:
        Number of ``NaN``-flagged repetitions.
    seed_provenance:
        Where the cell's seed matrix came from
        (``"base_seed=2011"``); ``None`` for hand-built cells.
    """

    protocol: str
    true_n: int
    rounds: int
    estimates: np.ndarray
    statistics: np.ndarray = field(repr=False)
    slots_per_run: int = 0
    saturated_runs: int = 0
    seed_provenance: str | None = None

    @property
    def repetitions(self) -> int:
        """Number of independent runs in the cell."""
        return len(self.estimates)

    def summary(self, epsilon: float = float("nan")) -> SeriesSummary:
        """Summarize the finite estimates with the shared helpers."""
        finite = self.estimates[np.isfinite(self.estimates)]
        return summarize(finite, self.true_n, epsilon=epsilon)

    def to_dict(
        self, include_estimates: bool = False
    ) -> dict[str, object]:
        """The common :func:`~repro.protocols.base.result_summary`
        schema for the whole cell.

        ``estimate`` is the mean of the finite repetitions (``NaN`` if
        every repetition saturated) and ``rounds``/``total_slots``
        count one repetition, so a cell record reads like the average
        single run it aggregates; cell-only keys (``repetitions``,
        ``saturated_runs``) ride alongside.  ``include_estimates``
        additionally inlines the per-repetition estimates.
        """
        from ..protocols.base import result_summary

        finite = self.estimates[np.isfinite(self.estimates)]
        record = result_summary(
            protocol=self.protocol,
            estimate=(
                float(finite.mean()) if finite.size else float("nan")
            ),
            rounds=self.rounds,
            total_slots=self.slots_per_run,
            seed_provenance=self.seed_provenance,
            true_n=self.true_n,
        )
        record["repetitions"] = self.repetitions
        record["saturated_runs"] = int(self.saturated_runs)
        if include_estimates:
            record["estimates"] = [
                float(value) for value in self.estimates
            ]
        return record


def run_protocol_cell(
    protocol: CardinalityEstimatorProtocol,
    population: TagPopulation,
    rounds: int,
    repetitions: int = PAPER_RUNS_PER_POINT,
    base_seed: int = 2011,
    registry: MetricsRegistry | None = None,
    on_error: str = "raise",
) -> ProtocolCellResult:
    """Run one whole comparison cell through the protocol's engine.

    Bit-identical to ``repetitions`` scalar ``protocol.estimate`` calls
    on the child generators of ``SeedSequence(base_seed)`` (the
    :meth:`~repro.sim.experiment.ExperimentRunner.run_custom` loop).

    ``on_error`` selects the saturation policy: ``"raise"`` propagates
    the protocol's :class:`~repro.errors.EstimationError` exactly as the
    scalar loop would, ``"nan"`` flags the repetition's estimate as
    ``NaN`` and counts it in ``saturated_runs`` so one saturated run
    cannot abort a whole figure.
    """
    if rounds < 1:
        raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
    if on_error not in ("raise", "nan"):
        raise ConfigurationError(
            f"on_error must be 'raise' or 'nan', got {on_error!r}"
        )
    engine = protocol.batched_engine()
    if engine is None:
        raise ConfigurationError(
            f"protocol {protocol.name!r} has no batched engine; use the "
            f"scalar estimate path"
        )
    if registry is None:
        registry = get_registry()
    start = time.perf_counter()
    with registry.span(
        "cell",
        tier="protocol-batched",
        protocol=protocol.name,
        n=population.size,
    ):
        with registry.span("seed_matrix"):
            seeds = seed_matrix(
                base_seed, repetitions, rounds * engine.draws_per_round
            )
        with registry.span("hash_passes"):
            statistics = _chunked_statistics(engine, seeds, population)
        with registry.span("finalize"):
            estimates = np.empty(repetitions)
            saturated = 0
            for index in range(repetitions):
                try:
                    estimates[index] = engine.reduce(
                        statistics[index]
                    )
                except EstimationError:
                    if on_error == "raise":
                        raise
                    estimates[index] = np.nan
                    saturated += 1
        result = ProtocolCellResult(
            protocol=protocol.name,
            true_n=population.size,
            rounds=rounds,
            estimates=estimates,
            statistics=statistics,
            slots_per_run=rounds * protocol.slots_per_round(),
            saturated_runs=saturated,
            seed_provenance=f"base_seed={base_seed}",
        )
        _observe_cell(registry, result, time.perf_counter() - start)
    return result


def _chunked_statistics(
    engine: BatchedRoundEngine,
    seeds: np.ndarray,
    population: TagPopulation,
) -> np.ndarray:
    """Evaluate the engine over all seeds in cache-sized chunks."""
    flat = seeds.ravel()
    chunk = max(1, CHUNK_ELEMENTS // engine.work_per_seed(population))
    statistics = np.empty(flat.size)
    for offset in range(0, flat.size, chunk):
        block = flat[offset : offset + chunk]
        statistics[offset : offset + block.size] = (
            engine.round_statistics(block, population)
        )
    return statistics.reshape(seeds.shape)


def _observe_cell(
    registry: MetricsRegistry,
    result: ProtocolCellResult,
    seconds: float,
) -> None:
    """Record one batched cell exactly as the scalar loop would.

    Protocol-level: the ``protocol.<NAME>.runs/rounds/slots`` counters
    and the ``round_statistic`` histogram receive the same totals as
    ``repetitions`` scalar ``estimate`` calls.  Cell-level: the
    ``experiment.*`` counters/timings mirror
    :meth:`ExperimentRunner._record_cell`.  Sweep workers pass
    ``seconds=NaN`` so remotely-computed cells are counted but not
    timed.  Entirely skipped on the falsy null registry.
    """
    if not registry:
        return
    prefix = f"protocol.{result.protocol}"
    repetitions = result.repetitions
    with registry.span("reduction"):
        registry.counter(f"{prefix}.runs").inc(repetitions)
        registry.counter(f"{prefix}.rounds").inc(
            repetitions * result.rounds
        )
        registry.counter(f"{prefix}.slots").inc(
            repetitions * result.slots_per_run
        )
        registry.histogram(f"{prefix}.round_statistic").observe_many(
            result.statistics
        )
    rounds_done = result.rounds * repetitions
    registry.counter("experiment.cells").inc()
    registry.counter("experiment.rounds").inc(rounds_done)
    if seconds == seconds:  # cells timed in *this* process only
        registry.histogram("experiment.cell_seconds").observe(seconds)
        if seconds > 0:
            registry.gauge("experiment.rounds_per_second").set(
                rounds_done / seconds
            )
    health = registry.health
    finite = result.estimates[np.isfinite(result.estimates)]
    if health is not None and finite.size:
        health.observe_estimates(finite, result.rounds)
    registry.event(
        "cell",
        tier="protocol-batched",
        protocol=result.protocol,
        n=result.true_n,
        rounds=result.rounds,
        repetitions=repetitions,
        mean_estimate=(
            float(finite.mean()) if finite.size else float("nan")
        ),
        saturated_runs=result.saturated_runs,
        slots_per_run=result.slots_per_run,
        seconds=seconds,
    )


@dataclass(frozen=True)
class ProtocolCellSpec:
    """Declarative description of one comparison cell.

    ``protocol`` is a registry name (``"fneb"``, ``"lof"``, ``"use"``,
    ``"upe"``, ``"ezb"``, ``"aloha"``); ``config`` is forwarded to
    :func:`~repro.protocols.registry.make_protocol`.  Specs are plain
    data so sweeps pickle cleanly into worker processes.
    """

    protocol: str
    n: int
    rounds: int
    config: dict = field(default_factory=dict)
    population_seed: int = 7

    @property
    def label(self) -> str:
        """Compact display label for tables and benchmark output."""
        return f"{self.protocol}@n={self.n}"

    def build(
        self,
    ) -> tuple[CardinalityEstimatorProtocol, TagPopulation]:
        """Materialise the protocol instance and its population."""
        from ..protocols.registry import make_protocol

        protocol = make_protocol(self.protocol, **self.config)
        population = build_population(
            WorkloadSpec(size=self.n, seed=self.population_seed)
        )
        return protocol, population


def sweep_protocol_cells(
    specs: Sequence[ProtocolCellSpec],
    repetitions: int = PAPER_RUNS_PER_POINT,
    base_seed: int = 2011,
    workers: int | None = None,
    registry: MetricsRegistry | None = None,
    on_error: str = "nan",
    progress: object = None,
) -> list[ProtocolCellResult]:
    """Run many comparison cells, optionally process-parallel.

    Every cell derives its seeds from ``base_seed`` alone (independent
    of execution order), so results are bit-for-bit identical for any
    ``workers`` count, including ``None``/``1`` (in-process serial
    execution).  Worker processes record into private registries and
    return :class:`~repro.obs.registry.RegistrySnapshot` objects that
    the parent merges, so counters, histogram buckets, and cell timings
    aggregate to the same totals as a serial run — mirroring
    :meth:`ExperimentRunner.sweep`, which also documents the
    ``progress`` argument (``True`` for a stderr status line, or a
    :class:`~repro.obs.progress.ProgressTracker`).
    """
    from .experiment import _make_tracker, _run_pool

    if workers is not None and workers < 1:
        raise ConfigurationError(
            f"workers must be >= 1 when given, got {workers}"
        )
    if registry is None:
        registry = get_registry()
    tracker = _make_tracker(progress, len(specs), registry)

    def tick(spec: ProtocolCellSpec, result: ProtocolCellResult) -> None:
        if tracker is not None:
            tracker.cell_done(
                n=spec.n,
                slots=result.slots_per_run * repetitions,
                rounds=spec.rounds * repetitions,
            )

    start = time.perf_counter()
    with registry.span(
        "sweep",
        tier="protocol-batched",
        cells=len(specs),
        workers=workers or 1,
    ):
        if workers is None or workers == 1:
            results = []
            for spec in specs:
                result = run_protocol_cell(
                    *spec.build(),
                    rounds=spec.rounds,
                    repetitions=repetitions,
                    base_seed=base_seed,
                    registry=registry,
                    on_error=on_error,
                )
                tick(spec, result)
                results.append(result)
        else:
            # Per-cell child contexts keep worker spans inside the live
            # trace (see ExperimentRunner.sweep).
            from ..obs.tracectx import current_trace

            sweep_trace = current_trace()
            pairs = _run_pool(
                workers,
                [
                    (
                        _sweep_protocol_cell,
                        spec,
                        repetitions,
                        base_seed,
                        on_error,
                        bool(registry),
                        sweep_trace.child().to_dict()
                        if sweep_trace is not None
                        else None,
                    )
                    for spec in specs
                ],
                lambda index, pair: tick(specs[index], pair[0]),
            )
            results = []
            for result, snapshot in pairs:
                if snapshot is not None:
                    registry.merge(snapshot)
                results.append(result)
            # Worker registries cannot carry the parent's health
            # monitor; feed it here so diagnostics see every cell.
            health = registry.health if registry else None
            if health is not None:
                for result in results:
                    finite = result.estimates[
                        np.isfinite(result.estimates)
                    ]
                    if finite.size:
                        health.observe_estimates(finite, result.rounds)
    seconds = time.perf_counter() - start
    if seconds > 0:
        registry.gauge("experiment.cells_per_second").set(
            len(specs) / seconds
        )
    if tracker is not None:
        tracker.finish()
    return results


def _sweep_protocol_cell(
    spec: ProtocolCellSpec,
    repetitions: int,
    base_seed: int,
    on_error: str,
    collect: bool = False,
    trace_context: "dict | None" = None,
) -> tuple[ProtocolCellResult, object]:
    """Worker-process entry: one sweep cell (module-level, picklable).

    Returns the cell result plus, when ``collect`` is set, a snapshot
    of everything the worker's private registry recorded — the parent
    merges it so no worker-side telemetry is lost, phase spans
    included.  ``trace_context`` is the parent-derived trace position for this
    cell; installing it makes worker spans children of the parent's
    live ``sweep`` span (ids ride back inside the snapshot).
    """
    from ..obs.progress import default_worker_id
    from ..obs.registry import NULL_REGISTRY
    from ..obs.tracectx import TraceContext, use_trace_context

    worker_registry = MetricsRegistry() if collect else NULL_REGISTRY
    protocol, population = spec.build()
    with use_trace_context(TraceContext.from_dict(trace_context)):
        result = run_protocol_cell(
            protocol,
            population,
            rounds=spec.rounds,
            repetitions=repetitions,
            base_seed=base_seed,
            registry=worker_registry,
            on_error=on_error,
        )
    snapshot = (
        worker_registry.snapshot(worker_id=default_worker_id())
        if collect
        else None
    )
    return result, snapshot
