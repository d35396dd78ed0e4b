"""Repeated-estimation orchestration with managed seeds.

The paper averages every data point over 300 independent runs
(Sec. 5.1).  :class:`ExperimentRunner` owns the seed bookkeeping: each
repetition gets an independent child generator spawned from one base
seed, so any individual run can be reproduced in isolation from
``(base_seed, repetition_index)``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..analysis.stats import SeriesSummary, summarize
from ..config import PAPER_RUNS_PER_POINT, PetConfig
from ..errors import ConfigurationError
from ..obs.progress import ProgressTracker, default_worker_id
from ..obs.registry import (
    NULL_REGISTRY,
    MetricsRegistry,
    RegistrySnapshot,
    get_registry,
)
from ..obs.tracectx import (
    TraceContext,
    current_trace,
    use_trace_context,
)
from .sampled import SampledSimulator
from .vectorized import VectorizedSimulator
from .workload import WorkloadSpec, build_population


@dataclass(frozen=True)
class RepeatedEstimate:
    """All estimates from one experiment cell.

    Attributes
    ----------
    true_n:
        Ground-truth cardinality of the cell.
    rounds:
        Estimation rounds per run.
    estimates:
        One ``n_hat`` per repetition.
    slots_per_run:
        Mean total slots consumed by one estimation run.
    """

    true_n: int
    rounds: int
    estimates: np.ndarray
    slots_per_run: float

    def summary(self, epsilon: float = float("nan")) -> SeriesSummary:
        """Summarize the cell with the shared statistics helpers."""
        return summarize(self.estimates, self.true_n, epsilon=epsilon)


class ExperimentRunner:
    """Runs repeated estimations for experiment cells.

    Parameters
    ----------
    base_seed:
        Root of the seed tree for every repetition.
    repetitions:
        Independent runs per cell (paper default: 300).
    registry:
        Metrics registry cells are timed and counted against; defaults
        to the process-wide active registry (no-op unless installed).
        Instrumentation never touches the seed tree, so results are
        bit-identical with or without a real registry.
    """

    def __init__(
        self,
        base_seed: int = 2011,
        repetitions: int = PAPER_RUNS_PER_POINT,
        registry: MetricsRegistry | None = None,
    ):
        if repetitions < 1:
            raise ConfigurationError(
                f"repetitions must be >= 1, got {repetitions}"
            )
        self.base_seed = base_seed
        self.repetitions = repetitions
        self.registry = (
            registry if registry is not None else get_registry()
        )

    def _child_rngs(self, count: int) -> list[np.random.Generator]:
        seed_seq = np.random.SeedSequence(self.base_seed)
        return [np.random.default_rng(s) for s in seed_seq.spawn(count)]

    def _record_cell(
        self, tier: str, result: RepeatedEstimate, seconds: float
    ) -> None:
        """Count/time one finished cell and log its outcome event."""
        registry = self.registry
        rounds_done = result.rounds * len(result.estimates)
        registry.counter("experiment.cells").inc()
        registry.counter("experiment.rounds").inc(rounds_done)
        if seconds == seconds:  # cells timed in *this* process only
            registry.histogram("experiment.cell_seconds").observe(
                seconds
            )
            if seconds > 0:
                registry.gauge("experiment.rounds_per_second").set(
                    rounds_done / seconds
                )
        health = registry.health if registry else None
        if health is not None:
            health.observe_estimates(result.estimates, result.rounds)
        registry.event(
            "cell",
            tier=tier,
            n=result.true_n,
            rounds=result.rounds,
            repetitions=len(result.estimates),
            mean_estimate=float(result.estimates.mean()),
            slots_per_run=result.slots_per_run,
            seconds=seconds,
        )

    def run_sampled(
        self, n: int, config: PetConfig, rounds: int
    ) -> RepeatedEstimate:
        """Repeated estimation on the sampled tier (active variant).

        Uses the batch sampler: statistically identical to repeated
        full runs, at a fraction of the cost.
        """
        start = time.perf_counter()
        registry = self.registry
        with registry.span("cell", tier="sampled", n=n):
            with registry.span("seed_matrix"):
                rng = np.random.default_rng(
                    np.random.SeedSequence((self.base_seed, n, rounds))
                )
                simulator = SampledSimulator(
                    n, config=config, rng=rng, registry=registry
                )
            with registry.span("hash_passes"):
                estimates = simulator.estimate_batch(
                    rounds, self.repetitions
                )
            # One representative run for slot accounting (slot counts are
            # almost surely constant for binary search, d+1 for linear).
            with registry.span("reduction"):
                result = simulator.estimate(rounds=rounds)
        repeated = RepeatedEstimate(
            true_n=n,
            rounds=rounds,
            estimates=estimates,
            slots_per_run=float(result.total_slots),
        )
        self._record_cell(
            "sampled", repeated, time.perf_counter() - start
        )
        return repeated

    def run_vectorized(
        self,
        spec: WorkloadSpec,
        config: PetConfig,
        rounds: int,
        engine: str = "batched",
    ) -> RepeatedEstimate:
        """Repeated estimation on the vectorized tier (either variant).

        Each repetition rebuilds nothing but the reader-side randomness;
        for the passive variant the *population* (and hence the preloaded
        codes) is also resampled per repetition, so the measured spread
        includes the code-assignment randomness, as in the paper.

        ``engine`` selects the execution strategy: ``"batched"`` (the
        default) computes the whole cell in numpy via
        :class:`repro.sim.batched.BatchedExperimentEngine`;  ``"loop"``
        is the per-round reference implementation.  Both consume the
        same seed tree and return bit-identical results (enforced by the
        cross-tier equivalence tests).
        """
        if engine == "batched":
            from .batched import BatchedExperimentEngine

            batched = BatchedExperimentEngine(
                base_seed=self.base_seed,
                repetitions=self.repetitions,
                registry=self.registry,
            )
            return batched.run_cell(spec, config, rounds)
        if engine != "loop":
            raise ConfigurationError(
                f"engine must be 'batched' or 'loop', got {engine!r}"
            )
        return self.run_vectorized_loop(spec, config, rounds)

    def run_vectorized_loop(
        self,
        spec: WorkloadSpec,
        config: PetConfig,
        rounds: int,
    ) -> RepeatedEstimate:
        """Reference per-repetition loop behind :meth:`run_vectorized`.

        Kept as the executable specification the batched engine is
        tested against (and as the baseline of the throughput
        benchmark); prefer ``run_vectorized`` everywhere else.
        """
        start = time.perf_counter()
        with self.registry.span("cell", tier="loop", n=spec.size):
            rngs = self._child_rngs(self.repetitions)
            estimates = np.empty(self.repetitions)
            total_slots = 0
            for index, rng in enumerate(rngs):
                population = build_population(
                    WorkloadSpec(
                        size=spec.size,
                        id_space=spec.id_space,
                        seed=spec.seed + index,
                    )
                )
                simulator = VectorizedSimulator(
                    population, config=config, rng=rng
                )
                result = simulator.estimate(rounds=rounds)
                estimates[index] = result.n_hat
                total_slots += result.total_slots
        repeated = RepeatedEstimate(
            true_n=spec.size,
            rounds=rounds,
            estimates=estimates,
            slots_per_run=total_slots / self.repetitions,
        )
        self._record_cell("loop", repeated, time.perf_counter() - start)
        return repeated

    def run_custom(
        self,
        true_n: int,
        rounds: int,
        one_run: Callable[[np.random.Generator], float],
    ) -> RepeatedEstimate:
        """Repeated estimation with a caller-supplied run function.

        Used by the baseline protocols, which have their own simulators;
        ``one_run`` receives a fresh child generator and returns one
        estimate.
        """
        start = time.perf_counter()
        with self.registry.span("cell", tier="custom", n=true_n):
            rngs = self._child_rngs(self.repetitions)
            estimates = np.array([one_run(rng) for rng in rngs])
        repeated = RepeatedEstimate(
            true_n=true_n,
            rounds=rounds,
            estimates=estimates,
            slots_per_run=float("nan"),
        )
        self._record_cell(
            "custom", repeated, time.perf_counter() - start
        )
        return repeated

    def run_protocol(
        self,
        protocol: "CardinalityEstimatorProtocol",
        population: "TagPopulation",
        rounds: int,
        on_error: str = "raise",
    ) -> "ProtocolCellResult":
        """One comparison-protocol cell through its batched engine.

        Bit-identical to driving the protocol's scalar ``estimate``
        through :meth:`run_custom` with the same seeds; raises
        :class:`~repro.errors.ConfigurationError` for protocols without
        a batched engine (PET cells go through :meth:`run_sampled` /
        :meth:`run_vectorized` instead).
        """
        from .protocol_batched import run_protocol_cell

        return run_protocol_cell(
            protocol,
            population,
            rounds=rounds,
            repetitions=self.repetitions,
            base_seed=self.base_seed,
            registry=self.registry,
            on_error=on_error,
        )

    def sweep_protocols(
        self,
        specs: "Sequence[ProtocolCellSpec]",
        workers: int | None = None,
        on_error: str = "nan",
    ) -> "list[ProtocolCellResult]":
        """Batched comparison-cell sweep (table-3 style drivers).

        Same worker semantics as :meth:`sweep`: results are bit-for-bit
        identical for any ``workers`` count; see
        :func:`~repro.sim.protocol_batched.sweep_protocol_cells`.
        """
        from .protocol_batched import sweep_protocol_cells

        return sweep_protocol_cells(
            specs,
            repetitions=self.repetitions,
            base_seed=self.base_seed,
            workers=workers,
            registry=self.registry,
            on_error=on_error,
        )

    def sweep_rounds(
        self,
        spec: "WorkloadSpec",
        config: PetConfig,
        rounds_grid: Sequence[int],
        workers: int | None = None,
        progress: "bool | ProgressTracker | None" = None,
    ) -> list[RepeatedEstimate]:
        """Vectorized-tier sweep over round counts (fig-4 grid driver).

        One :class:`~repro.sim.batched.BatchedExperimentEngine` depth
        pass at the widest grid value serves every cell as a prefix
        reduction — bit-identical to calling :meth:`run_vectorized`
        per grid value, at a fraction of the work.  ``workers`` shards
        the repetitions over a process pool with zero-copy
        shared-memory word/depth matrices; ``None``/``0``/``1`` runs
        serially and never allocates a segment.
        """
        from .batched import BatchedExperimentEngine

        engine = BatchedExperimentEngine(
            base_seed=self.base_seed,
            repetitions=self.repetitions,
            registry=self.registry,
        )
        return engine.run_rounds_grid(
            spec,
            config,
            rounds_grid,
            workers=workers,
            progress=progress,
        )

    def sweep(
        self,
        sizes: Sequence[int],
        config: PetConfig,
        rounds: int,
        workers: int | None = None,
        progress: "bool | ProgressTracker | None" = None,
    ) -> list[RepeatedEstimate]:
        """Sampled-tier sweep over population sizes (Fig. 4 driver).

        ``workers`` fans the cells out over a
        :class:`concurrent.futures.ProcessPoolExecutor`.  Every cell
        seeds its own generator from ``SeedSequence((base_seed, n,
        rounds))`` (see :meth:`run_sampled`), independent of execution
        order — so the results are bit-for-bit identical for any worker
        count, including ``None``/``1`` (in-process serial execution).

        When this runner carries a real registry, each worker records
        into a private :class:`~repro.obs.registry.MetricsRegistry` and
        returns a :class:`~repro.obs.registry.RegistrySnapshot`, which
        the parent merges — counters, histogram buckets, spans, and
        events aggregate to the same totals as a serial run (verified
        by the parity tests), and cells are timed where they actually
        ran rather than re-recorded with ``NaN``.

        ``progress`` turns on live reporting: pass ``True`` for a
        stderr status line with throughput and ETA, or a configured
        :class:`~repro.obs.progress.ProgressTracker`.  The tracker
        ticks as each cell finishes: in the serial loop, or in the
        parent as each worker's future completes.
        """
        if workers is not None and workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1 when given, got {workers}"
            )
        tracker = _make_tracker(progress, len(sizes), self.registry)

        def tick(n: int, repeated: RepeatedEstimate) -> None:
            if tracker is not None:
                tracker.cell_done(
                    n=n,
                    slots=int(repeated.slots_per_run * self.repetitions),
                    rounds=rounds * self.repetitions,
                )

        start = time.perf_counter()
        with self.registry.span(
            "sweep", cells=len(sizes), workers=workers or 1
        ):
            if workers is None or workers == 1:
                results = []
                for n in sizes:
                    repeated = self.run_sampled(n, config, rounds)
                    tick(n, repeated)
                    results.append(repeated)
            else:
                # Derive one child trace context per cell in the
                # parent, so worker-side spans join the live trace
                # (ids cross the pool as plain dicts and come back in
                # the snapshots the parent merges).
                sweep_trace = current_trace()
                pairs = _run_pool(
                    workers,
                    [
                        (
                            _sweep_cell,
                            self.base_seed,
                            self.repetitions,
                            n,
                            config,
                            rounds,
                            bool(self.registry),
                            sweep_trace.child().to_dict()
                            if sweep_trace is not None
                            else None,
                        )
                        for n in sizes
                    ],
                    lambda index, pair: tick(sizes[index], pair[0]),
                )
                results = []
                for repeated, snapshot in pairs:
                    if snapshot is not None:
                        self.registry.merge(snapshot)
                    results.append(repeated)
                # Worker registries cannot carry the parent's health
                # monitor; feed it here so diagnostics see every cell.
                health = self.registry.health if self.registry else None
                if health is not None:
                    for repeated in results:
                        health.observe_estimates(
                            repeated.estimates, repeated.rounds
                        )
        seconds = time.perf_counter() - start
        if seconds > 0:
            self.registry.gauge("experiment.cells_per_second").set(
                len(sizes) / seconds
            )
        if tracker is not None:
            tracker.finish()
        return results


def _make_tracker(
    progress: "bool | ProgressTracker | None",
    total_cells: int,
    registry: MetricsRegistry,
) -> "ProgressTracker | None":
    """Resolve a sweep's ``progress`` argument to a tracker (or None)."""
    if progress is None or progress is False:
        return None
    if progress is True:
        import sys

        return ProgressTracker(
            total_cells, registry=registry, stream=sys.stderr
        )
    return progress


def _run_pool(
    workers: int,
    submissions: "list[tuple]",
    on_result: "Callable[[int, object], None] | None" = None,
) -> list:
    """Fan submissions out over a process pool, in submission order.

    Each submission is ``(fn, *args)``.  ``on_result(index, result)``
    runs in the parent as each future completes (completion order):
    sweeps tick their progress tracker there, so a finished cell's
    future is its heartbeat.
    """
    from concurrent.futures import ProcessPoolExecutor, as_completed

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, *args) for fn, *args in submissions]
        if on_result is not None:
            index_of = {future: i for i, future in enumerate(futures)}
            for future in as_completed(futures):
                on_result(index_of[future], future.result())
        return [future.result() for future in futures]


def _sweep_cell(
    base_seed: int,
    repetitions: int,
    n: int,
    config: PetConfig,
    rounds: int,
    collect: bool = False,
    trace_context: "dict | None" = None,
) -> "tuple[RepeatedEstimate, RegistrySnapshot | None]":
    """Worker-process entry: one sweep cell (module-level, picklable).

    Returns the cell result plus, when ``collect`` is set, a snapshot
    of everything the worker's private registry recorded — the parent
    merges it so no worker-side telemetry is lost, phase spans
    included.  ``trace_context`` is the parent-derived
    :meth:`~repro.obs.tracectx.TraceContext.to_dict` for this cell;
    installing it makes the worker's spans children of the parent's
    live ``sweep`` span (ids ride back inside the snapshot).
    """
    registry = MetricsRegistry() if collect else NULL_REGISTRY
    runner = ExperimentRunner(
        base_seed=base_seed, repetitions=repetitions, registry=registry
    )
    with use_trace_context(TraceContext.from_dict(trace_context)):
        repeated = runner.run_sampled(n, config, rounds)
    snapshot = (
        registry.snapshot(worker_id=default_worker_id())
        if collect
        else None
    )
    return repeated, snapshot
