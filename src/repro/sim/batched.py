"""The batched experiment engine: whole experiment cells in numpy.

:class:`~repro.sim.experiment.ExperimentRunner`'s reference loop runs
one repetition at a time, and each repetition one round at a time —
Python-level work per round.  For the paper's evaluation (every data
point averaged over 300 independent runs, Sec. 5.1) and for the
dynamic-monitoring workloads that re-estimate at streaming rates, that
loop *is* the hot path of the whole benchmark suite.

:class:`BatchedExperimentEngine` computes an entire experiment cell —
all ``repetitions x rounds`` gray depths — in a handful of array
operations per repetition and no Python round loop at all:

* estimating paths are drawn as one ``(rounds,)`` (passive) or
  ``(rounds, 2)`` (active: path word + seed word) ``uint64`` array whose
  word stream matches the scalar draws of
  :meth:`~repro.core.path.EstimatingPath.random` and the per-round seed
  draw bit-for-bit, so the engine reproduces the reference loop exactly
  from the same ``SeedSequence`` children;
* for fixed (passive) codes the population is sorted once and every
  round's gray depth comes from a single batched ``searchsorted``, an
  XOR against the two neighbours, their elementwise min, and one
  leading-zeros count per round;
* for per-round fresh (active) codes the code matrix is produced by the
  hash family's broadcast :meth:`~repro.hashing.family.HashFamily.code_matrix`
  in cache-sized chunks of rounds, XORed with the paths in place, and
  reduced with one row ``min`` — then one leading-zeros count per
  round, not per element;
* slot accounting is a table lookup
  (:func:`repro.core.search.slots_lookup_table`) plus a sum — no oracle
  replay per round.

Bit-for-bit equivalence with the reference loop (and, on small
populations, the slot-level simulator) is enforced by
``tests/sim/test_equivalence.py``.
"""

from __future__ import annotations

import time

import numpy as np

from ..config import PAPER_RUNS_PER_POINT, PetConfig
from ..core.accuracy import estimate_from_depths
from ..core.search import (
    slot_outcome_tables,
    slots_lookup_table,
    strategy_for,
)
from ..errors import ConfigurationError
from ..hashing.family import HashFamily
from ..hashing.geometric import leading_zeros64_vec
from ..obs.profile import active_profiler
from ..obs.registry import MetricsRegistry, get_registry
from .experiment import RepeatedEstimate
from .workload import WorkloadSpec, build_population

#: Array elements per chunk for every chunked kernel: the fresh-code
#: (rounds x tags) matrix here, the serve tier's fused PET groups, and
#: the protocol engines' statistics passes.  The bound is per
#: temporary, not per chunk: each array a pass builds (hash matrix,
#: mask, count matrix) holds at most 32K elements, 256 KiB as
#: ``uint64``, so every pass over it stays in L2.  The protocol
#: engines size their chunks from the widest such row
#: (:meth:`~repro.protocols.base.BatchedRoundEngine.work_per_seed`).
#: Chunking never changes results: every kernel is elementwise in the
#: round axis.
CHUNK_ELEMENTS = 1 << 15


def batched_gray_depths_sorted(
    sorted_codes: np.ndarray, path_bits: np.ndarray, height: int
) -> np.ndarray:
    """Gray depths of many paths against one sorted fixed-code array.

    The gray depth of path ``r`` is the longest common prefix between
    ``r`` and any code, which is achieved by ``r``'s immediate
    neighbours in sorted code order.  Leading zeros fall as the XOR
    grows, so the better neighbour is the one with the smaller XOR: the
    whole batch is one ``searchsorted``, an elementwise min of the two
    XORs, and one leading-zeros count per path.  Past either end of the
    code array both index clamps land on the same code, so no edge
    needs masking.  The paths are searched in sorted order, which
    keeps consecutive binary searches on warm cache lines (about 3x
    faster than random needles at 10^4 codes), and the minima are
    scattered back into round order.
    """
    rounds = int(path_bits.shape[0])
    if sorted_codes.size == 0:
        return np.zeros(rounds, dtype=np.int64)
    order = np.argsort(path_bits)
    paths = path_bits[order]
    positions = np.searchsorted(sorted_codes, paths, side="left")
    left = sorted_codes[np.maximum(positions - 1, 0)]
    right = sorted_codes[np.minimum(positions, sorted_codes.size - 1)]
    nearest = np.empty(rounds, dtype=np.uint64)
    nearest[order] = np.minimum(left ^ paths, right ^ paths)
    nearest <<= np.uint64(64 - height)
    return np.minimum(height, leading_zeros64_vec(nearest))


def batched_gray_depths_fresh(
    tag_ids: np.ndarray,
    seeds: np.ndarray,
    path_bits: np.ndarray,
    height: int,
    family: HashFamily,
    chunk_elements: int = CHUNK_ELEMENTS,
) -> np.ndarray:
    """Gray depths of many paths, each against its own fresh code set.

    Active tags rehash per round, so the sort cannot be amortised.
    Instead the ``(rounds, tags)`` code matrix is produced chunk-wise by
    the family's broadcast hash and XORed with each round's path in
    place.  Leading zeros are monotone non-increasing in the unsigned
    value, so ``max_t clz(x_t) == clz(min_t x_t)``: a row ``min`` per
    chunk picks each round's nearest code, and one leading-zeros pass
    over those minima — one count per round — gives every depth.
    """
    rounds = int(seeds.shape[0])
    population_size = int(tag_ids.size)
    if population_size == 0:
        return np.zeros(rounds, dtype=np.int64)
    nearest = np.empty(rounds, dtype=np.uint64)
    chunk = max(1, chunk_elements // population_size)
    for start in range(0, rounds, chunk):
        stop = min(start + chunk, rounds)
        codes = family.code_matrix(seeds[start:stop], tag_ids, height)
        codes ^= path_bits[start:stop, None]
        codes.min(axis=1, out=nearest[start:stop])
    nearest <<= np.uint64(64 - height)
    return np.minimum(height, leading_zeros64_vec(nearest))


class BatchedExperimentEngine:
    """Runs vectorized-tier experiment cells without per-round Python.

    Drop-in replacement for the reference repetition loop of
    :meth:`repro.sim.experiment.ExperimentRunner.run_vectorized`: same
    seed tree (one :class:`numpy.random.SeedSequence` child per
    repetition), same per-repetition population resampling, bit-for-bit
    identical estimates and slot counts, 1-2 orders of magnitude faster.

    Parameters
    ----------
    base_seed:
        Root of the seed tree for every repetition.
    repetitions:
        Independent runs per cell (paper default: 300).
    registry:
        Metrics registry for cell timing, slot-outcome counters, and
        the gray-depth histogram; defaults to the process-wide active
        registry.  Instrumentation reads the computed depth arrays and
        the wall clock only — never the seed tree — so results stay
        bit-identical to the reference loop with any registry.
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

    def run_cell(
        self,
        spec: WorkloadSpec,
        config: PetConfig,
        rounds: int,
    ) -> RepeatedEstimate:
        """Compute one full experiment cell (all repetitions x rounds)."""
        if rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
        height = config.tree_height
        if spec.size > 0 and height > 62:
            raise ConfigurationError(
                "vectorized simulation supports tree heights up to 62"
            )
        strategy = strategy_for(config.binary_search)
        slots_table = slots_lookup_table(strategy, height)
        registry = self.registry
        profiler = active_profiler(registry)
        recorder = registry.round_trace if registry else None
        health = registry.health if registry else None
        if registry:
            busy_table, idle_table = slot_outcome_tables(
                strategy, height
            )
            depth_histogram = registry.histogram("pet.gray_depth")
            busy_slots = 0
            idle_slots = 0
        start = time.perf_counter()
        with registry.span(
            "cell", tier="batched", n=spec.size, rounds=rounds
        ):
            children = np.random.SeedSequence(self.base_seed).spawn(
                self.repetitions
            )
            words_per_round = 1 if config.passive_tags else 2
            estimates = np.empty(self.repetitions)
            total_slots = 0
            for index, child in enumerate(children):
                with profiler.phase("seed_matrix"):
                    rng = np.random.default_rng(child)
                    # One array draw reproduces the reference loop's
                    # per-round scalar draws: path word (then seed word,
                    # active variant) in round order — see
                    # EstimatingPath.random.
                    words = rng.integers(
                        0,
                        2**64,
                        size=(rounds, words_per_round),
                        dtype=np.uint64,
                    )
                    path_bits = words[:, 0] >> np.uint64(64 - height)
                with profiler.phase("hash_passes"):
                    population = build_population(
                        WorkloadSpec(
                            size=spec.size,
                            id_space=spec.id_space,
                            seed=spec.seed + index,
                        )
                    )
                    if config.passive_tags:
                        codes = np.sort(
                            population.preloaded_codes(height)
                        )
                        depths = batched_gray_depths_sorted(
                            codes, path_bits, height
                        )
                    else:
                        # integers(0, 2**63) is a one-word Lemire draw:
                        # word >> 1.
                        seeds = words[:, 1] >> np.uint64(1)
                        depths = batched_gray_depths_fresh(
                            population.tag_ids,
                            seeds,
                            path_bits,
                            height,
                            population.family,
                        )
                with profiler.phase("finalize"):
                    estimates[index] = estimate_from_depths(depths)
                with profiler.phase("reduction"):
                    total_slots += int(slots_table[depths].sum())
                    if registry:
                        busy_slots += int(busy_table[depths].sum())
                        idle_slots += int(idle_table[depths].sum())
                        depth_histogram.observe_many(depths)
                    if recorder is not None:
                        recorder.record_population_run(
                            tier="batched",
                            run_index=index,
                            depths=depths,
                            path_bits=path_bits,
                            round_seeds=(
                                None if config.passive_tags else seeds
                            ),
                            population_size=spec.size,
                            population_id_space=spec.id_space,
                            population_seed=spec.seed + index,
                            tree_height=height,
                            binary_search=config.binary_search,
                            slots_table=slots_table,
                            busy_table=busy_table,
                            idle_table=idle_table,
                        )
                    if health is not None:
                        health.observe_depths(depths)
        seconds = time.perf_counter() - start
        repeated = RepeatedEstimate(
            true_n=spec.size,
            rounds=rounds,
            estimates=estimates,
            slots_per_run=total_slots / self.repetitions,
        )
        if registry:
            rounds_done = rounds * self.repetitions
            registry.counter("experiment.cells").inc()
            registry.counter("experiment.rounds").inc(rounds_done)
            registry.counter("sim.rounds").inc(rounds_done)
            registry.counter("sim.slots").inc(total_slots)
            registry.counter("sim.slots.busy").inc(busy_slots)
            registry.counter("sim.slots.idle").inc(idle_slots)
            registry.histogram("experiment.cell_seconds").observe(
                seconds
            )
            if seconds > 0:
                registry.gauge("experiment.rounds_per_second").set(
                    rounds_done / seconds
                )
            if health is not None:
                health.observe_estimates(estimates, rounds)
            registry.event(
                "cell",
                tier="batched",
                n=spec.size,
                rounds=rounds,
                repetitions=self.repetitions,
                mean_estimate=float(estimates.mean()),
                slots_per_run=repeated.slots_per_run,
                seconds=seconds,
            )
        return repeated

    def run_rounds_grid(
        self,
        spec: WorkloadSpec,
        config: PetConfig,
        rounds_grid: "Sequence[int]",
        workers: "int | None" = None,
        progress: object = None,
    ) -> "list[RepeatedEstimate]":
        """Every rounds-grid cell of one workload from a single depth pass.

        The fig-4 drivers evaluate one population size at many round
        counts.  Calling :meth:`run_cell` per count re-derives the same
        per-repetition populations, sorted code arrays, and word
        streams for every grid value; this method exploits two prefix
        facts to pay for them exactly once:

        * word streams: ``rng.integers(0, 2**64, size=(m, k))`` is a
          row-prefix of the ``size=(max_m, k)`` draw from the same
          child (C-order full-range draws consume the stream
          identically), and
        * depths: per-round gray depths are elementwise independent,
          so the ``(repetitions, max_m)`` depth matrix computed at the
          widest grid value yields every narrower cell as the column
          prefix ``depths[:, :m]``.

        Each returned :class:`RepeatedEstimate` is therefore
        **bit-identical** to ``run_cell(spec, config, m)`` (enforced by
        the grid-equivalence tests), at roughly ``max_m / sum(grid)``
        of the work.

        ``workers`` fans the repetitions out over a process pool: the
        parent derives the word matrix into a zero-copy
        :class:`~repro.sim.shm.SharedArray`, workers fill disjoint row
        shards of a shared depth matrix, and the parent reduces every
        grid cell.  ``None``/``0``/``1`` runs serially in-process and
        never allocates a shared-memory segment.  ``progress`` is a
        sweep-style tracker (``True`` or a
        :class:`~repro.obs.progress.ProgressTracker`); cells tick as
        they are reduced.

        Telemetry is cell-equivalent for counters (``experiment.*``,
        ``sim.*``, the gray-depth histogram) but grid-level for
        timing: the shared depth pass cannot be attributed to single
        cells, so per-cell ``cell_seconds`` are not recorded.
        """
        from .experiment import _make_tracker

        grid = [int(rounds) for rounds in rounds_grid]
        if not grid:
            raise ConfigurationError("rounds_grid must be non-empty")
        for rounds in grid:
            if rounds < 1:
                raise ConfigurationError(
                    f"rounds must be >= 1, got {rounds}"
                )
        if workers is not None and workers < 0:
            raise ConfigurationError(
                f"workers must be >= 0 when given, got {workers}"
            )
        height = config.tree_height
        if spec.size > 0 and height > 62:
            raise ConfigurationError(
                "vectorized simulation supports tree heights up to 62"
            )
        max_rounds = max(grid)
        registry = self.registry
        strategy = strategy_for(config.binary_search)
        slots_table = slots_lookup_table(strategy, height)
        start = time.perf_counter()
        with registry.span(
            "grid",
            tier="batched",
            n=spec.size,
            cells=len(grid),
            max_rounds=max_rounds,
            workers=workers or 1,
        ):
            if workers is None or workers <= 1:
                depths = self._grid_depths_serial(
                    spec, config, max_rounds
                )
            else:
                depths = self._grid_depths_parallel(
                    spec, config, max_rounds, workers
                )
            tracker = _make_tracker(progress, len(grid), registry)
            results = self._reduce_grid(
                spec, grid, depths, slots_table, strategy, tracker
            )
            if tracker is not None:
                tracker.finish()
        seconds = time.perf_counter() - start
        if registry:
            if seconds > 0:
                registry.gauge("experiment.cells_per_second").set(
                    len(grid) / seconds
                )
            registry.event(
                "grid",
                tier="batched",
                n=spec.size,
                cells=len(grid),
                max_rounds=max_rounds,
                repetitions=self.repetitions,
                workers=workers or 1,
                seconds=seconds,
            )
        return results

    def _grid_words(self, max_rounds: int, words_per_round: int):
        """Yield ``(index, words)`` per repetition — the widest draw."""
        children = np.random.SeedSequence(self.base_seed).spawn(
            self.repetitions
        )
        for index, child in enumerate(children):
            rng = np.random.default_rng(child)
            yield index, rng.integers(
                0,
                2**64,
                size=(max_rounds, words_per_round),
                dtype=np.uint64,
            )

    def _grid_depths_serial(
        self, spec: WorkloadSpec, config: PetConfig, max_rounds: int
    ) -> np.ndarray:
        """The ``(repetitions, max_rounds)`` depth matrix, in-process."""
        words_per_round = 1 if config.passive_tags else 2
        depths = np.empty(
            (self.repetitions, max_rounds), dtype=np.int64
        )
        profiler = active_profiler(self.registry)
        for index, words in self._grid_words(
            max_rounds, words_per_round
        ):
            with profiler.phase("hash_passes"):
                depths[index] = _grid_repetition_depths(
                    spec, config, words, index
                )
        return depths

    def _grid_depths_parallel(
        self,
        spec: WorkloadSpec,
        config: PetConfig,
        max_rounds: int,
        workers: int,
    ) -> np.ndarray:
        """The depth matrix via worker shards over shared memory.

        The parent derives the full word tensor once (seed discipline
        stays parent-side), shares it read-only, and shares a writable
        depth matrix that workers fill in disjoint repetition shards —
        both segments are cleaned up even when a worker dies
        mid-shard.
        """
        from .experiment import _run_pool
        from .shm import SharedArray

        words_per_round = 1 if config.passive_tags else 2
        registry = self.registry
        profiler = active_profiler(registry)
        with profiler.phase("seed_matrix"):
            words_all = np.empty(
                (self.repetitions, max_rounds, words_per_round),
                dtype=np.uint64,
            )
            for index, words in self._grid_words(
                max_rounds, words_per_round
            ):
                words_all[index] = words
        words_segment = None
        depths_segment = None
        try:
            words_segment = SharedArray.create(
                words_all, registry=registry
            )
            del words_all
            depths_segment = SharedArray.zeros(
                (self.repetitions, max_rounds),
                np.int64,
                registry=registry,
            )
            shards = _shard_ranges(self.repetitions, workers)
            with profiler.phase("hash_passes"):
                _run_pool(
                    workers,
                    [
                        (
                            _grid_depths_worker,
                            words_segment.spec,
                            depths_segment.spec,
                            shard_start,
                            shard_stop,
                            spec,
                            config,
                        )
                        for shard_start, shard_stop in shards
                    ],
                )
            # Copy out before the segment disappears.
            return depths_segment.array.copy()
        finally:
            for segment in (words_segment, depths_segment):
                if segment is not None:
                    segment.close()
                    segment.unlink(registry=registry)

    def _reduce_grid(
        self,
        spec: WorkloadSpec,
        grid: "list[int]",
        depths: np.ndarray,
        slots_table: np.ndarray,
        strategy: object,
        tracker: object,
    ) -> "list[RepeatedEstimate]":
        """Reduce the shared depth matrix into one result per grid cell."""
        registry = self.registry
        profiler = active_profiler(registry)
        health = registry.health if registry else None
        if registry:
            busy_table, idle_table = slot_outcome_tables(
                strategy, int(slots_table.size - 1)
            )
            depth_histogram = registry.histogram("pet.gray_depth")
        # Per-repetition running slot sums: cumulative along rounds, so
        # cell m's total is one column read instead of a fresh sum.
        slot_cumulative = slots_table[depths].cumsum(axis=1)
        results = []
        for rounds in grid:
            with profiler.phase("finalize"):
                cell_depths = depths[:, :rounds]
                estimates = np.array(
                    [
                        estimate_from_depths(cell_depths[index])
                        for index in range(self.repetitions)
                    ]
                )
                total_slots = int(
                    slot_cumulative[:, rounds - 1].sum()
                )
            repeated = RepeatedEstimate(
                true_n=spec.size,
                rounds=rounds,
                estimates=estimates,
                slots_per_run=total_slots / self.repetitions,
            )
            with profiler.phase("reduction"):
                if registry:
                    rounds_done = rounds * self.repetitions
                    registry.counter("experiment.cells").inc()
                    registry.counter("experiment.rounds").inc(
                        rounds_done
                    )
                    registry.counter("sim.rounds").inc(rounds_done)
                    registry.counter("sim.slots").inc(total_slots)
                    registry.counter("sim.slots.busy").inc(
                        int(busy_table[cell_depths].sum())
                    )
                    registry.counter("sim.slots.idle").inc(
                        int(idle_table[cell_depths].sum())
                    )
                    depth_histogram.observe_many(cell_depths.ravel())
                    if health is not None:
                        health.observe_estimates(estimates, rounds)
                    registry.event(
                        "cell",
                        tier="batched-grid",
                        n=spec.size,
                        rounds=rounds,
                        repetitions=self.repetitions,
                        mean_estimate=float(estimates.mean()),
                        slots_per_run=repeated.slots_per_run,
                        seconds=float("nan"),
                    )
            if tracker is not None:
                tracker.cell_done(
                    n=spec.size,
                    slots=total_slots,
                    rounds=rounds * self.repetitions,
                )
            results.append(repeated)
        return results


def _shard_ranges(
    total: int, shards: int
) -> "list[tuple[int, int]]":
    """Split ``range(total)`` into at most ``shards`` contiguous runs."""
    shards = max(1, min(shards, total))
    base, extra = divmod(total, shards)
    ranges = []
    start = 0
    for index in range(shards):
        stop = start + base + (1 if index < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


def _grid_repetition_depths(
    spec: WorkloadSpec,
    config: PetConfig,
    words: np.ndarray,
    index: int,
) -> np.ndarray:
    """Gray depths of one repetition's rounds (the run_cell inner body).

    ``words`` is the repetition's ``(rounds, words_per_round)`` word
    draw; the population resampling (``spec.seed + index``) matches
    :meth:`BatchedExperimentEngine.run_cell` exactly.
    """
    height = config.tree_height
    path_bits = words[:, 0] >> np.uint64(64 - height)
    population = build_population(
        WorkloadSpec(
            size=spec.size,
            id_space=spec.id_space,
            seed=spec.seed + index,
        )
    )
    if config.passive_tags:
        codes = np.sort(population.preloaded_codes(height))
        return batched_gray_depths_sorted(codes, path_bits, height)
    seeds = words[:, 1] >> np.uint64(1)
    return batched_gray_depths_fresh(
        population.tag_ids,
        seeds,
        path_bits,
        height,
        population.family,
    )


def _grid_depths_worker(
    words_spec: object,
    depths_spec: object,
    start: int,
    stop: int,
    spec: WorkloadSpec,
    config: PetConfig,
) -> None:
    """Worker-process entry: fill one repetition shard of the grid.

    Attaches both parent-owned segments, writes depth rows
    ``start:stop``, and detaches; never copies the word tensor or
    unlinks anything (module-level so it pickles into the pool).
    """
    from ..obs.registry import NULL_REGISTRY
    from .shm import SharedArray

    words_segment = SharedArray.attach(
        words_spec, registry=NULL_REGISTRY
    )
    try:
        depths_segment = SharedArray.attach(
            depths_spec, registry=NULL_REGISTRY
        )
        try:
            words = words_segment.array
            depths = depths_segment.array
            for index in range(start, stop):
                depths[index] = _grid_repetition_depths(
                    spec, config, words[index], index
                )
        finally:
            depths_segment.close()
    finally:
        words_segment.close()
