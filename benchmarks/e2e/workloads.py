"""The four end-to-end workloads, each run inside one fresh process.

``run.py`` starts this file as a child process::

    python benchmarks/e2e/workloads.py --workload NAME --seed N \\
        --seconds S [--setup-only] [--trace] [--smoke] [--spans PATH]

The child builds its inputs from ``--seed``, runs the workload's
warm-up unit and prints ``SETUP``, measures for ``--seconds``, checks
the outputs against the scalar reference paths, and prints one
``RESULT <json>`` line.  ``--trace`` wraps the layers named in
:mod:`layers` around the measured window only.

Every workload keeps going until ``--seconds`` have passed *and* its
fixed digest prefix is complete, so the sha256 of the outputs compares
across commits even when one commit is faster.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import dataclasses
import hashlib
import json
import math
import resource
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

import layers
from repro.api import EstimateRequest, execute_request, resolve_request
from repro.config import PetConfig
from repro.errors import EstimationError
from repro.figures.table3 import protocol_sweep_specs
from repro.obs.registry import MetricsRegistry
from repro.serve.service import EstimationService, ServiceConfig
from repro.serve.shard import ShardedService
from repro.sim import batched, protocol_batched
from repro.sim.experiment import ExperimentRunner
from repro.sim.workload import WorkloadSpec

#: Span cap of the traced run's serve registry; the deployed default
#: (10 000) would drop the spans the per-request joins need.
TRACED_MAX_SPANS = 500_000

#: Every this-many-th ``ok`` response is recomputed on the scalar path.
CHECK_EVERY = 16


@dataclass
class Outcome:
    """What one measured window produced, before metrics are derived."""

    window_s: float
    latencies_ms: list[float]
    attempted: int
    ok: int
    failed: int
    digest: str
    failures: list[str] = field(default_factory=list)
    extras: dict = field(default_factory=dict)


def _digest(items) -> str:
    hasher = hashlib.sha256()
    for item in items:
        hasher.update(repr(item).encode())
    return hasher.hexdigest()


def _same_result(served, reference) -> bool:
    """Bit-identity of two :class:`~repro.protocols.base.ProtocolResult`."""
    return (
        served.protocol == reference.protocol
        and served.rounds == reference.rounds
        and served.total_slots == reference.total_slots
        and float(served.n_hat).hex() == float(reference.n_hat).hex()
        and np.array_equal(
            served.per_round_statistics, reference.per_round_statistics
        )
    )


def _first_repetition_rng(base_seed: int) -> np.random.Generator:
    """The scalar path's generator for repetition 0 of a cell."""
    child = np.random.SeedSequence(base_seed).spawn(1)[0]
    return np.random.default_rng(child)


def _pet_first_repetition(base_seed, spec, config, rounds) -> float:
    runner = ExperimentRunner(base_seed=base_seed, repetitions=1)
    loop = runner.run_vectorized_loop(spec, config, rounds)
    return float(loop.estimates[0])


def _same_estimate(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return float(a).hex() == float(b).hex()


# -- sim cells ----------------------------------------------------------


class CellActive:
    """Closed and serial: one active-PET ``run_cell`` after another."""

    name = "cell-active"

    def __init__(self, seed: int, smoke: bool = False, trace: bool = False):
        self.seed = seed
        self.n, self.rounds, self.repetitions = (
            (2_000, 256, 2) if smoke else (10_000, 1_024, 4)
        )
        self.digest_cells = 1 if smoke else 4
        self.config = PetConfig()
        self.cells: list = []
        self.latencies: list[float] = []

    def _spec(self, k: int) -> WorkloadSpec:
        return WorkloadSpec(size=self.n, seed=self.seed + k)

    def _cell(self, k: int, repetitions: int):
        engine = batched.BatchedExperimentEngine(
            base_seed=self.seed + k, repetitions=repetitions
        )
        return engine.run_cell(self._spec(k), self.config, self.rounds)

    def setup(self) -> None:
        self._cell(0, 1)

    def measure(self, seconds: float) -> None:
        start = time.perf_counter()
        while (
            len(self.cells) < self.digest_cells
            or time.perf_counter() - start < seconds
        ):
            began = time.perf_counter()
            self.cells.append(self._cell(len(self.cells), self.repetitions))
            self.latencies.append(time.perf_counter() - began)
        self.window = time.perf_counter() - start

    def close(self) -> None:
        pass

    def outcome(self) -> Outcome:
        failures = [
            f"cell {k}: repetition 0 differs from run_vectorized_loop"
            for k, cell in enumerate(self.cells)
            if not _same_estimate(
                cell.estimates[0],
                _pet_first_repetition(
                    self.seed + k, self._spec(k), self.config, self.rounds
                ),
            )
        ]
        return Outcome(
            window_s=self.window,
            latencies_ms=[s * 1e3 for s in self.latencies],
            attempted=len(self.cells),
            ok=len(self.cells),
            failed=len(failures),
            digest=_digest(
                (cell.estimates.tobytes(), cell.slots_per_run)
                for cell in self.cells[: self.digest_cells]
            ),
            failures=failures,
            extras={"cells": len(self.cells)},
        )

    def busy_seconds(self) -> float:
        return sum(self.latencies)

    def layers(self) -> None:
        return None


class SweepPaper:
    """Closed and serial: whole sweep passes, one after another.

    A pass is the committed fig-4 cell (passive, sorted-code search)
    followed by the table-3 baseline-protocol sweep, both at the pass's
    base seed ``seed + pass``.
    """

    name = "sweep-paper"

    def __init__(self, seed: int, smoke: bool = False, trace: bool = False):
        self.seed = seed
        if smoke:
            self.fig4 = (2_000, 20, 512)
            self.sweep_n, self.sweep_runs = 500, 10
        else:
            self.fig4 = (10_000, 100, 4_697)  # n, repetitions, rounds
            self.sweep_n, self.sweep_runs = 1_000, 30
        self.config = PetConfig(passive_tags=True)
        self.passes: list = []
        self.latencies: list[float] = []

    def _specs(self, base: int):
        return [
            dataclasses.replace(spec, population_seed=base)
            for spec in protocol_sweep_specs(n=self.sweep_n)
        ]

    def _pass(self, p: int, fig4_repetitions: int, sweep_runs: int):
        base = self.seed + p
        n, _, rounds = self.fig4
        fig4 = batched.BatchedExperimentEngine(
            base_seed=base, repetitions=fig4_repetitions
        ).run_cell(WorkloadSpec(size=n, seed=base), self.config, rounds)
        cells = [
            protocol_batched.run_protocol_cell(
                *spec.build(),
                rounds=spec.rounds,
                repetitions=sweep_runs,
                base_seed=base,
                on_error="nan",
            )
            for spec in self._specs(base)
        ]
        return fig4, cells

    def setup(self) -> None:
        self._pass(0, 1, 1)

    def measure(self, seconds: float) -> None:
        start = time.perf_counter()
        while not self.passes or time.perf_counter() - start < seconds:
            began = time.perf_counter()
            self.passes.append(
                self._pass(len(self.passes), self.fig4[1], self.sweep_runs)
            )
            self.latencies.append(time.perf_counter() - began)
        self.window = time.perf_counter() - start

    def close(self) -> None:
        pass

    def _check_pass(self, p: int, fig4, cells) -> list[str]:
        base = self.seed + p
        n, _, rounds = self.fig4
        failures = []
        reference = _pet_first_repetition(
            base, WorkloadSpec(size=n, seed=base), self.config, rounds
        )
        if not _same_estimate(fig4.estimates[0], reference):
            failures.append(
                f"pass {p}: fig-4 repetition 0 differs from "
                f"run_vectorized_loop"
            )
        for spec, cell in zip(self._specs(base), cells):
            protocol, population = spec.build()
            rng = _first_repetition_rng(base)
            try:
                scalar = protocol.estimate(population, spec.rounds, rng).n_hat
            except EstimationError:
                scalar = float("nan")
            if not _same_estimate(cell.estimates[0], scalar):
                failures.append(
                    f"pass {p}: {spec.protocol}@{spec.rounds} repetition 0 "
                    f"differs from estimate()"
                )
        return failures

    def outcome(self) -> Outcome:
        failures, failed = [], 0
        for p, (fig4, cells) in enumerate(self.passes):
            found = self._check_pass(p, fig4, cells)
            failed += bool(found)
            failures += found
        fig4, cells = self.passes[0]
        return Outcome(
            window_s=self.window,
            latencies_ms=[s * 1e3 for s in self.latencies],
            attempted=len(self.passes),
            ok=len(self.passes),
            failed=failed,
            digest=_digest(
                [fig4.estimates.tobytes(), fig4.slots_per_run]
                + [cell.estimates.tobytes() for cell in cells]
            ),
            failures=failures,
            extras={
                "passes": len(self.passes),
                "saturated_runs": sum(
                    cell.saturated_runs
                    for _, cells in self.passes
                    for cell in cells
                ),
            },
        )

    def busy_seconds(self) -> float:
        return sum(self.latencies)

    def layers(self) -> None:
        return None


# -- the serve tier -----------------------------------------------------

TENANTS = 4
POPULATION = 5_000
ROUNDS = 128
PET_SHARE = 0.75
STATUSES = ("ok", "degraded", "rejected", "expired", "error")


@dataclass
class Record:
    """One sent request and how it was answered."""

    index: int
    request: EstimateRequest
    response: object
    latency_s: float
    done: float
    lateness_s: float = 0.0
    replay: bool = False


class _Requests:
    """The serve-poisson request shape, drawn from one seeded stream.

    The four reader fields are fixed (``population_seed`` 1000 + tenant,
    the loadgen convention), so the router's split of the eight fusion
    groups over two shards is the same for every seed: two PET and two
    LoF groups each.  The seed draws the traffic: tenant, protocol, and
    request seed of every request.
    """

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.population_seeds = [1_000 + tenant for tenant in range(TENANTS)]
        self._seeds: set[int] = set()

    def identity(
        self, tenant: int | None = None, protocol: str | None = None
    ) -> tuple:
        rng = self.rng
        if tenant is None:
            tenant = int(rng.integers(TENANTS))
        if protocol is None:
            protocol = "pet" if rng.random() < PET_SHARE else "lof"
        seed = int(rng.integers(0, 2**63))
        while seed in self._seeds:
            seed = int(rng.integers(0, 2**63))
        self._seeds.add(seed)
        return tenant, protocol, seed

    def request(self, identity: tuple, request_id: str) -> EstimateRequest:
        tenant, protocol, seed = identity
        return EstimateRequest(
            population=POPULATION,
            protocol=protocol,
            seed=seed,
            population_seed=self.population_seeds[tenant],
            rounds=ROUNDS,
            tenant=f"tenant-{tenant}",
            request_id=request_id,
        )

    def warmup(self) -> list[EstimateRequest]:
        """One request per tenant, covering both protocols."""
        return [
            self.request(self.identity(t, ("pet", "lof")[t % 2]), f"warm-{t}")
            for t in range(TENANTS)
        ]


class _ServeWorkload:
    """Shared outcome and per-layer logic of the two serve workloads."""

    slo_ms: float
    digest_requests: int | None = None

    def _registry(self, trace: bool) -> MetricsRegistry:
        if trace:
            return MetricsRegistry(max_trace=TRACED_MAX_SPANS)
        return MetricsRegistry()

    def outcome(self) -> Outcome:
        records = sorted(self.records, key=lambda r: r.index)
        ok = [r for r in records if r.response.status == "ok"]
        answered = [
            r for r in records if r.response.status in ("ok", "degraded")
        ]
        failures = []
        for record in ok[::CHECK_EVERY]:
            reference = execute_request(resolve_request(record.request))
            if not _same_result(record.response.result, reference):
                failures.append(
                    f"{record.request.request_id}: differs from "
                    f"execute_request"
                )
        within = sum(1 for r in ok if r.latency_s * 1e3 <= self.slo_ms)
        digest_set = [
            r
            for r in ok
            if self.digest_requests is None or r.index < self.digest_requests
        ]
        extras = {
            "sent": len(records),
            **{
                status: sum(1 for r in records if r.response.status == status)
                for status in STATUSES
            },
            "slo_ms": self.slo_ms,
            "slo_frac": within / len(records),
            "checked": len(ok[::CHECK_EVERY]),
        }
        return Outcome(
            window_s=max(r.done for r in records) - self.started,
            latencies_ms=[r.latency_s * 1e3 for r in answered],
            attempted=len(records),
            ok=len(ok),
            failed=len(records) - len(answered) + len(failures),
            digest=_digest(
                (
                    r.request.request_id,
                    float(r.response.result.n_hat).hex(),
                    r.response.result.total_slots,
                    r.response.result.per_round_statistics.tobytes(),
                )
                for r in digest_set
            ),
            failures=failures,
            extras=extras,
        )

    def busy_seconds(self) -> float:
        return max(r.done for r in self.records) - self.started

    def serve_layers(self, sharded: bool) -> dict:
        """Per-layer serve metrics from the registry and the records."""
        after = self.registry.snapshot()
        before = self.before

        def delta(name: str) -> float:
            return after.counters.get(name, 0.0) - before.counters.get(
                name, 0.0
            )

        def histogram_mean(name: str) -> float:
            new = after.histograms.get(name) or {}
            old = before.histograms.get(name) or {}
            count = new.get("count", 0) - old.get("count", 0)
            total = new.get("total", 0.0) - old.get("total", 0.0)
            return total / count if count else 0.0

        def percentile(values: list, q: float) -> float:
            return float(np.percentile(values, q)) if values else 0.0

        spans = [r for r in self.registry.trace if r.start >= self.started]
        waits = [r.seconds * 1e3 for r in spans if r.name == "queue.wait"]
        served = {
            r.attributes.get("request_id"): r
            for r in spans
            if r.name == "serve.request"
        }
        fused = delta("serve.batch.fused_requests")
        scalar = delta("serve.batch.scalar_requests")
        hits, misses = delta("serve.cache.hits"), delta("serve.cache.misses")
        replays = [r for r in self.records if r.replay]
        replay_hits = sum(
            1
            for r in replays
            if r.request.request_id in served
            and served[r.request.request_id].attributes.get("rung")
            == "cache_hit"
        )
        degraded = sum(
            1 for r in self.records if r.response.status == "degraded"
        )
        metrics = {
            "serve.batching.fused_frac": (
                fused / (fused + scalar) if fused + scalar else 0.0
            ),
            "serve.service.queue_wait_p50_ms": percentile(waits, 50),
            "serve.service.queue_wait_p99_ms": percentile(waits, 99),
            "serve.service.batch_size_mean": histogram_mean(
                "serve.batch.size"
            ),
            "serve.service.degraded_frac": degraded / len(self.records),
            "serve.cache.hit_frac": (
                hits / (hits + misses) if hits + misses else 0.0
            ),
            "serve.cache.replay_hit_frac": (
                replay_hits / len(replays) if replays else 0.0
            ),
            "serve.shard.hop_p50_ms": 0.0,
            "serve.shard.imbalance": 0.0,
        }
        if sharded:
            hops = [
                (
                    r.response.latency_seconds
                    - served[r.request.request_id].seconds
                )
                * 1e3
                for r in self.records
                if r.request.request_id in served
            ]
            routed = [
                delta(f"serve.shard.{i}.routed") for i in range(self.shards)
            ]
            metrics["serve.shard.hop_p50_ms"] = percentile(hops, 50)
            metrics["serve.shard.imbalance"] = max(routed) / (
                sum(routed) / len(routed)
            )
        return metrics


class ServePoisson(_ServeWorkload):
    """Open loop: Poisson arrivals into the single-process service."""

    name = "serve-poisson"
    #: About an eighth of capacity, so latency is service time rather
    #: than queueing, which amplifies any slowdown of the host.
    RATE = 15.0
    slo_ms = 100.0
    #: A run whose generator ran later than this (p99) is invalid.
    LATENESS_LIMIT_MS = 10.0

    def __init__(self, seed: int, smoke: bool = False, trace: bool = False):
        self.requests = _Requests(seed)
        self.registry = self._registry(trace)
        self.records: list[Record] = []

    def setup(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.service = EstimationService(
            config=ServiceConfig(), registry=self.registry
        )

        async def _start() -> None:
            await self.service.start()
            await asyncio.gather(
                *(self.service.submit(r) for r in self.requests.warmup())
            )

        self.loop.run_until_complete(_start())

    def _schedule(self, seconds: float) -> list[tuple[float, EstimateRequest]]:
        """``RATE * seconds`` Poisson arrivals in ``[0, seconds)``.

        Given its count, a Poisson process's arrival times are sorted
        uniform draws; fixing the count keeps the offered load the same
        for every seed.
        """
        requests = self.requests
        count = max(1, round(self.RATE * seconds))
        dues = np.sort(requests.rng.uniform(0.0, seconds, size=count))
        return [
            (
                float(due),
                requests.request(requests.identity(), f"req-{index:05d}"),
            )
            for index, due in enumerate(dues)
        ]

    async def _drive(self, schedule) -> None:
        service = self.service
        start = self.started = time.perf_counter()

        async def one(index: int, due: float, request) -> Record:
            delay = start + due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            sent = time.perf_counter()
            response = await service.submit(request)
            done = time.perf_counter()
            return Record(
                index,
                request,
                response,
                latency_s=done - start - due,
                done=done,
                lateness_s=sent - start - due,
            )

        self.records = list(
            await asyncio.gather(
                *(one(i, due, r) for i, (due, r) in enumerate(schedule))
            )
        )

    def measure(self, seconds: float) -> None:
        schedule = self._schedule(seconds)
        self.before = self.registry.snapshot()
        self.loop.run_until_complete(self._drive(schedule))

    def close(self) -> None:
        self.loop.run_until_complete(self.service.stop())
        self.loop.close()

    def outcome(self) -> Outcome:
        outcome = super().outcome()
        lateness = float(
            np.percentile([r.lateness_s * 1e3 for r in self.records], 99)
        )
        outcome.extras["lateness_p99_ms"] = lateness
        if lateness > self.LATENESS_LIMIT_MS:
            outcome.failures.append(
                f"invalid run: generator lateness p99 {lateness:.2f} ms > "
                f"{self.LATENESS_LIMIT_MS} ms"
            )
        return outcome

    def layers(self) -> dict:
        return self.serve_layers(sharded=False)


class _ReplayStream:
    """serve-sharded's request sequence: a quarter replay a recent identity.

    Cache hits answer in a few milliseconds and misses in tens, so the
    hit share must stay well below a half to keep the latency median
    inside the miss distribution rather than on the gap between the two.
    """

    REPLAY_SHARE = 0.25
    RECENT = 64

    def __init__(self, seed: int):
        self.requests = _Requests(seed)
        self.recent: deque = deque(maxlen=self.RECENT)

    def next(self, index: int) -> tuple[EstimateRequest, bool]:
        rng = self.requests.rng
        replay = bool(self.recent) and rng.random() < self.REPLAY_SHARE
        if replay:
            identity = self.recent[int(rng.integers(len(self.recent)))]
        else:
            identity = self.requests.identity()
            self.recent.append(identity)
        return self.requests.request(identity, f"req-{index:05d}"), replay


class ServeSharded(_ServeWorkload):
    """Closed loop: 16 client slots against a 2-shard router.

    The next request is submitted from the previous one's completion
    callback (the router's collector thread), so no client threads run.
    """

    name = "serve-sharded"
    SLOTS = 16
    slo_ms = 500.0
    digest_requests = 256

    def __init__(
        self,
        seed: int,
        smoke: bool = False,
        trace: bool = False,
        shards: int = 2,
    ):
        self.stream = _ReplayStream(seed)
        self.registry = self._registry(trace)
        self.shards = shards
        self.records: list[Record] = []
        if smoke:
            self.digest_requests = 64

    def setup(self) -> None:
        self.service = ShardedService(
            shards=self.shards,
            config=ServiceConfig(snapshot_interval_seconds=1.0),
            registry=self.registry,
        ).start()
        warmup = self.stream.requests.warmup()
        for future in [self.service.submit(r) for r in warmup]:
            future.result(timeout=60)

    def measure(self, seconds: float) -> None:
        lock = threading.Lock()
        finished = threading.Event()
        state = {"next": 0, "inflight": 0}
        self.before = self.registry.snapshot()
        start = self.started = time.perf_counter()
        deadline = start + seconds

        def reserve() -> tuple:
            index = state["next"]
            state["next"] += 1
            return (index, *self.stream.next(index))

        def send(index: int, request: EstimateRequest, replay: bool) -> None:
            sent = time.perf_counter()
            future = self.service.submit(request)
            future.add_done_callback(
                lambda f: answered(index, request, replay, sent, f.result())
            )

        def answered(index, request, replay, sent, response) -> None:
            done = time.perf_counter()
            with lock:
                self.records.append(
                    Record(
                        index,
                        request,
                        response,
                        latency_s=done - sent,
                        done=done,
                        replay=replay,
                    )
                )
                more = (
                    done < deadline or state["next"] < self.digest_requests
                )
                if more:
                    following = reserve()
                else:
                    state["inflight"] -= 1
                    idle = state["inflight"] == 0
            if more:
                send(*following)
            elif idle:
                finished.set()

        with lock:
            first = [reserve() for _ in range(self.SLOTS)]
            state["inflight"] = self.SLOTS
        for item in first:
            send(*item)
        if not finished.wait(timeout=seconds + 120):
            raise RuntimeError("serve-sharded: closed loop did not drain")

    def close(self) -> None:
        self.service.stop()

    def layers(self) -> dict:
        return self.serve_layers(sharded=True)


WORKLOADS = {
    cls.name: cls
    for cls in (CellActive, SweepPaper, ServePoisson, ServeSharded)
}


# -- metrics --------------------------------------------------------------


def peak_rss_mb() -> float:
    """The larger of this process's and its waited-for children's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(outcome: Outcome) -> dict:
    latencies = outcome.latencies_ms
    return {
        "peak_rss_mb": peak_rss_mb(),
        "ops_per_s": outcome.ok / outcome.window_s,
        "latency_p50_ms": float(np.percentile(latencies, 50)),
        "latency_p75_ms": float(np.percentile(latencies, 75)),
    }


#: Per-layer metrics every workload reports as 0 when its path never
#: reaches the serve tier.
_NO_SERVE = {
    "serve.batching.fused_frac": 0.0,
    "serve.service.queue_wait_p50_ms": 0.0,
    "serve.service.queue_wait_p99_ms": 0.0,
    "serve.service.batch_size_mean": 0.0,
    "serve.service.degraded_frac": 0.0,
    "serve.cache.hit_frac": 0.0,
    "serve.cache.replay_hit_frac": 0.0,
    "serve.shard.hop_p50_ms": 0.0,
    "serve.shard.imbalance": 0.0,
}

#: Per-layer metric -> span whose summed self time it reports.
_SELF_SECONDS = {
    "sim.batched.run_cell_self_s": "sim.batched.run_cell",
    "sim.batched.fresh_s": "sim.batched.fresh",
    "sim.batched.sorted_s": "sim.batched.sorted",
    "hashing.code_matrix_s": "hashing.code_matrix",
    "sim.backends.clz_s": "sim.backends.clz",
    "sim.backends.clamped_buckets_s": "sim.backends.clamped_buckets",
    "sim.workload.build_population_s": "sim.workload.build_population",
    "core.accuracy.estimate_s": "core.accuracy.estimate",
    "sim.protocol_batched.cell_self_s": "sim.protocol_batched.cell",
    "sim.protocol_batched.seed_matrix_s": "sim.protocol_batched.seed_matrix",
    "sim.protocol_batched.statistics_s": "sim.protocol_batched.statistics",
    "sim.protocol_batched.reduce_s": "sim.protocol_batched.reduce",
    "serve.batching.exec_self_s": "serve.batching.exec",
}


def layer_metrics(spans: list, busy_s: float, serve: dict | None) -> dict:
    """Every per-layer metric but the tracing overhead (run.py adds it)."""
    totals = layers.totals(spans)
    empty = layers.LayerTotals()

    def entry(name: str) -> layers.LayerTotals:
        return totals.get(name, empty)

    def median_us(name: str) -> float:
        durations = entry(name).durations
        return float(np.median(durations)) * 1e6 if durations else 0.0

    metrics = {
        metric: entry(span).self_seconds
        for metric, span in _SELF_SECONDS.items()
    }
    metrics.update(
        {
            "sim.batched.fresh_elements": entry("sim.batched.fresh").count,
            "api.resolve_us": median_us("api.resolve"),
            "serve.shard.submit_us": median_us("serve.shard.submit"),
            "serve.shard.deltas": len(
                entry("serve.shard.record_delta").durations
            ),
            "serve.shard.delta_merge_s": sum(
                entry("serve.shard.apply_telemetry").durations
            ),
            "obs.trace_coverage_frac": sum(
                t.self_seconds for t in totals.values()
            )
            / busy_s,
        }
    )
    metrics.update(serve if serve is not None else _NO_SERVE)
    return metrics


def run(
    name: str,
    seed: int,
    seconds: float,
    smoke: bool = False,
    trace: bool = False,
    spans_path: str | None = None,
    on_setup=None,
    **options,
) -> dict:
    """Set up, measure, check, and report one workload in this process.

    ``options`` reach the workload's constructor (``shards=`` for
    serve-sharded).
    """
    workload = WORKLOADS[name](seed, smoke=smoke, trace=trace, **options)
    workload.setup()
    if on_setup is not None:
        on_setup()
    recorder = layers.Recorder() if trace else None
    with layers.installed(recorder) if trace else contextlib.nullcontext():
        workload.measure(seconds)
    workload.close()
    outcome = workload.outcome()
    latencies = outcome.latencies_ms
    result = {
        "workload": name,
        "seed": seed,
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
        "digest": outcome.digest,
        "extras": {
            **outcome.extras,
            "latency_p90_ms": float(np.percentile(latencies, 90)),
            "latency_p99_ms": float(np.percentile(latencies, 99)),
            "operations": len(latencies),
        },
        "end_to_end": end_to_end(outcome),
        "environment": {"numpy": np.__version__},
    }
    if trace:
        result["per_layer"] = layer_metrics(
            recorder.spans, workload.busy_seconds(), workload.layers()
        )
        if spans_path is not None:
            layers.write_spans(recorder.spans, spans_path)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    def announce() -> None:
        print("SETUP", flush=True)

    if args.setup_only:
        workload = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
        workload.setup()
        announce()
        workload.close()
        return 0
    result = run(
        args.workload,
        args.seed,
        args.seconds,
        smoke=args.smoke,
        trace=args.trace,
        spans_path=args.spans,
        on_setup=announce,
    )
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
