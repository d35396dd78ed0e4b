"""Multi-process sharded serve scheduler: route, fan out, merge home.

One :class:`~repro.serve.service.EstimationService` event loop tops out
well below what the batched kernels can deliver — the GIL serializes
kernel threads and the scheduler shares its core with them.  This
module scales the same service *horizontally*:
:class:`ShardedService` is a front-end router that admission-checks
every submission (tenant quota and global backpressure, exactly as the
single-process service would) and hash-routes admitted requests by
**protocol-config group** to ``N`` worker shard processes, each running
an unmodified :class:`~repro.serve.service.EstimationService`
scheduler loop.

Design invariants:

* **Group-affine deterministic routing.**  :func:`route_shard` is a
  pure function of the request's protocol, canonical config, and
  population fingerprint — the same identity the micro-batcher fuses
  on — so requests that could fuse land on the same shard (coalescing
  survives sharding) and repeat requests land on the shard whose
  result cache holds them.  The hash is content-derived (CRC-32 of
  the canonical tuple), so the assignment is reproducible across
  processes, runs, and machines.
* **Router-strict admission.**  The router enforces the tenant quota
  and the global queue bound over *total in-flight* requests before
  anything crosses a process boundary.  Because the router is at
  least as strict as any worker (worker backlog is a subset of the
  router's in-flight set), workers never reject — so the set of
  rejected requests for a given submission order is identical for 1,
  2, or 4 shards.
* **Bit-identity.**  A request answered by a shard passes through the
  same resolve → fuse → kernel pipeline as the single-process
  service; under the same seed the response is byte-identical
  regardless of shard count or cache state
  (``tests/serve/test_shard.py::TestBitIdentity`` asserts the full
  {1,2,4} × {cache on,off} matrix).
* **Zero-copy shared populations.**  Requests naming a synthesized
  population (``population_seed``) share one
  :class:`~repro.sim.shm.SharedArray` of tag IDs per ``(size, seed)``
  field: the router synthesizes once, ships the picklable spec with
  the first request routed to each shard, and the worker attaches and
  wraps it via :meth:`~repro.tags.population.TagPopulation.from_sorted_ids`
  without copying or re-deriving IDs.
* **Telemetry merges home as deltas only.**  Each worker runs its own
  :class:`~repro.obs.registry.MetricsRegistry` and ships it home as a
  stream of registry **deltas**
  (:class:`~repro.obs.registry.DeltaSnapshotter`: counter increments,
  histogram stat increments, changed gauges, new spans/events).  With
  ``ServiceConfig.snapshot_interval_seconds`` set, a heartbeat delta
  goes out every interval; either way the last message is a final
  delta at shutdown, so a stop-time-only run is a delta stream of
  length one.  The router merges each delta the moment it arrives and
  :class:`FleetStatus` re-publishes the per-shard attribution gauges
  and the fleet SLO burn rates (re-derived from the additive window
  totals via :func:`~repro.obs.slo.merge_slo_gauges`) through one
  code path in both modes, so the live ``/metrics`` endpoint serves
  merged mid-run state.  Deltas never repeat what an earlier one
  shipped, so nothing is double-counted.  Traces cross the hop too:
  the router opens a ``serve.route`` span and ships its context
  inside the request, so the worker's ``serve.request`` span (and the
  ``kernel`` spans beneath it, each tagged ``shard``) nest under it in
  one ``/traces/<id>`` waterfall.
* **Shard health watchdog** (only with an interval set).
  :class:`FleetStatus` also rides the heartbeat stream: per-shard
  liveness/lag gauges (``serve.shard.<i>.heartbeat_age_seconds`` /
  ``.queue_depth`` / ``.inflight``), an EWMA stall detector
  (:class:`~repro.obs.monitor.HeartbeatMonitor` — ``fleet.stall``
  events + ``fleet.stall.alerts``), and a ``/healthz`` verdict that
  degrades to ``"degraded"`` / ``"unhealthy"`` with a per-shard
  breakdown when a worker misses ``heartbeat_misses`` heartbeats or
  its process dies.  The status object attaches to the router
  registry (``registry.fleet``) so the scrape endpoint picks it up
  without extra wiring.

Router-side metric names:

==========================================  ==========================
``serve.router.requests``                   counter: submissions seen
``serve.router.rejected``                   counter: backpressure
``serve.router.inflight``                   gauge: in-flight
``serve.shard.<i>.routed``                  counter: routed to shard
``serve.shard.<i>.requests``                gauge: answered by shard
``serve.shard.<i>.cache_hits``              gauge: shard cache hits
``serve.shard.<i>.cache_misses``            gauge: shard cache misses
``serve.shard.<i>.heartbeat_age_seconds``   gauge: watchdog lag
``serve.shard.<i>.queue_depth``             gauge: worker backlog
``serve.shard.<i>.inflight``                gauge: worker in-flight
``serve.shard.<i>.p99_seconds``             gauge: shard p99 latency
``serve.shard.<i>.burn_rate_fast``          gauge: shard burn rate
``fleet.stall.alerts``                      counter: watchdog alerts
==========================================  ==========================

The ``heartbeat_age_seconds``, ``queue_depth`` and ``inflight`` gauges
and ``fleet.stall.alerts`` belong to the watchdog and need an
interval; every other row is published in both modes.

Router SLO note: rejections the router answers itself appear in the
merged ``serve.requests.rejected`` counter, while the ``serve.slo.*``
burn-rate gauges aggregate the shard trackers (worker-answered
traffic).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import dataclasses
import multiprocessing
import threading
import time
import traceback
import zlib
from dataclasses import dataclass
from queue import Empty
from typing import Sequence

import numpy as np

from ..api import (
    EstimateRequest,
    EstimateResponse,
    RESPONSE_STATUSES,
    respond,
)
from ..errors import ConfigurationError, ServiceError
from ..obs.metrics import Histogram
from ..obs.monitor import HeartbeatMonitor
from ..obs.registry import (
    NULL_REGISTRY,
    DeltaSnapshotter,
    MetricsRegistry,
    get_registry,
)
from ..obs.slo import merge_slo_gauges, publish_shard_slo
from ..obs.tracectx import TraceContext, current_trace
from ..sim.shm import SharedArray, SharedArraySpec
from ..tags.population import TagPopulation
from .service import EstimationService, ServiceConfig

#: Seconds the collector waits per poll before re-checking liveness.
_COLLECT_POLL_SECONDS = 0.5


def _group_key(request: EstimateRequest) -> tuple:
    """The routing identity: fusion group + population fingerprint.

    Matches the micro-batcher's fusion key (protocol + canonical
    config) extended with the population fingerprint, so fusible
    requests co-locate and cache keys stay shard-affine.
    """
    if isinstance(request.population, (int, np.integer)):
        population: tuple = (
            "n",
            int(request.population),
            None
            if request.population_seed is None
            else int(request.population_seed),
        )
    else:
        # Explicit populations / ID iterables have object identity
        # only; route them all to one bucket rather than hashing
        # unbounded ID lists on the hot path.
        population = ("explicit",)
    return (
        request.protocol,
        tuple(
            sorted(
                (key, repr(value))
                for key, value in request.config.items()
            )
        ),
        population,
    )


def route_shard(request: EstimateRequest, shards: int) -> int:
    """Deterministic shard index for ``request`` (pure function).

    Stable across processes, runs, and machines: the CRC-32 of the
    canonical group key, reduced mod ``shards``.
    """
    if shards <= 1:
        return 0
    digest = zlib.crc32(repr(_group_key(request)).encode("utf-8"))
    return digest % shards


def _mp_context():
    """Fork when available (cheap, shares imports), else spawn.

    Resolving the *global* default start method here (a no-op pin to
    the platform default) matters for shared memory: with it unset,
    :meth:`SharedArray.attach`'s cpython#82300 guard cannot tell fork
    from spawn and mis-books the attach with the resource tracker.
    """
    multiprocessing.get_start_method(allow_none=False)
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


# -- the worker side --------------------------------------------------


def _shard_worker(
    index: int,
    config: ServiceConfig,
    requests_queue,
    responses_queue,
    collect_telemetry: bool,
) -> None:
    """One shard process: an EstimationService fed from a queue.

    Message protocol (all picklable):

    * in: ``(ticket, request, ingress, population_payload)`` or the
      ``None`` stop sentinel;
    * out: ``("response", index, ticket, response)`` per request;
      when ``collect_telemetry`` is set, ``("telemetry", index,
      payload)`` messages whose payload carries a registry *delta*
      plus live queue depth/in-flight — one per
      ``snapshot_interval_seconds`` when an interval is set, and
      always a ``final`` one at shutdown — then ``("done", index)``;
      or ``("fatal", index, traceback)`` if the shard dies.
    """
    try:
        registry = (
            MetricsRegistry() if collect_telemetry else NULL_REGISTRY
        )
        service = EstimationService(
            config=config,
            registry=registry,
            shard_label=f"shard-{index}",
        )
        snapshotter = (
            DeltaSnapshotter(registry, worker_id=f"shard-{index}")
            if collect_telemetry
            else None
        )
        interval = (
            config.snapshot_interval_seconds
            if snapshotter is not None
            else None
        )
        # SharedArray handles must outlive every request using them.
        attached: dict[tuple, SharedArray] = {}

        def _telemetry_message(final: bool = False) -> tuple:
            # Force-publish the SLO window totals first so every delta
            # carries fresh additive good/bad counts for the router's
            # fleet-wide burn-rate re-derivation.
            if registry.slo is not None:
                registry.slo.publish(registry, force=True)
            return (
                "telemetry",
                index,
                {
                    "ts": time.perf_counter(),
                    "queue_depth": service.queue_depth,
                    "inflight": service.inflight,
                    "delta": snapshotter.delta(),
                    "final": final,
                },
            )

        async def _main() -> None:
            loop = asyncio.get_running_loop()
            tasks: set[asyncio.Task] = set()
            heartbeat_task: asyncio.Task | None = None

            async def _serve_one(ticket, request, ingress) -> None:
                try:
                    if request.deadline is not None:
                        # perf_counter is CLOCK_MONOTONIC — comparable
                        # across processes on one host — so the time
                        # spent in transit keeps counting against the
                        # caller's relative deadline.
                        elapsed = time.perf_counter() - ingress
                        request = dataclasses.replace(
                            request,
                            deadline=max(
                                request.deadline - elapsed, 0.0
                            ),
                        )
                    response = await service.submit(request)
                except Exception as error:
                    response = respond(
                        request,
                        "error",
                        submitted_at=ingress,
                        detail=f"shard-{index} failure: {error}",
                    )
                responses_queue.put(
                    ("response", index, ticket, response)
                )

            async def _heartbeat() -> None:
                # Heartbeats always flow — an idle interval ships a
                # (cheap) empty delta so the watchdog sees liveness
                # even when no metric moved.
                while True:
                    await asyncio.sleep(interval)
                    responses_queue.put(_telemetry_message())

            async with service:
                if interval:
                    heartbeat_task = loop.create_task(_heartbeat())
                try:
                    while True:
                        message = await loop.run_in_executor(
                            None, requests_queue.get
                        )
                        if message is None:
                            break
                        ticket, request, ingress, payload = message
                        if payload is not None:
                            key, spec = payload
                            if key not in attached:
                                shared = SharedArray.attach(
                                    spec, registry=registry
                                )
                                attached[key] = shared
                                # Pre-seed the service's population
                                # cache: resolve_request keys
                                # synthesized populations by
                                # (size, population_seed), so the
                                # shm-backed view substitutes for
                                # re-synthesis, bit-identically.
                                service._population_cache[key] = (
                                    TagPopulation.from_sorted_ids(
                                        shared.array
                                    )
                                )
                        task = loop.create_task(
                            _serve_one(ticket, request, ingress)
                        )
                        tasks.add(task)
                        task.add_done_callback(tasks.discard)
                    if tasks:
                        await asyncio.gather(*tasks)
                finally:
                    if heartbeat_task is not None:
                        heartbeat_task.cancel()
                        try:
                            await heartbeat_task
                        except asyncio.CancelledError:
                            pass

        asyncio.run(_main())
        for shared in attached.values():
            shared.close()
        if snapshotter is not None:
            # The shutdown flush is a delta too: it carries only what
            # the heartbeats (if any) have not already shipped.
            responses_queue.put(_telemetry_message(final=True))
        responses_queue.put(("done", index))
    except BaseException:
        responses_queue.put(
            ("fatal", index, traceback.format_exc())
        )


# -- the router side --------------------------------------------------


@dataclass
class _RouterPending:
    """One in-flight request awaiting its shard's response."""

    request: EstimateRequest
    future: concurrent.futures.Future
    ingress: float
    shard: int
    trace: TraceContext | None = None


#: Per-request statuses summed into ``serve.shard.<i>.requests``.
_LATENCY_HISTOGRAM = "serve.request.latency_seconds"


class FleetStatus:
    """Fleet state folded from the worker telemetry stream.

    The router feeds it two things per telemetry message:
    :meth:`record_heartbeat` (arrival time, queue depth, in-flight)
    and :meth:`record_delta` (the registry delta that rode along).
    From those it maintains, per shard, cumulative counters, the
    latest gauge values (including the additive SLO window totals),
    and a folded latency histogram — enough to re-derive every
    ``serve.shard.<i>.*`` gauge and the fleet-wide ``serve.slo.*``
    burn rates via :meth:`refresh`, mid-run or at stop.

    With an ``interval`` the watchdog runs too: stall detection
    delegates to :class:`~repro.obs.monitor.HeartbeatMonitor`, process
    death is checked through the ``alive`` callable the router
    provides, and :meth:`health` answers ``/healthz`` with a per-shard
    verdict.  Without one (``None``/``0``, stop-time-only telemetry)
    ``monitor`` is ``None``, the liveness gauges are not published and
    :meth:`health` reports ``ok`` with an empty shard map.  All
    methods take one internal lock: recorders run on the collector
    thread while :meth:`refresh`/:meth:`health` run on HTTP scrape
    threads.
    """

    def __init__(
        self,
        shards: int,
        interval: float | None,
        misses: int = 2,
        registry: MetricsRegistry | None = None,
        alive=None,
    ):
        if shards < 1:
            raise ConfigurationError(
                f"shards must be >= 1, got {shards}"
            )
        self.shards = shards
        self.interval = interval
        self._alive = alive
        self._lock = threading.Lock()
        self._started = time.perf_counter()
        self._stopped: float | None = None
        self._last_beat: dict[int, float] = {}
        self._queue_depth: dict[int, int] = {}
        self._inflight: dict[int, int] = {}
        self._counters: dict[int, dict[str, float]] = {}
        self._gauges: dict[int, dict[str, float]] = {}
        self._latency: dict[int, Histogram] = {}
        self.monitor = (
            HeartbeatMonitor(interval, misses=misses, registry=registry)
            if interval
            else None
        )

    # -- feeding (collector thread) -----------------------------------

    def record_heartbeat(
        self, shard: int, ts: float, queue_depth: int, inflight: int
    ) -> None:
        """Fold one heartbeat's liveness signals."""
        with self._lock:
            previous = self._last_beat.get(shard)
            self._last_beat[shard] = ts
            self._queue_depth[shard] = queue_depth
            self._inflight[shard] = inflight
        if previous is not None and self.monitor is not None:
            self.monitor.beat(shard, ts - previous)

    def record_delta(self, shard: int, delta) -> None:
        """Fold one registry delta into the shard's running totals."""
        with self._lock:
            counters = self._counters.setdefault(shard, {})
            for name, increment in delta.counters.items():
                counters[name] = counters.get(name, 0.0) + increment
            self._gauges.setdefault(shard, {}).update(delta.gauges)
            stats = delta.histograms.get(_LATENCY_HISTOGRAM)
            if stats is not None:
                histogram = self._latency.get(shard)
                if histogram is None:
                    histogram = Histogram(_LATENCY_HISTOGRAM)
                    self._latency[shard] = histogram
                histogram.count += stats["count"]
                histogram.total += stats["total"]
                histogram.sum_squares += stats["sum_squares"]
                histogram.min = min(histogram.min, stats["min"])
                histogram.max = max(histogram.max, stats["max"])
                for position, added in enumerate(stats["buckets"]):
                    histogram.buckets[position] += added

    def mark_stopped(self) -> None:
        """Freeze the clock: ages stop growing, stalls stop firing."""
        with self._lock:
            self._stopped = time.perf_counter()

    # -- publishing (scrape threads) ----------------------------------

    def _age(self, shard: int, now: float) -> float:
        anchor = self._last_beat.get(shard, self._started)
        return max(0.0, now - anchor)

    def _now(self) -> float:
        return (
            self._stopped
            if self._stopped is not None
            else time.perf_counter()
        )

    def refresh(self, registry) -> None:
        """Re-publish every fleet gauge from current folded state.

        Called by the collector after each applied delta, at stop, and
        by the ``/metrics`` handler right before rendering, so scrapes
        always see heartbeat ages measured *now*, not at the last
        arrival.  The liveness gauges need the watchdog.
        """
        with self._lock:
            now = self._now()
            slo_snapshots = []
            for shard in range(self.shards):
                prefix = f"serve.shard.{shard}"
                if self.monitor is not None:
                    registry.gauge(
                        f"{prefix}.heartbeat_age_seconds"
                    ).set(self._age(shard, now))
                    registry.gauge(f"{prefix}.queue_depth").set(
                        self._queue_depth.get(shard, 0)
                    )
                    registry.gauge(f"{prefix}.inflight").set(
                        self._inflight.get(shard, 0)
                    )
                counters = self._counters.get(shard, {})
                answered = sum(
                    counters.get(f"serve.requests.{status}", 0.0)
                    for status in RESPONSE_STATUSES
                )
                registry.gauge(f"{prefix}.requests").set(answered)
                registry.gauge(f"{prefix}.cache_hits").set(
                    counters.get("serve.cache.hits", 0.0)
                )
                registry.gauge(f"{prefix}.cache_misses").set(
                    counters.get("serve.cache.misses", 0.0)
                )
                histogram = self._latency.get(shard)
                if histogram is not None and histogram.count:
                    registry.gauge(f"{prefix}.p99_seconds").set(
                        histogram.quantile(0.99)
                    )
                gauges = self._gauges.get(shard, {})
                publish_shard_slo(registry, shard, gauges)
                if "serve.slo.good_fast" in gauges or (
                    "serve.slo.bad_fast" in gauges
                ):
                    slo_snapshots.append({"gauges": gauges})
            if slo_snapshots:
                merge_slo_gauges(registry, slo_snapshots)

    def health(self) -> dict:
        """The ``/healthz`` fleet verdict: overall + per-shard.

        Per shard: ``"dead"`` when its process is gone, ``"stalled"``
        when its heartbeat age exceeds the watchdog threshold,
        ``"ok"`` otherwise.  Overall: every shard ok → ``"ok"``, none
        ok → ``"unhealthy"``, anything between → ``"degraded"``.
        After :meth:`mark_stopped` the run is complete and everything
        reports ok with frozen ages.  Without the watchdog the shard
        map is empty.
        """
        if self.monitor is None:
            return {"status": "ok", "shards": {}}
        with self._lock:
            now = self._now()
            stopped = self._stopped is not None
            shards: dict[str, dict] = {}
            healthy = 0
            for shard in range(self.shards):
                age = self._age(shard, now)
                status = "ok"
                if not stopped:
                    alive = (
                        self._alive(shard)
                        if self._alive is not None
                        else True
                    )
                    if not alive:
                        status = "dead"
                    elif self.monitor.check(shard, age):
                        status = "stalled"
                if status == "ok":
                    healthy += 1
                shards[str(shard)] = {
                    "status": status,
                    "heartbeat_age_seconds": age,
                    "queue_depth": self._queue_depth.get(shard, 0),
                    "inflight": self._inflight.get(shard, 0),
                }
            if healthy == self.shards:
                overall = "ok"
            elif healthy == 0:
                overall = "unhealthy"
            else:
                overall = "degraded"
            return {"status": overall, "shards": shards}


class ShardedService:
    """Front-end router over ``shards`` worker service processes.

    Usage (synchronous — the router is thread-based, the event loops
    live in the workers)::

        with ShardedService(shards=4) as service:
            future = service.submit(EstimateRequest(...))
            response = future.result()

    ``submit`` returns a :class:`concurrent.futures.Future` resolved
    by the collector thread when the owning shard answers.  Router
    admission rejections resolve immediately.
    """

    def __init__(
        self,
        shards: int = 2,
        config: ServiceConfig | None = None,
        registry: MetricsRegistry | None = None,
    ):
        if shards < 1:
            raise ConfigurationError(
                f"shards must be >= 1, got {shards}"
            )
        self.shards = shards
        self.config = config or ServiceConfig()
        self._registry = (
            registry if registry is not None else get_registry()
        )
        self._context = _mp_context()
        self._request_queues: list = []
        # One response queue per shard (single producer each): a
        # SIGKILLed worker can wedge at most its own pipe's write
        # lock, never a sibling's — which is what lets the watchdog
        # observe a killed shard while the rest keep answering.
        self._response_queues: list = []
        self._processes: list = []
        self._collector: threading.Thread | None = None
        self._lock = threading.Lock()
        self._pending: dict[int, _RouterPending] = {}
        self._inflight = 0
        self._inflight_by_tenant: dict[str, int] = {}
        self._next_ticket = 0
        self._accepting = False
        self._fatal: list[str] = []
        self._shared_populations: dict[tuple, SharedArray] = {}
        self._published: set[tuple] = set()
        #: Folded fleet telemetry; set by :meth:`start` when the
        #: registry collects.  Its watchdog runs only when
        #: ``snapshot_interval_seconds`` is configured.
        self.fleet: FleetStatus | None = None

    # -- lifecycle ----------------------------------------------------

    def start(self) -> "ShardedService":
        """Spawn the worker processes and the collector thread."""
        if self._processes:
            raise ServiceError("sharded service is already started")
        collect = bool(self._registry)
        # Start the shared-memory resource tracker *before* forking:
        # forked workers must inherit the live tracker so attach
        # registrations deduplicate against the router's create
        # instead of spawning per-worker trackers that warn (and try
        # to clean) at exit.
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
        if collect:
            self.fleet = FleetStatus(
                shards=self.shards,
                interval=self.config.snapshot_interval_seconds,
                misses=self.config.heartbeat_misses,
                registry=self._registry,
                alive=self._shard_alive,
            )
            # /metrics and /healthz find the fleet through the
            # registry — no extra server wiring needed.
            self._registry.attach_diagnostics(fleet=self.fleet)
        for index in range(self.shards):
            requests_queue = self._context.Queue()
            self._request_queues.append(requests_queue)
            responses_queue = self._context.Queue()
            self._response_queues.append(responses_queue)
            process = self._context.Process(
                target=_shard_worker,
                args=(
                    index,
                    self.config,
                    requests_queue,
                    responses_queue,
                    collect,
                ),
                daemon=True,
                name=f"repro-serve-shard-{index}",
            )
            process.start()
            self._processes.append(process)
        self._collector = threading.Thread(
            target=self._collect, name="repro-serve-router", daemon=True
        )
        self._collector.start()
        self._accepting = True
        return self

    def stop(self) -> None:
        """Drain every shard, publish final telemetry, release memory."""
        if not self._processes:
            raise ServiceError("sharded service was never started")
        self._accepting = False
        for requests_queue in self._request_queues:
            requests_queue.put(None)
        if self._collector is not None:
            self._collector.join()
            self._collector = None
        for process in self._processes:
            process.join(timeout=10.0)
        self._processes.clear()
        self._request_queues.clear()
        self._response_queues.clear()
        registry = self._registry
        if self.fleet is not None:
            # Every delta (including each worker's final flush) was
            # applied as it arrived; only the ages need freezing.
            self.fleet.mark_stopped()
            self.fleet.refresh(registry)
        for shared in self._shared_populations.values():
            shared.close()
            shared.unlink(registry=registry if registry else None)
        self._shared_populations.clear()
        self._published.clear()
        # The never-lose-a-caller contract: anything still pending
        # after every shard drained (a fatal shard) gets an error.
        with self._lock:
            leftovers = list(self._pending.values())
            self._pending.clear()
        for pending in leftovers:
            if not pending.future.done():
                pending.future.set_result(
                    respond(
                        pending.request,
                        "error",
                        submitted_at=pending.ingress,
                        detail=(
                            "shard terminated before answering"
                            + (
                                f": {self._fatal[0]}"
                                if self._fatal
                                else ""
                            )
                        ),
                    )
                )

    def __enter__(self) -> "ShardedService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _shard_alive(self, index: int) -> bool:
        """Process liveness probe the watchdog uses (thread-safe)."""
        try:
            process = self._processes[index]
        except IndexError:
            return False
        return process.is_alive()

    def fleet_health(self) -> dict:
        """The watchdog verdict (``{"status": ..., "shards": {...}}``).

        Empty-fleet shape (``{"status": "ok", "shards": {}}``) when
        the watchdog is off — the ``/healthz`` schema stays stable
        either way.
        """
        if self.fleet is None:
            return {"status": "ok", "shards": {}}
        return self.fleet.health()

    # -- submission ---------------------------------------------------

    def submit(
        self, request: EstimateRequest
    ) -> "concurrent.futures.Future[EstimateResponse]":
        """Route one request; the future resolves with its response.

        Mirrors :meth:`EstimationService.submit` semantics: load
        conditions (quota, backpressure) resolve the future with a
        ``rejected`` response immediately; only submitting to a
        stopped router raises.
        """
        if not self._accepting:
            raise ServiceError(
                "sharded service is not accepting requests (not "
                "started or already stopping)"
            )
        ingress = time.perf_counter()
        registry = self._registry
        trace: TraceContext | None = None
        if registry and self.config.trace_requests:
            parent = request.trace_context or current_trace()
            trace = (
                parent.child()
                if parent is not None
                else TraceContext.root()
            )
        shard = route_shard(request, self.shards)
        tenant = request.tenant
        future: concurrent.futures.Future = concurrent.futures.Future()
        with self._lock:
            held = self._inflight_by_tenant.get(tenant, 0)
            if held >= self.config.tenant_quota:
                return self._reject(
                    request,
                    future,
                    trace,
                    ingress,
                    shard,
                    reason="tenant_quota",
                    detail=(
                        f"tenant {tenant!r} quota exhausted "
                        f"({held}/{self.config.tenant_quota} pending)"
                    ),
                )
            if self._inflight >= self.config.max_queue_depth:
                return self._reject(
                    request,
                    future,
                    trace,
                    ingress,
                    shard,
                    reason="queue_full",
                    detail=(
                        f"queue full ({self._inflight}/"
                        f"{self.config.max_queue_depth})"
                    ),
                )
            ticket = self._next_ticket
            self._next_ticket += 1
            self._inflight += 1
            self._inflight_by_tenant[tenant] = held + 1
            self._pending[ticket] = _RouterPending(
                request=request,
                future=future,
                ingress=ingress,
                shard=shard,
                trace=trace,
            )
            payload = self._population_payload(request, shard)
        if registry:
            registry.counter("serve.router.requests").inc()
            registry.counter(f"serve.shard.{shard}.routed").inc()
            registry.gauge("serve.router.inflight").set(
                self._inflight
            )
        shipped = request
        if trace is not None:
            # The worker joins this context: its serve.request span
            # becomes a child of the router's serve.route span, so
            # /traces/<id> shows one waterfall across the hop.
            shipped = dataclasses.replace(
                request, trace_context=trace
            )
        self._request_queues[shard].put(
            (ticket, shipped, ingress, payload)
        )
        return future

    def _population_payload(self, request: EstimateRequest, shard: int):
        """Shared-population handle for ``request``'s first hop, if any.

        Called under the router lock.  Synthesizes the population once
        per ``(size, population_seed)`` field, copies it into shared
        memory, and ships the spec with the first request routed to
        each shard; later requests resolve from the worker's cache.
        """
        if (
            request.population_seed is None
            or not isinstance(request.population, (int, np.integer))
            or int(request.population) <= 0
        ):
            return None
        key = (int(request.population), int(request.population_seed))
        shared = self._shared_populations.get(key)
        if shared is None:
            population = TagPopulation.random(
                key[0], np.random.default_rng(key[1])
            )
            shared = SharedArray.create(
                population.tag_ids,
                registry=self._registry if self._registry else None,
            )
            self._shared_populations[key] = shared
        if (shard, key) in self._published:
            return None
        self._published.add((shard, key))
        return (key, shared.spec)

    def _reject(
        self,
        request: EstimateRequest,
        future: concurrent.futures.Future,
        trace: TraceContext | None,
        ingress: float,
        shard: int,
        reason: str,
        detail: str,
    ) -> concurrent.futures.Future:
        """Answer a router-level backpressure rejection (no hop)."""
        response = respond(
            request,
            "rejected",
            submitted_at=ingress,
            retry_after=self.config.retry_after_seconds,
            detail=detail,
            trace_id=trace.trace_id if trace is not None else None,
        )
        registry = self._registry
        if registry:
            registry.counter("serve.router.requests").inc()
            registry.counter("serve.router.rejected").inc()
            registry.counter("serve.requests.rejected").inc()
            registry.counter(
                f"serve.tenant.{request.tenant}.requests"
            ).inc()
            if trace is not None:
                registry.record_span(
                    "serve.route",
                    start=ingress,
                    seconds=time.perf_counter() - ingress,
                    trace=trace,
                    status="rejected",
                    rung="backpressure",
                    reason=reason,
                    shard=f"shard-{shard}",
                    tenant=request.tenant,
                    protocol=request.protocol,
                )
        future.set_result(response)
        return future

    # -- the collector thread -----------------------------------------

    def _collect(self) -> None:
        """Resolve futures as shards answer; fold telemetry as it lands.

        Round-robins over the per-shard response queues.  A shard is
        finished when it sends ``done``/``fatal`` — or when its
        process is found dead with an empty queue (SIGKILL leaves no
        marker), in which case its pending callers fail over
        immediately instead of waiting for ``stop()``.
        """
        poll = _COLLECT_POLL_SECONDS / max(self.shards, 1)
        finished: set[int] = set()
        while len(finished) < self.shards:
            for index, queue in enumerate(self._response_queues):
                if index in finished:
                    continue
                try:
                    message = queue.get(timeout=poll)
                except Empty:
                    if not self._processes[index].is_alive():
                        finished.add(index)
                        self._fail_shard(
                            index,
                            "shard process died unexpectedly",
                        )
                    continue
                # Drain whatever else is already queued before moving
                # to the next shard, so one chatty shard never waits
                # behind a quiet sibling's poll timeout.
                while True:
                    self._dispatch(message, finished)
                    try:
                        message = queue.get_nowait()
                    except Empty:
                        break

    def _dispatch(self, message, finished: set[int]) -> None:
        """Apply one worker message on the collector thread."""
        kind = message[0]
        if kind == "response":
            _, _, ticket, response = message
            self._finish(ticket, response)
        elif kind == "telemetry":
            self._apply_telemetry(message[1], message[2])
        elif kind == "done":
            finished.add(message[1])
        elif kind == "fatal":
            _, index, text = message
            self._fatal.append(text)
            finished.add(index)
            self._fail_shard(index, text)

    def _apply_telemetry(self, index: int, payload: dict) -> None:
        """Fold one worker delta: merge it, refresh the fleet gauges.

        Runs on the collector thread.  The registry merge is safe
        against concurrent scrapes for the same reason the scrape
        handlers read without locks: counters/histograms mutate
        in-place under the GIL and the trace log is append-only.
        Workers only send telemetry when the registry collects, so
        ``fleet`` is always set here.
        """
        fleet = self.fleet
        fleet.record_heartbeat(
            index,
            payload["ts"],
            payload["queue_depth"],
            payload["inflight"],
        )
        delta = payload["delta"]
        if delta is not None:
            self._registry.merge(delta)
            fleet.record_delta(index, delta)
        fleet.refresh(self._registry)

    def _finish(self, ticket: int, response: EstimateResponse) -> None:
        """Account one answered request and resolve its future."""
        with self._lock:
            pending = self._pending.pop(ticket, None)
            if pending is None:
                return
            self._inflight -= 1
            tenant = pending.request.tenant
            held = self._inflight_by_tenant.get(tenant, 1)
            if held <= 1:
                self._inflight_by_tenant.pop(tenant, None)
            else:
                self._inflight_by_tenant[tenant] = held - 1
        end = time.perf_counter()
        # The worker measured its own submit-to-answer time; the
        # caller cares about end-to-end including both hops.
        response = dataclasses.replace(
            response, latency_seconds=end - pending.ingress
        )
        registry = self._registry
        if registry:
            registry.gauge("serve.router.inflight").set(
                self._inflight
            )
            if pending.trace is not None:
                registry.record_span(
                    "serve.route",
                    start=pending.ingress,
                    seconds=end - pending.ingress,
                    trace=pending.trace,
                    status=response.status,
                    shard=f"shard-{pending.shard}",
                    tenant=pending.request.tenant,
                    protocol=pending.request.protocol,
                )
        pending.future.set_result(response)

    def _fail_shard(self, index: int, text: str) -> None:
        """Answer every request pending on a fatally dead shard."""
        with self._lock:
            tickets = [
                ticket
                for ticket, pending in self._pending.items()
                if pending.shard == index
            ]
            failed = [self._pending.pop(ticket) for ticket in tickets]
            for pending in failed:
                self._inflight -= 1
                tenant = pending.request.tenant
                held = self._inflight_by_tenant.get(tenant, 1)
                if held <= 1:
                    self._inflight_by_tenant.pop(tenant, None)
                else:
                    self._inflight_by_tenant[tenant] = held - 1
        for pending in failed:
            if not pending.future.done():
                pending.future.set_result(
                    respond(
                        pending.request,
                        "error",
                        submitted_at=pending.ingress,
                        detail=f"shard-{index} died: {text.strip().splitlines()[-1] if text else 'unknown'}",
                    )
                )


def run_sharded(
    requests: Sequence[EstimateRequest],
    shards: int = 2,
    config: ServiceConfig | None = None,
    registry: MetricsRegistry | None = None,
    concurrency: int = 64,
) -> list[EstimateResponse]:
    """Drive ``requests`` through a fresh sharded service, in order.

    The sharded sibling of
    :func:`~repro.serve.service.run_requests`: at most ``concurrency``
    requests are in flight at once, submissions happen in sequence
    order (which makes quota/backpressure outcomes deterministic), and
    responses come back in request order.
    """
    if concurrency < 1:
        raise ConfigurationError(
            f"concurrency must be >= 1, got {concurrency}"
        )
    gate = threading.Semaphore(concurrency)
    futures: list[concurrent.futures.Future] = []
    with ShardedService(
        shards=shards, config=config, registry=registry
    ) as service:
        for request in requests:
            gate.acquire()
            future = service.submit(request)
            future.add_done_callback(lambda _f: gate.release())
            futures.append(future)
        responses = [future.result() for future in futures]
    return responses
