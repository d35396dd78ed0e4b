"""CLI entries for the estimation service: ``serve`` and ``loadgen``.

``python -m repro serve`` runs the micro-batching service as a
JSON-lines server on stdin/stdout: every input line is one request
object, every output line one response.  Concurrent lines coalesce
into shared kernel calls exactly as library submissions do::

    $ echo '{"population": 50000, "seed": 7, "rounds": 128}' \\
        | python -m repro serve
    {"status": "ok", "tenant": "default", ... "result": {...}}

Request lines accept the :class:`~repro.api.EstimateRequest` fields
(``population`` is required; ``protocol``, ``seed``,
``population_seed``, ``rounds``, ``accuracy`` as ``[epsilon, delta]``,
``tenant``, ``deadline``, ``request_id``, plus a ``config`` object of
protocol keywords).  EOF shuts the service down gracefully — every
accepted request is answered first.

``python -m repro loadgen`` generates a Poisson or bursty workload
(see :mod:`repro.serve.loadgen`), drives it through an in-process
service, and prints the SLO report; the exit code is non-zero when
any response is ``error``-class, which is what the CI smoke step
asserts.  ``--dry-run`` prints the schedule instead of running it.

Both commands take ``--prom-out PATH`` to write the final metrics in
OpenMetrics text format (queue gauges, latency histogram, per-tenant
counters — the catalogue in ``docs/SERVING.md``), ``--metrics-port``
to expose a live scrape endpoint (``/metrics`` with exemplars,
``/healthz``, ``/traces/<id>``; ``--metrics-hold`` keeps it up after
the workload drains), and ``--trace-out PATH`` to append every
finished span as a JSON line for ``python -m repro traceview``.
Request lines may carry a ``trace_context`` object
(``{"trace_id": ..., "span_id": ...}``) to join a caller's
distributed trace.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time

from ..api import EstimateRequest
from ..config import AccuracyRequirement
from ..errors import ReproError
from ..obs import (
    ConsoleSummaryExporter,
    MetricsRegistry,
    TraceContext,
    write_span_trace,
)
from .loadgen import (
    PATTERNS,
    LoadgenConfig,
    build_schedule,
    run_load,
)
from .service import EstimationService, ServiceConfig


def request_from_record(record: dict) -> EstimateRequest:
    """Build an :class:`~repro.api.EstimateRequest` from a JSON object."""
    if not isinstance(record, dict):
        raise ReproError(
            f"request line must be a JSON object, got {type(record).__name__}"
        )
    if "population" not in record:
        raise ReproError("request object needs a 'population' field")
    accuracy = record.get("accuracy")
    if accuracy is not None:
        epsilon, delta = accuracy
        accuracy = AccuracyRequirement(float(epsilon), float(delta))
    known = {
        "population",
        "protocol",
        "config",
        "seed",
        "population_seed",
        "rounds",
        "accuracy",
        "tenant",
        "deadline",
        "request_id",
        "trace_context",
    }
    unknown = sorted(set(record) - known)
    if unknown:
        raise ReproError(f"unknown request fields: {unknown}")
    trace_context = record.get("trace_context")
    if trace_context is not None:
        if not isinstance(trace_context, dict):
            raise ReproError("'trace_context' must be a JSON object")
        trace_context = TraceContext.from_dict(trace_context)
    return EstimateRequest(
        population=record["population"],
        protocol=record.get("protocol", "pet"),
        config=record.get("config", {}),
        seed=record.get("seed"),
        population_seed=record.get("population_seed"),
        rounds=record.get("rounds"),
        accuracy=accuracy,
        tenant=record.get("tenant", "default"),
        deadline=record.get("deadline"),
        request_id=record.get("request_id"),
        trace_context=trace_context,
    )


def _service_config(args: argparse.Namespace) -> ServiceConfig:
    return ServiceConfig(
        max_queue_depth=args.max_queue_depth,
        max_batch_size=args.max_batch_size,
        tick_seconds=args.tick,
        tenant_quota=args.tenant_quota,
        retry_after_seconds=args.retry_after,
        cache=args.cache,
        cache_size=args.cache_size,
        snapshot_interval_seconds=(
            args.snapshot_interval if args.snapshot_interval else None
        ),
        heartbeat_misses=args.heartbeat_misses,
    )


def _add_service_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-queue-depth",
        type=int,
        default=ServiceConfig.max_queue_depth,
        help="pending-request bound before backpressure rejections",
    )
    parser.add_argument(
        "--max-batch-size",
        type=int,
        default=ServiceConfig.max_batch_size,
        help="most requests coalesced into one drained batch",
    )
    parser.add_argument(
        "--tick",
        type=float,
        default=ServiceConfig.tick_seconds,
        help=(
            "opt-in fixed coalescing window in seconds before each"
            " drain; the default 0 drains at once and coalesces the"
            " requests that arrive while a batch runs"
        ),
    )
    parser.add_argument(
        "--tenant-quota",
        type=int,
        default=ServiceConfig.tenant_quota,
        help="most pending requests any one tenant may hold",
    )
    parser.add_argument(
        "--retry-after",
        type=float,
        default=ServiceConfig.retry_after_seconds,
        help="back-off hint (seconds) on backpressure rejections",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help=(
            "worker shard processes behind the hash router; 1 runs"
            " the single-process service in-process"
        ),
    )
    parser.add_argument(
        "--snapshot-interval",
        type=float,
        metavar="SECONDS",
        default=1.0,
        help=(
            "seconds between worker telemetry snapshots in sharded"
            " runs (delta-streamed heartbeats keep /metrics and"
            " /healthz live mid-run; 0 disables streaming and merges"
            " telemetry only at shutdown)"
        ),
    )
    parser.add_argument(
        "--heartbeat-misses",
        type=int,
        metavar="N",
        default=ServiceConfig.heartbeat_misses,
        help=(
            "consecutive missed heartbeats before the watchdog marks"
            " a shard stalled on /healthz"
        ),
    )
    parser.add_argument(
        "--no-cache",
        dest="cache",
        action="store_false",
        help="disable the cross-tick idempotent result cache",
    )
    parser.add_argument(
        "--cache-size",
        type=int,
        default=ServiceConfig.cache_size,
        help="LRU bound (entries) of the per-shard result cache",
    )
    parser.add_argument(
        "--prom-out",
        metavar="PATH",
        default=None,
        help="write final metrics in OpenMetrics text format to PATH",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        metavar="PORT",
        default=None,
        help=(
            "serve /metrics (OpenMetrics with exemplars), /healthz, and"
            " /traces/<id> on this port while running (0 = ephemeral)"
        ),
    )
    parser.add_argument(
        "--metrics-hold",
        type=float,
        metavar="SECONDS",
        default=0.0,
        help=(
            "keep the metrics endpoint up this many seconds after the"
            " workload finishes (lets scrapers catch the final state)"
        ),
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help=(
            "append every finished span as a JSON line to PATH"
            " (render with 'python -m repro traceview --trace-file')"
        ),
    )


def _serve_stdin_sharded(service, lines) -> tuple[int, int]:
    """Sharded sibling of :func:`_serve_stdin` (thread-based router).

    Responses print from the collector's done-callbacks under a write
    lock, so lines stay whole; ordering follows completion, with
    ``request_id`` as the correlation handle, as in the async path.
    """
    import concurrent.futures
    import threading

    write_lock = threading.Lock()
    futures = []
    parse_failures = 0

    def _emit(future) -> None:
        response = future.result()
        with write_lock:
            print(json.dumps(response.to_dict()), flush=True)

    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            request = request_from_record(json.loads(line))
        except (ValueError, ReproError) as error:
            parse_failures += 1
            with write_lock:
                print(
                    json.dumps(
                        {"status": "error", "detail": str(error)}
                    ),
                    flush=True,
                )
            continue
        future = service.submit(request)
        future.add_done_callback(_emit)
        futures.append(future)
    if futures:
        concurrent.futures.wait(futures)
    return len(futures), parse_failures


async def _serve_stdin(
    service: EstimationService, lines
) -> tuple[int, int]:
    """Submit every stdin line concurrently; write answers as lines.

    Returns ``(answered, parse_failures)``.  Output lines may
    interleave out of input order — ``request_id`` is the correlation
    handle, exactly as on a network transport.
    """
    loop = asyncio.get_running_loop()
    tasks = []
    parse_failures = 0

    async def _one(request: EstimateRequest) -> None:
        response = await service.submit(request)
        print(json.dumps(response.to_dict()), flush=True)

    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            request = request_from_record(json.loads(line))
        except (ValueError, ReproError) as error:
            parse_failures += 1
            print(
                json.dumps(
                    {"status": "error", "detail": str(error)}
                ),
                flush=True,
            )
            continue
        tasks.append(loop.create_task(_one(request)))
        # Yield so the scheduler can interleave with line ingestion.
        await asyncio.sleep(0)
    if tasks:
        await asyncio.gather(*tasks)
    return len(tasks), parse_failures


def _write_prom(path: str | None, registry: MetricsRegistry) -> None:
    if path is None:
        return
    from ..obs import PrometheusExporter

    PrometheusExporter(path).export(registry)
    print(f"OpenMetrics written to {path}", file=sys.stderr)


def _start_metrics_server(args: argparse.Namespace, registry):
    """Start the live scrape endpoint when ``--metrics-port`` is set."""
    if args.metrics_port is None:
        return None
    from ..obs import MetricsServer

    server = MetricsServer(registry, port=args.metrics_port).start()
    print(f"metrics endpoint listening on {server.url}", file=sys.stderr)
    return server


def _finish_telemetry(
    args: argparse.Namespace, registry: MetricsRegistry, server
) -> None:
    """Final exports: prom file, span trace file, endpoint hold+stop."""
    _write_prom(args.prom_out, registry)
    if args.trace_out is not None:
        written = write_span_trace(args.trace_out, registry)
        print(
            f"{written} spans appended to {args.trace_out}",
            file=sys.stderr,
        )
    if server is not None:
        if args.metrics_hold > 0:
            print(
                f"holding metrics endpoint for {args.metrics_hold:.1f}s",
                file=sys.stderr,
            )
            time.sleep(args.metrics_hold)
        server.stop()


def serve_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="pet-repro serve",
        description=(
            "Run the micro-batching estimation service as a "
            "JSON-lines server on stdin/stdout."
        ),
    )
    _add_service_arguments(parser)
    parser.add_argument(
        "--summary",
        action="store_true",
        help="print the metrics summary to stderr on shutdown",
    )
    args = parser.parse_args(argv)
    registry = MetricsRegistry()
    service_config = _service_config(args)

    async def _main() -> tuple[int, int]:
        service = EstimationService(
            config=service_config, registry=registry
        )
        async with service:
            return await _serve_stdin(service, sys.stdin)

    server = _start_metrics_server(args, registry)
    try:
        if args.shards > 1:
            from .shard import ShardedService

            with ShardedService(
                shards=args.shards,
                config=service_config,
                registry=registry,
            ) as sharded:
                answered, parse_failures = _serve_stdin_sharded(
                    sharded, sys.stdin
                )
        else:
            answered, parse_failures = asyncio.run(_main())
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        if server is not None:
            server.stop()
        return 1
    print(
        f"served {answered} requests "
        f"({parse_failures} malformed lines)",
        file=sys.stderr,
    )
    _finish_telemetry(args, registry, server)
    if args.summary:
        print(ConsoleSummaryExporter().render(registry), file=sys.stderr)
    return 0


def loadgen_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="pet-repro loadgen",
        description=(
            "Generate service traffic (Poisson or bursty arrivals) "
            "and drive it through an in-process estimation service."
        ),
    )
    parser.add_argument(
        "--requests", type=int, default=200, help="total requests"
    )
    parser.add_argument(
        "--pattern",
        choices=PATTERNS,
        default="poisson",
        help="arrival process",
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=500.0,
        help="mean arrivals/second (poisson)",
    )
    parser.add_argument(
        "--burst-size",
        type=int,
        default=16,
        help="requests per burst (bursty)",
    )
    parser.add_argument(
        "--burst-interval",
        type=float,
        default=0.02,
        help="seconds between bursts (bursty)",
    )
    parser.add_argument(
        "--tenants", type=int, default=4, help="reader fields"
    )
    parser.add_argument(
        "--population",
        type=int,
        default=2_000,
        help="true cardinality per reader field",
    )
    parser.add_argument(
        "--rounds", type=int, default=64, help="rounds per request"
    )
    parser.add_argument(
        "--protocol", default="pet", help="protocol registry name"
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="relative deadline (seconds) stamped on every request",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="schedule seed"
    )
    parser.add_argument(
        "--unique-seeds",
        type=int,
        default=None,
        help=(
            "cycle the stream through this many distinct request"
            " identities (repeats become result-cache hits)"
        ),
    )
    parser.add_argument(
        "--time-scale",
        type=float,
        default=1.0,
        help="compress (<1) or stretch (>1) the arrival schedule",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the report as JSON instead of text",
    )
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="print the generated schedule without running a service",
    )
    _add_service_arguments(parser)
    args = parser.parse_args(argv)
    config = LoadgenConfig(
        requests=args.requests,
        pattern=args.pattern,
        rate=args.rate,
        burst_size=args.burst_size,
        burst_interval=args.burst_interval,
        tenants=args.tenants,
        population=args.population,
        rounds=args.rounds,
        protocol=args.protocol,
        deadline=args.deadline,
        seed=args.seed,
        unique_seeds=args.unique_seeds,
    )
    if args.dry_run:
        for arrival, request in build_schedule(config):
            print(
                json.dumps(
                    {
                        "arrival": round(arrival, 6),
                        "request_id": request.request_id,
                        "tenant": request.tenant,
                        "population": request.population,
                        "seed": request.seed,
                        "population_seed": request.population_seed,
                    }
                )
            )
        return 0
    registry = MetricsRegistry()
    server = _start_metrics_server(args, registry)
    try:
        report = run_load(
            config,
            service_config=_service_config(args),
            registry=registry,
            time_scale=args.time_scale,
            shards=args.shards,
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        if server is not None:
            server.stop()
        return 1
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    _finish_telemetry(args, registry, server)
    return 1 if report.failures else 0


def main(argv: list[str]) -> int:
    """Dispatch ``serve``/``loadgen`` (called from :mod:`repro.cli`)."""
    command, rest = argv[0], argv[1:]
    if command == "serve":
        return serve_main(rest)
    if command == "loadgen":
        return loadgen_main(rest)
    raise ReproError(f"unknown serve command {command!r}")
