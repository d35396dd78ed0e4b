"""Command-line entry point: regenerate any paper table or figure.

Usage::

    python -m repro <experiment> [--runs N]
    pet-repro <experiment>

where ``<experiment>`` is one of ``fig3``, ``fig4``, ``table3``,
``table4``, ``table5``, ``fig5a``, ``fig5b``, ``fig6``, ``fig7``,
``ablations``, ``extensions``, ``protocols`` (the batched baseline
comparison sweep), or ``all``.

Two service commands dispatch to :mod:`repro.serve.cli` before the
experiment parser: ``python -m repro serve`` (JSON-lines estimation
service on stdin/stdout) and ``python -m repro loadgen`` (traffic
generator + SLO report).  See docs/SERVING.md.  A third,
``python -m repro traceview``, renders a terminal waterfall for one
distributed trace from a span file or live metrics endpoint
(:mod:`repro.obs.traceview`), and a fourth,
``python -m repro fleetview``, a per-shard terminal dashboard for a
sharded fleet from a live endpoint or saved snapshot
(:mod:`repro.obs.fleetview`).

With ``--metrics-out PATH`` the run is instrumented: every simulator
and protocol records into a :class:`~repro.obs.MetricsRegistry`, the
full metric/span/event stream is appended to ``PATH`` as JSON lines,
and a console summary is printed at the end.  Without any
observability flag the no-op registry is active and nothing is
recorded.

The diagnostics flags build on the same registry:

* ``--diagnose [PATH]`` attaches an
  :class:`~repro.obs.EstimatorHealth` monitor and a
  :class:`~repro.obs.RoundTraceRecorder`, prints the terminal
  diagnostics report, and writes the self-contained HTML report to
  ``PATH`` (default ``diagnostics.html``);
* ``--trace-out PATH`` writes the retained round-trace records (each
  deterministically replayable) as JSON lines;
* ``--trace-sample POLICY`` picks which rounds are retained —
  ``all``, ``every_k:K``, or ``outliers_only[:THRESHOLD]`` (default);
* ``--prom-out PATH`` writes the final metrics in OpenMetrics text
  format for Prometheus scrapes / textfile collectors;
* ``--progress`` renders a live stderr status line for sweep
  experiments (``fig4``, ``protocols``) with per-cell throughput and
  ETA — parallel sweeps tick it as each worker's cell finishes;
* ``--profile-out PATH`` writes the batched-kernel phase totals
  (seed_matrix / hash_passes / reduction / finalize), summed from the
  phase span histograms across every worker, to PATH as JSON.
"""

from __future__ import annotations

import argparse
from typing import Callable

from .config import PAPER_RUNS_PER_POINT
from .errors import ReproError
from .obs import (
    ConsoleSummaryExporter,
    EstimatorHealth,
    JsonLinesExporter,
    MetricsRegistry,
    PrometheusExporter,
    RoundTraceRecorder,
    SamplingPolicy,
    render_text_report,
    use_registry,
    write_html_report,
    write_trace,
)
from .obs.span import write_phase_json
from .figures import (
    ablations,
    extensions,
    fig3_trace,
    fig4,
    fig5,
    fig6,
    fig7,
    table3,
)


def _run_fig5a() -> None:
    fig5.table(
        fig5.epsilon_sweep(
            epsilons=fig5.FIG5A_EPSILONS, validation_runs=0
        ),
        "Fig. 5a — fine epsilon sweep (delta = 1%)",
        "epsilon",
    ).print()


def _run_fig5b() -> None:
    fig5.table(
        fig5.delta_sweep(deltas=fig5.FIG5B_DELTAS, validation_runs=0),
        "Fig. 5b — fine delta sweep (epsilon = 5%)",
        "delta",
    ).print()


def _run_table4() -> None:
    fig5.table(
        fig5.epsilon_sweep(),
        "Table 4 — total slots vs epsilon (delta = 1%, n = 50,000)",
        "epsilon",
    ).print()


def _run_table5() -> None:
    fig5.table(
        fig5.delta_sweep(),
        "Table 5 — total slots vs delta (epsilon = 5%, n = 50,000)",
        "delta",
    ).print()


def _experiments(
    runs: int,
    workers: int | None = None,
    progress: bool = False,
) -> dict[str, Callable[[], None]]:
    return {
        "fig3": fig3_trace.main,
        "fig4": lambda: fig4.main(
            runs=runs, workers=workers, progress=progress
        ),
        "table3": table3.main,
        "table4": _run_table4,
        "table5": _run_table5,
        "fig5a": _run_fig5a,
        "fig5b": _run_fig5b,
        "fig6": lambda: fig6.main(runs=max(runs, 100)),
        "fig7": fig7.main,
        "ablations": ablations.main,
        "extensions": extensions.main,
        "protocols": lambda: table3.protocol_main(
            runs=runs, workers=workers, progress=progress
        ),
    }


def main(argv: list[str] | None = None) -> int:
    """CLI entry; returns a process exit code."""
    if argv is None:
        import sys

        argv = sys.argv[1:]
    # Service commands live in their own sub-CLI with their own flag
    # surface; dispatch before the experiment parser sees them.
    if argv and argv[0] in ("serve", "loadgen"):
        from .serve.cli import main as serve_main

        return serve_main(argv)
    if argv and argv[0] == "traceview":
        from .obs.traceview import main as traceview_main

        return traceview_main(argv[1:])
    if argv and argv[0] == "fleetview":
        from .obs.fleetview import main as fleetview_main

        return fleetview_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="pet-repro",
        description=(
            "Regenerate the tables and figures of 'PET: Probabilistic "
            "Estimating Tree for Large-Scale RFID Estimation'."
        ),
    )
    experiment_names = sorted(_experiments(1)) + ["all"]
    parser.add_argument(
        "experiment",
        choices=experiment_names,
        help="which paper artifact to regenerate",
    )
    parser.add_argument(
        "--runs",
        type=int,
        default=PAPER_RUNS_PER_POINT,
        help="simulation repetitions per data point (paper: 300)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "worker processes for sweep experiments (default: serial); "
            "results are bit-identical for any worker count"
        ),
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help=(
            "record metrics/spans/events and append them to PATH as "
            "JSON lines; also prints a console summary at the end"
        ),
    )
    parser.add_argument(
        "--metrics-summary",
        action="store_true",
        help=(
            "print the end-of-run metrics summary without writing a "
            "file (implied by --metrics-out)"
        ),
    )
    parser.add_argument(
        "--diagnose",
        metavar="HTML_PATH",
        nargs="?",
        const="diagnostics.html",
        default=None,
        help=(
            "attach the estimator-health monitor and round-trace "
            "recorder, print the terminal diagnostics report, and "
            "write the HTML report to HTML_PATH "
            "(default: diagnostics.html)"
        ),
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help=(
            "write the retained round-trace records (replayable) to "
            "PATH as JSON lines; implies the trace recorder"
        ),
    )
    parser.add_argument(
        "--trace-sample",
        metavar="POLICY",
        default="outliers_only",
        help=(
            "round-trace sampling policy: 'all', 'every_k:K', or "
            "'outliers_only[:THRESHOLD]' (default: outliers_only)"
        ),
    )
    parser.add_argument(
        "--prom-out",
        metavar="PATH",
        default=None,
        help=(
            "write the final metrics in OpenMetrics (Prometheus) text "
            "format to PATH"
        ),
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help=(
            "render a live stderr status line (throughput, ETA) for "
            "sweep experiments; parallel sweeps tick it as each "
            "worker's cell finishes"
        ),
    )
    parser.add_argument(
        "--profile-out",
        metavar="PATH",
        default=None,
        help=(
            "write the batched-kernel phase totals (seed_matrix, "
            "hash_passes, reduction, finalize), summed from their "
            "span histograms, to PATH as JSON"
        ),
    )
    parser.add_argument(
        "--backend",
        metavar="NAME",
        default=None,
        help=(
            "kernel backend for the vectorized hash passes "
            "(overrides the REPRO_BACKEND environment variable; "
            "default: numpy). All backends are bit-identical; see "
            "docs/BACKENDS.md"
        ),
    )
    args = parser.parse_args(argv)
    if args.backend is not None:
        from .sim.backends import set_active_backend

        try:
            set_active_backend(args.backend)
        except ReproError as error:
            parser.error(str(error))
    experiments = _experiments(args.runs, args.workers, args.progress)

    def run_selected() -> None:
        if args.experiment == "all":
            for name in sorted(experiments):
                print(f"===== {name} =====")
                experiments[name]()
                print()
        else:
            experiments[args.experiment]()

    diagnostics_on = (
        args.diagnose is not None or args.trace_out is not None
    )
    observing = (
        args.metrics_out is not None
        or args.metrics_summary
        or args.prom_out is not None
        or args.profile_out is not None
        or diagnostics_on
    )
    if not observing:
        run_selected()
        return 0

    registry = MetricsRegistry()
    recorder = None
    health = None
    if diagnostics_on:
        recorder = RoundTraceRecorder(
            policy=SamplingPolicy.parse(args.trace_sample),
            registry=registry,
        )
        health = EstimatorHealth(registry=registry)
        registry.attach_diagnostics(round_trace=recorder, health=health)
    with use_registry(registry):
        run_selected()
    if args.profile_out is not None:
        write_phase_json(
            args.profile_out,
            registry,
            extra={"experiment": args.experiment},
        )
        print(f"phase profile written to {args.profile_out}")
    if args.metrics_out is not None:
        with JsonLinesExporter(args.metrics_out) as exporter:
            exporter.export(registry)
        print(f"metrics written to {args.metrics_out}")
    if args.prom_out is not None:
        PrometheusExporter(args.prom_out).export(registry)
        print(f"OpenMetrics written to {args.prom_out}")
    if args.trace_out is not None:
        assert recorder is not None
        written = write_trace(args.trace_out, recorder.records)
        print(
            f"{written} round-trace records written to {args.trace_out}"
        )
    if args.diagnose is not None:
        print()
        print(
            render_text_report(
                registry, health=health, recorder=recorder
            )
        )
        write_html_report(
            args.diagnose, registry, health=health, recorder=recorder
        )
        print(f"HTML diagnostics report written to {args.diagnose}")
    if args.metrics_out is not None or args.metrics_summary:
        print()
        print(ConsoleSummaryExporter().render(registry))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
