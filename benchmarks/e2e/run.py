"""One end-to-end benchmark: four workloads over sim cells and the serve tier.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
        [--runs N] [--trace [0|1]] [--json PATH] [--smoke]

Each run starts fresh processes running ``workloads.py``: the first
``SETUPS - 1`` only set up (so ``setup_s`` is a median), the last one
sets up, measures for ``--seconds``, and checks its outputs.  With
``--trace`` the workload runs twice, untraced and then with the layer
wrappers of ``layers.py``, and the per-layer metrics are reported
instead, together with the tracing overhead on the workload's headline
metric.  ``--runs N`` repeats each workload with seeds ``seed ..
seed+N-1`` and prints each metric's median and quartile spread.

Every metric prints with its unit; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 1 when any output check failed and 2 when
the benchmark could not run.  Nothing outside the checkout is written;
span files go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SOURCE = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("cell-active", "sweep-paper", "serve-poisson", "serve-sharded")

#: name -> (unit, better); every workload reports all of them.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p75_ms": ("ms", "lower"),
}

#: name -> (unit, better); layers a workload never reaches report 0.
PER_LAYER = {
    "sim.batched.run_cell_self_s": ("s", "lower"),
    "sim.batched.fresh_s": ("s", "lower"),
    "sim.batched.fresh_elements": ("count", "lower"),
    "sim.batched.sorted_s": ("s", "lower"),
    "hashing.code_matrix_s": ("s", "lower"),
    "sim.backends.clz_s": ("s", "lower"),
    "sim.backends.clamped_buckets_s": ("s", "lower"),
    "sim.workload.build_population_s": ("s", "lower"),
    "core.accuracy.estimate_s": ("s", "lower"),
    "sim.protocol_batched.cell_self_s": ("s", "lower"),
    "sim.protocol_batched.seed_matrix_s": ("s", "lower"),
    "sim.protocol_batched.statistics_s": ("s", "lower"),
    "sim.protocol_batched.reduce_s": ("s", "lower"),
    "api.resolve_us": ("us", "lower"),
    "serve.batching.exec_self_s": ("s", "lower"),
    "serve.batching.fused_frac": ("fraction", "higher"),
    "serve.service.queue_wait_p50_ms": ("ms", "lower"),
    "serve.service.queue_wait_p99_ms": ("ms", "lower"),
    "serve.service.batch_size_mean": ("count", "higher"),
    "serve.service.degraded_frac": ("fraction", "lower"),
    "serve.cache.hit_frac": ("fraction", "higher"),
    "serve.cache.replay_hit_frac": ("fraction", "higher"),
    "serve.shard.submit_us": ("us", "lower"),
    "serve.shard.hop_p50_ms": ("ms", "lower"),
    "serve.shard.imbalance": ("ratio", "lower"),
    "serve.shard.deltas": ("count", "lower"),
    "serve.shard.delta_merge_s": ("s", "lower"),
    "obs.trace_coverage_frac": ("fraction", "higher"),
    "obs.trace_overhead_frac": ("fraction", "lower"),
}

#: The end-to-end metric ``obs.trace_overhead_frac`` compares.
HEADLINE = {
    "cell-active": "ops_per_s",
    "sweep-paper": "ops_per_s",
    "serve-poisson": "latency_p50_ms",
    "serve-sharded": "ops_per_s",
}

SETUPS = 5
DEFAULT_SECONDS = 15.0
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _reap_group(pgid: int) -> None:
    """Wait until every process of the child's group has ended."""
    for _ in range(100):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def child(
    workload: str, seed: int, seconds: float, *flags: str
) -> tuple[float, dict | None]:
    """Run ``workloads.py`` in a fresh process; returns (setup_s, result)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SOURCE)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable,
        str(HERE / "workloads.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        *flags,
    ]
    started = time.perf_counter()
    process = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
        start_new_session=True,
    )
    timer = threading.Timer(
        CHILD_TIMEOUT_S, os.killpg, (process.pid, signal.SIGKILL)
    )
    timer.start()
    setup_s = None
    result = None
    try:
        for line in process.stdout:
            if line.startswith("SETUP") and setup_s is None:
                setup_s = time.perf_counter() - started
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = process.wait()
    finally:
        timer.cancel()
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
        _reap_group(process.pid)
    measured = "--setup-only" not in flags
    if code != 0 or setup_s is None or (measured and result is None):
        raise BenchError(
            f"{workload} (seed {seed}) child exited with code {code}"
        )
    return setup_s, result


def _checked(names: set, catalog: dict, what: str) -> None:
    if names != set(catalog):
        mismatch = sorted(names ^ set(catalog))
        raise BenchError(
            f"{what} metrics {mismatch} do not match the catalogue"
        )


def run_once(
    workload: str, seed: int, seconds: float, trace: bool, smoke: bool
) -> dict:
    """One benchmark run of one workload: its metrics, counts and checks."""
    flags = ("--smoke",) if smoke else ()
    if not trace:
        setups = [
            child(workload, seed, seconds, "--setup-only", *flags)[0]
            for _ in range(1 if smoke else SETUPS - 1)
        ]
        setup_s, result = child(workload, seed, seconds, *flags)
        setups.append(setup_s)
        values = {
            "setup_s": statistics.median(setups),
            **result["end_to_end"],
        }
        _checked(set(values), END_TO_END, "end-to-end")
        catalog, parts = END_TO_END, [result]
    else:
        _, plain = child(workload, seed, seconds, *flags)
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{workload}-{seed}.jsonl"
        _, traced = child(
            workload, seed, seconds, "--trace", "--spans", str(spans), *flags
        )
        headline = HEADLINE[workload]
        untraced = plain["end_to_end"][headline]
        with_trace = traced["end_to_end"][headline]
        if END_TO_END[headline][1] == "higher":
            overhead = untraced / with_trace - 1.0
        else:
            overhead = with_trace / untraced - 1.0
        values = {**traced["per_layer"], "obs.trace_overhead_frac": overhead}
        _checked(set(values), PER_LAYER, "per-layer")
        catalog, parts = PER_LAYER, [plain, traced]
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": all(part["correct"] for part in parts),
        "attempted": sum(part["attempted"] for part in parts),
        "failed": sum(part["failed"] for part in parts),
        "metrics": {
            name: {"value": values[name], "unit": catalog[name][0]}
            for name in catalog
        },
        "children": parts,
    }


def _quartiles(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else float("nan"),
        "values": values,
    }


def summarize(runs: list[dict]) -> dict:
    """Median and quartile spread of every metric, per workload."""
    summary: dict = {}
    for run in runs:
        by_name = summary.setdefault(run["workload"], {})
        for name, metric in run["metrics"].items():
            by_name.setdefault(name, []).append(metric["value"])
    return {
        workload: {name: _quartiles(v) for name, v in by_name.items()}
        for workload, by_name in summary.items()
    }


def _print_run(run: dict) -> None:
    mode = "traced" if run["trace"] else "untraced"
    print(f"== {run['workload']} seed={run['seed']} ({mode}) ==")
    for name, metric in run["metrics"].items():
        print(f"  {name:38s} {metric['value']:>16.6g} {metric['unit']}")
    for part in run["children"]:
        print(
            f"  digest {part['digest']}  attempted {part['attempted']}"
            f"  failed {part['failed']}"
        )
        print(f"  {json.dumps(part['extras'], sort_keys=True)}")
        for failure in part["failures"]:
            print(f"  CHECK FAILED: {failure}")


def _print_summary(summary: dict, catalog: dict) -> None:
    print("== summary: median [q1, q3] spread ==")
    for workload, by_name in summary.items():
        print(f"  {workload}")
        for name, stats in by_name.items():
            if "q1" in stats:
                print(
                    f"    {name:38s} {stats['median']:>14.6g}"
                    f" {catalog[name][0]:8s}"
                    f" [{stats['q1']:.6g}, {stats['q3']:.6g}]"
                    f" {stats['spread']:.4f}"
                )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=WORKLOADS, help="one workload (default: all)"
    )
    parser.add_argument("--seed", type=int, default=2011)
    parser.add_argument(
        "--seconds", type=float, default=None, help="measured seconds per run"
    )
    parser.add_argument(
        "--runs",
        type=int,
        default=1,
        help="runs per workload, with seeds seed .. seed+N-1",
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="report per-layer metrics from a traced run",
    )
    parser.add_argument("--json", help="write the full record here")
    parser.add_argument(
        "--smoke", action="store_true", help="about one second per workload"
    )
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: no program source in {SOURCE}", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = 1.0 if args.smoke else DEFAULT_SECONDS
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    catalog = PER_LAYER if args.trace else END_TO_END

    runs = []
    try:
        for workload in workloads:
            for offset in range(args.runs):
                run = run_once(
                    workload,
                    args.seed + offset,
                    seconds,
                    bool(args.trace),
                    args.smoke,
                )
                _print_run(run)
                runs.append(run)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    summary = summarize(runs)
    if args.runs > 1:
        _print_summary(summary, catalog)
    if args.json:
        environment = {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
            **runs[0]["children"][0]["environment"],
        }
        record = {
            "environment": environment,
            "seconds": seconds,
            "smoke": args.smoke,
            "trace": bool(args.trace),
            "runs": runs,
            "summary": summary,
        }
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    correct = all(run["correct"] for run in runs)
    if len(runs) == 1:
        metrics = runs[0]["metrics"]
    else:
        metrics = {
            (name if len(workloads) == 1 else f"{workload}/{name}"): {
                "value": stats["median"],
                "unit": catalog[name][0],
            }
            for workload, by_name in summary.items()
            for name, stats in by_name.items()
        }
    last = {
        "correct": correct,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }
    print(json.dumps(last))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
