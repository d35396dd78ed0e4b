"""Harness tests for the end-to-end benchmark.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run as bench

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = ROOT / ".bench_out"


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "e2e" / "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=600,
    )


@pytest.fixture(scope="module")
def smoke_records() -> dict:
    """One untraced and one traced ``--smoke`` run of every workload."""
    OUT.mkdir(exist_ok=True)
    records = {}
    for mode, flags in (("plain", ()), ("traced", ("--trace",))):
        path = OUT / f"test-smoke-{mode}.json"
        completed = _bench("--smoke", "--json", str(path), *flags)
        assert completed.returncode == 0, completed.stderr
        last = json.loads(completed.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0
        records[mode] = json.loads(path.read_text(encoding="utf-8"))
    return records


def test_catalogue_matches_benchmark_json():
    declared = _declared()
    assert [w["name"] for w in declared["workloads"]] == list(bench.WORKLOADS)
    for section, catalogue in (
        ("end_to_end", bench.END_TO_END),
        ("per_layer", bench.PER_LAYER),
    ):
        declared_metrics = {
            m["name"]: (m["unit"], m["better"]) for m in declared[section]
        }
        assert declared_metrics == catalogue
    assert declared["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert bench.DEFAULT_SECONDS == declared["run_seconds"]


@pytest.mark.parametrize(
    "mode, section", [("plain", "end_to_end"), ("traced", "per_layer")]
)
def test_emitted_names_equal_declared(smoke_records, mode, section):
    declared = {m["name"]: m["unit"] for m in _declared()[section]}
    runs = smoke_records[mode]["runs"]
    assert [run["workload"] for run in runs] == list(bench.WORKLOADS)
    for run in runs:
        emitted = {
            name: metric["unit"] for name, metric in run["metrics"].items()
        }
        assert emitted == declared, run["workload"]
        assert run["correct"], run["children"][0]["failures"]


def test_self_time_arithmetic():
    # root [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 9].
    spans = [
        layers.Span(0, "root", 0.0, 10.0),
        layers.Span(1, "a", 1.0, 4.0, parent=0),
        layers.Span(2, "c", 2.0, 3.0, parent=1),
        layers.Span(3, "b", 5.0, 9.0, parent=0),
        layers.Span(4, "a", 11.0, 12.5),
    ]
    assert layers.self_times(spans) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0, 4: 1.5}
    totals = layers.totals(spans)
    assert totals["a"].self_seconds == 3.5
    assert totals["a"].durations == [3.0, 1.5]
    assert sum(t.self_seconds for t in totals.values()) == 10.0 + 1.5


def test_overlapping_children_count_once():
    spans = [
        layers.Span(0, "root", 0.0, 10.0),
        layers.Span(1, "x", 1.0, 6.0, parent=0),
        layers.Span(2, "y", 4.0, 12.0, parent=0),
    ]
    assert layers.self_times(spans)[0] == 1.0


def _slots() -> list[tuple[object, str, object]]:
    """Every wrapped slot and what its owner holds there now.

    A backend instance holds nothing of its own (``None``): its methods
    come from the class, and the wrapper shadows them while installed.
    """
    return [
        (owner, attr, vars(owner).get(attr))
        for target in layers.TARGETS
        for owner, attr, _ in layers.resolve(target)
    ]


def test_trace_restores_every_wrapped_attribute():
    import workloads

    before = _slots()
    assert not any(
        getattr(value, "__e2e_traced__", False) for _, _, value in before
    )
    result = workloads.run("cell-active", 7, 0.2, smoke=True, trace=True)
    assert result["per_layer"]["sim.batched.fresh_elements"] > 0
    for owner, attr, value in before:
        assert vars(owner).get(attr) is value, f"{owner!r}.{attr} not restored"


def test_untraced_run_installs_no_wrappers(monkeypatch):
    import workloads

    def refuse(*args, **kwargs):
        raise AssertionError("an untraced run installed wrappers")

    monkeypatch.setattr(layers, "install", refuse)
    result = workloads.run("sweep-paper", 7, 0.2, smoke=True)
    assert result["correct"] and "per_layer" not in result


def test_without_program_source_exits_nonzero_and_prints_no_result():
    bare = OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "benchmarks").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(
        HERE,
        bare / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = _bench(
        "--workload", "cell-active", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=bare,
    )
    shutil.rmtree(bare)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
