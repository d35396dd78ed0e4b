"""Tests for the CLI entry point."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs import get_registry
from repro.obs.registry import NULL_REGISTRY


class TestCli:
    def test_fig3(self, capsys):
        assert main(["fig3"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 3" in out

    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        assert "Table 3" in capsys.readouterr().out

    def test_fig4_with_small_runs(self, capsys):
        assert main(["fig4", "--runs", "20"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 4a" in out
        assert "Fig. 4c" in out

    def test_fig7(self, capsys):
        assert main(["fig7"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 7a" in out

    def test_fig5a(self, capsys):
        assert main(["fig5a"]) == 0
        assert "Fig. 5a" in capsys.readouterr().out

    def test_unknown_experiment_exits_nonzero(self):
        with pytest.raises(SystemExit):
            main(["figNaN"])


class TestCliMetrics:
    def test_metrics_out_writes_jsonl_and_prints_summary(
        self, tmp_path, capsys
    ):
        path = tmp_path / "metrics.jsonl"
        assert main(
            ["fig4", "--runs", "5", "--metrics-out", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert "metrics summary" in out
        assert f"metrics written to {path}" in out

        records = [
            json.loads(line)
            for line in path.read_text().strip().split("\n")
        ]
        counters = {
            r["name"]: r["value"]
            for r in records
            if r["kind"] == "counter"
        }
        # Slot-outcome accounting from the sampled tier.
        assert counters["sim.slots"] > 0
        assert (
            counters["sim.slots.busy"] + counters["sim.slots.idle"]
            == counters["sim.slots"]
        )
        # Per-cell timings (spans) and final estimates (cell events).
        spans = [r for r in records if r["kind"] == "span"]
        assert any(r["name"] == "cell" for r in spans)
        cells = [
            r
            for r in records
            if r["kind"] == "event" and r["name"] == "cell"
        ]
        assert cells and all(
            cell["mean_estimate"] > 0 for cell in cells
        )

    def test_metrics_summary_flag_without_file(self, capsys):
        assert main(["fig3", "--metrics-summary"]) == 0
        assert "metrics summary" in capsys.readouterr().out

    def test_registry_restored_after_instrumented_run(self, tmp_path):
        main(
            [
                "fig3",
                "--metrics-out",
                str(tmp_path / "m.jsonl"),
            ]
        )
        assert get_registry() is NULL_REGISTRY

    def test_no_flag_keeps_null_registry(self, capsys):
        assert main(["fig3"]) == 0
        assert "metrics summary" not in capsys.readouterr().out

    def test_metrics_out_schema(self, tmp_path):
        # Contract for downstream log pipelines: every JSONL record
        # carries the routing triplet type / name / ts.
        path = tmp_path / "metrics.jsonl"
        assert main(
            ["fig3", "--metrics-out", str(path)]
        ) == 0
        lines = path.read_text().strip().split("\n")
        assert lines
        for line in lines:
            record = json.loads(line)
            assert record["type"] in {
                "counter", "gauge", "histogram", "span", "event",
            }
            assert record["type"] == record["kind"]
            assert isinstance(record["name"], str) and record["name"]
            assert isinstance(record["ts"], float)


class TestCliDiagnostics:
    def test_diagnose_prom_trace_end_to_end(self, tmp_path, capsys):
        from repro.core.accuracy import rounds_required
        from repro.obs import parse_openmetrics, read_trace, verify_replay

        html_path = tmp_path / "diag.html"
        prom_path = tmp_path / "metrics.prom"
        trace_path = tmp_path / "trace.jsonl"
        assert main(
            [
                "fig4",
                "--runs", "3",
                "--diagnose", str(html_path),
                "--prom-out", str(prom_path),
                "--trace-out", str(trace_path),
                "--trace-sample", "every_k:997",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Convergence" in out  # terminal report printed

        # The OpenMetrics file is valid and carries the health gauges.
        samples, types = parse_openmetrics(prom_path.read_text())
        assert types["repro_diag_n_hat"] == "gauge"
        assert samples["repro_sim_rounds_total"] > 0
        assert samples["repro_diag_rounds_total"] > 0

        # Every written trace record replays bit-for-bit.
        records = list(read_trace(str(trace_path)))
        assert records
        for record in records[:200]:
            assert verify_replay(record)

        # The HTML convergence section quotes the Eq. 20 round budget
        # from core/accuracy.
        html_text = html_path.read_text()
        assert 'id="convergence"' in html_text
        assert f"{rounds_required(0.05, 0.01):,}" in html_text

    def test_diagnose_defaults_to_outliers_only(self, tmp_path, capsys):
        import os

        html_default = tmp_path / "diagnostics.html"
        cwd = os.getcwd()
        os.chdir(tmp_path)
        try:
            assert main(["fig3", "--diagnose"]) == 0
        finally:
            os.chdir(cwd)
        assert html_default.exists()
        assert "<!DOCTYPE html>" in html_default.read_text()

    def test_profile_out_sums_phase_spans_across_workers(
        self, tmp_path, capsys
    ):
        from repro.figures.fig4 import DEFAULT_ROUNDS
        from repro.sim.workload import PAPER_TAG_COUNTS

        path = tmp_path / "phases.json"
        assert main(
            [
                "fig4",
                "--runs", "5",
                "--workers", "2",
                "--profile-out", str(path),
            ]
        ) == 0
        capsys.readouterr()
        payload = json.loads(path.read_text())
        phases = payload["phases"]
        cells = len(PAPER_TAG_COUNTS) * len(DEFAULT_ROUNDS)
        for phase in ("seed_matrix", "hash_passes", "reduction"):
            assert phases[phase]["calls"] == cells
        assert sum(
            row["fraction"] for row in phases.values()
        ) == pytest.approx(1.0, abs=1e-3)
        assert payload["experiment"] == "fig4"

    def test_registry_restored_after_diagnosed_run(self, tmp_path):
        main(["fig3", "--diagnose", str(tmp_path / "d.html")])
        assert get_registry() is NULL_REGISTRY


class TestCliProtocols:
    def test_protocols_sweep_prints_table(self, capsys):
        assert main(["protocols", "--runs", "5"]) == 0
        out = capsys.readouterr().out
        assert "Baseline-protocol comparison sweep" in out
        assert "FNEB" in out
        assert "ALOHA" in out

    def test_protocols_with_workers(self, capsys):
        assert main(
            ["protocols", "--runs", "5", "--workers", "2"]
        ) == 0
        assert "ALOHA" in capsys.readouterr().out
