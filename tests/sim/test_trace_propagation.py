"""Trace-context propagation into sweep worker processes.

The parallel sweeps serialize the live :class:`TraceContext` into each
worker submission and restore it around the cell, so worker-side spans
join the parent's trace — across ``fork`` (the POSIX default, where the
urandom entropy pool must reset) and ``spawn`` (where the context
crosses as a plain dict through pickling).
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap

from repro.config import PetConfig
from repro.obs import MetricsRegistry, TraceContext, use_trace_context
from repro.sim.experiment import ExperimentRunner, _sweep_cell
from repro.sim.protocol_batched import (
    ProtocolCellSpec,
    sweep_protocol_cells,
)


def _traced_spans(registry):
    return [
        record for record in registry.trace
        if record.trace_id is not None
    ]


class TestSweepCellWorkerEntry:
    def test_installs_and_clears_the_given_context(self):
        ctx = TraceContext.root().child()
        _, snapshot = _sweep_cell(
            1, 2, 100, PetConfig(), 4, True, ctx.to_dict()
        )
        traced = [
            record for record in snapshot.spans
            if record.trace_id is not None
        ]
        assert traced
        assert {record.trace_id for record in traced} == {
            ctx.trace_id
        }
        # The cell's top-level span parents directly to the context
        # the parent derived for it.
        assert ctx.span_id in {
            record.parent_id for record in traced
        }

    def test_none_context_means_untraced_spans(self):
        _, snapshot = _sweep_cell(
            1, 2, 100, PetConfig(), 4, True, None
        )
        assert all(
            record.trace_id is None for record in snapshot.spans
        )


class TestForkPropagation:
    """Default POSIX start method: contexts cross the pool by dict."""

    def test_experiment_sweep_workers_join_the_trace(self):
        registry = MetricsRegistry()
        runner = ExperimentRunner(
            base_seed=5, repetitions=3, registry=registry
        )
        ctx = TraceContext.root()
        with use_trace_context(ctx):
            runner.sweep((200, 400, 800), PetConfig(), rounds=4,
                         workers=2)
        traced = _traced_spans(registry)
        assert {record.trace_id for record in traced} == {
            ctx.trace_id
        }
        assert any(record.name == "sweep" for record in traced)
        # Worker-recorded spans are linked into the trace: each hangs
        # off the per-cell context the parent derived from the live
        # sweep span (an unrecorded logical hop, so the parent id is
        # set even when no recorded span carries it — the same shape a
        # W3C remote parent has).
        worker_spans = [
            record for record in traced
            if "worker.id" in record.attributes
        ]
        assert len(worker_spans) >= 3
        for record in worker_spans:
            assert record.parent_id is not None

    def test_worker_span_ids_are_unique_across_processes(self):
        """The fork-reset entropy pool: no two spans (parent or
        worker side) may reuse a span id."""
        registry = MetricsRegistry()
        runner = ExperimentRunner(
            base_seed=5, repetitions=3, registry=registry
        )
        with use_trace_context(TraceContext.root()):
            runner.sweep(
                (200, 400, 800, 1_600), PetConfig(), rounds=4,
                workers=4,
            )
        ids = [
            record.span_id for record in registry.trace
            if record.span_id is not None
        ]
        assert len(ids) == len(set(ids))

    def test_protocol_sweep_workers_join_the_trace(self):
        registry = MetricsRegistry()
        specs = [
            ProtocolCellSpec("fneb", 150, 6),
            ProtocolCellSpec("lof", 150, 6),
        ]
        ctx = TraceContext.root()
        with use_trace_context(ctx):
            sweep_protocol_cells(
                specs,
                repetitions=3,
                base_seed=21,
                workers=2,
                registry=registry,
            )
        traced = _traced_spans(registry)
        assert {record.trace_id for record in traced} == {
            ctx.trace_id
        }
        cell_spans = [
            record for record in traced
            if "worker.id" in record.attributes
        ]
        assert len(cell_spans) >= len(specs)

    def test_untraced_sweep_stays_untraced(self):
        registry = MetricsRegistry()
        runner = ExperimentRunner(
            base_seed=5, repetitions=2, registry=registry
        )
        runner.sweep((200, 400), PetConfig(), rounds=4, workers=2)
        assert _traced_spans(registry) == []


class TestSpawnPropagation:
    def test_spawn_workers_join_the_trace(self):
        """Same contract under the ``spawn`` start method, where the
        context must survive pickling into a fresh interpreter."""
        script = textwrap.dedent(
            """
            import json
            import multiprocessing

            multiprocessing.set_start_method("spawn", force=True)

            from repro.config import PetConfig
            from repro.obs import (
                MetricsRegistry,
                TraceContext,
                use_trace_context,
            )
            from repro.sim.experiment import ExperimentRunner

            registry = MetricsRegistry()
            runner = ExperimentRunner(
                base_seed=5, repetitions=2, registry=registry
            )
            ctx = TraceContext.root()
            with use_trace_context(ctx):
                runner.sweep(
                    (200, 400), PetConfig(), rounds=4, workers=2
                )
            spans = [
                record for record in registry.trace
                if record.trace_id is not None
            ]
            print(json.dumps({
                "expected_trace": ctx.trace_id,
                "trace_ids": sorted(
                    {record.trace_id for record in spans}
                ),
                "worker_spans": sum(
                    1 for record in spans
                    if "worker.id" in record.attributes
                ),
                "span_ids_unique": len(
                    {record.span_id for record in spans}
                ) == len(spans),
            }))
            """
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads(result.stdout.strip().splitlines()[-1])
        assert payload["trace_ids"] == [payload["expected_trace"]]
        assert payload["worker_spans"] >= 2
        assert payload["span_ids_unique"]
