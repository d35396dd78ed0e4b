"""Per-layer tracing for the end-to-end benchmark, from outside the program.

The traced run wraps public functions of the layers named in
:data:`TARGETS` for the measured window only.  Each wrapped call records
one :class:`Span` (name, start, end, the enclosing wrapped span on the
same thread, request id, and an optional exact work count).  Spans stay
in memory; :func:`write_spans` saves them when the run ends.  Every
wrapper is restored on exit, and untraced runs never call
:func:`installed`, so the end-to-end numbers carry no benchmark timers.

A function imported by name into several modules is wrapped in every
``repro`` module that binds it, because callers resolve the name in
their own module at call time.  A method is wrapped on its class and on
every subclass that defines its own; a kernel-backend method is wrapped
on the active backend instance.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator


@dataclass(frozen=True)
class Target:
    """One wrapped name.

    ``where`` is ``"module:function"``, ``"module:Class.method"``, or
    ``"backend:method"`` (the active kernel backend's method).
    ``count`` returns the exact work one call does, from its arguments;
    ``request_id`` reads the request a call serves.
    """

    span: str
    where: str
    count: Callable | None = None
    request_id: Callable | None = None


def _fresh_elements(args, kwargs) -> int:
    # batched_gray_depths_fresh(tag_ids, seeds, ...): rounds x tags.
    return int(args[1].shape[0]) * int(args[0].size)


_BATCHED = "repro.sim.batched"
_PROTOCOL = "repro.sim.protocol_batched"
_SHARD = "repro.serve.shard"

TARGETS = (
    Target(
        "sim.batched.run_cell",
        f"{_BATCHED}:BatchedExperimentEngine.run_cell",
    ),
    Target(
        "sim.batched.fresh",
        f"{_BATCHED}:batched_gray_depths_fresh",
        count=_fresh_elements,
    ),
    Target("sim.batched.sorted", f"{_BATCHED}:batched_gray_depths_sorted"),
    Target(
        "hashing.code_matrix", "repro.hashing.family:HashFamily.code_matrix"
    ),
    Target("sim.backends.clz", "backend:leading_zeros64_vec"),
    Target("sim.backends.clamped_buckets", "backend:clamped_buckets"),
    Target(
        "sim.workload.build_population",
        "repro.sim.workload:build_population",
    ),
    Target(
        "core.accuracy.estimate", "repro.core.accuracy:estimate_from_depths"
    ),
    Target("sim.protocol_batched.cell", f"{_PROTOCOL}:run_protocol_cell"),
    Target("sim.protocol_batched.seed_matrix", f"{_PROTOCOL}:seed_matrix"),
    Target(
        "sim.protocol_batched.statistics", f"{_PROTOCOL}:_chunked_statistics"
    ),
    Target(
        "sim.protocol_batched.reduce",
        "repro.protocols.base:BatchedRoundEngine.reduce",
    ),
    Target(
        "api.resolve",
        "repro.api:resolve_request",
        request_id=lambda args: args[0].request_id,
    ),
    Target("serve.batching.exec", "repro.serve.batching:execute_micro_batch"),
    Target("serve.cache.lookup", "repro.serve.cache:ResultCache.lookup"),
    Target(
        "serve.shard.submit",
        f"{_SHARD}:ShardedService.submit",
        request_id=lambda args: args[1].request_id,
    ),
    Target(
        "serve.shard.apply_telemetry",
        f"{_SHARD}:ShardedService._apply_telemetry",
    ),
    Target("serve.shard.record_delta", f"{_SHARD}:FleetStatus.record_delta"),
)


@dataclass
class Span:
    """One wrapped call; ``parent`` is the enclosing span's ``id``."""

    id: int
    name: str
    start: float
    end: float | None = None
    parent: int | None = None
    thread: int = 0
    request_id: str | None = None
    count: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from every thread of this process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, target: Target, function: Callable) -> Callable:
        spans = self.spans
        ids = self._ids
        local = self._local
        name = target.span
        count = target.count
        request_id = target.request_id

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = Span(
                next(ids),
                name,
                time.perf_counter(),
                parent=stack[-1].id if stack else None,
                thread=threading.get_ident(),
                request_id=request_id(args) if request_id else None,
                count=count(args, kwargs) if count else 0,
            )
            stack.append(span)
            try:
                return function(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                spans.append(span)

        traced.__e2e_traced__ = True
        return traced


@dataclass(frozen=True)
class Patch:
    """One installed wrapper and what it replaced."""

    owner: object
    attr: str
    original: object
    #: False when the wrapper shadows a class attribute on an instance.
    own: bool


def _repro_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None
        and (name == "repro" or name.startswith("repro."))
    ]


def _subclasses(cls: type) -> list[type]:
    found, pending = [], [cls]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                pending.append(sub)
    return found


def resolve(target: Target) -> list[tuple[object, str, bool]]:
    """Every ``(owner, attr, own)`` slot that holds ``target``'s object."""
    module_name, _, name = target.where.partition(":")
    if module_name == "backend":
        from repro.sim.backends import active_backend

        return [(active_backend(), name, False)]
    module = importlib.import_module(module_name)
    if "." in name:
        class_name, method = name.split(".")
        cls = getattr(module, class_name)
        owners = [cls] + [
            sub for sub in _subclasses(cls) if method in vars(sub)
        ]
        return [(owner, method, True) for owner in owners]
    original = getattr(module, name)
    return [
        (bound, name, True)
        for bound in _repro_modules()
        if getattr(bound, name, None) is original
    ]


def install(recorder: Recorder, targets=TARGETS) -> list[Patch]:
    """Wrap every target slot; returns the patches :func:`restore` undoes."""
    patches: list[Patch] = []
    try:
        for target in targets:
            for owner, attr, own in resolve(target):
                original = vars(owner)[attr] if own else getattr(owner, attr)
                setattr(owner, attr, recorder.wrap(target, original))
                patches.append(Patch(owner, attr, original, own))
    except BaseException:
        restore(patches)
        raise
    return patches


def restore(patches: list[Patch]) -> None:
    for patch in reversed(patches):
        if patch.own:
            setattr(patch.owner, patch.attr, patch.original)
        else:
            delattr(patch.owner, patch.attr)


@contextlib.contextmanager
def installed(recorder: Recorder, targets=TARGETS) -> Iterator[list[Patch]]:
    patches = install(recorder, targets)
    try:
        yield patches
    finally:
        restore(patches)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=_start):
            start = max(child.start, cursor)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.id] = span.seconds - covered
    return result


def _start(span: Span) -> float:
    return span.start


@dataclass
class LayerTotals:
    self_seconds: float = 0.0
    durations: list = field(default_factory=list)
    count: int = 0


def totals(spans: list[Span]) -> dict[str, LayerTotals]:
    """Self time, call durations, and work counts per span name."""
    own = self_times(spans)
    by_name: dict[str, LayerTotals] = {}
    for span in spans:
        entry = by_name.setdefault(span.name, LayerTotals())
        entry.self_seconds += own[span.id]
        entry.durations.append(span.seconds)
        entry.count += span.count
    return by_name


def write_spans(spans: list[Span], path: str) -> None:
    with open(path, "w", encoding="utf-8") as sink:
        for span in spans:
            sink.write(json.dumps(dataclasses.asdict(span)) + "\n")
