"""Micro-batch execution: fuse compatible requests into one kernel call.

The scheduler (:mod:`repro.serve.service`) drains a batch of
pending requests and hands them here as resolved plans.  This module
groups them by *fusion key* — same protocol class/config and same
population object — and executes each group through the batched
kernels:

* **PET (vectorized tier)**: every request's per-round word stream is
  drawn from its own generator exactly as the scalar path would
  (path word, then seed word for active tags — the PR-1 discipline),
  then all requests' paths/seeds are concatenated into a single
  :func:`~repro.sim.batched.batched_gray_depths_fresh` /
  :func:`~repro.sim.batched.batched_gray_depths_sorted` call and the
  depth vector is split back per request.
* **Engine protocols** (FNEB, LoF, USE/UPE/EZB, ALOHA): per-request
  seed vectors are concatenated and evaluated through the protocol's
  :class:`~repro.protocols.base.BatchedRoundEngine` in one chunked
  pass, then each request's statistic row is reduced by the
  protocol's own scalar inversion.
* Everything else (sampled-tier PET, protocols without an engine)
  falls back to the scalar request path, one request at a time.

The contract is **bit-identity**: because per-round statistics are
elementwise in the seed/path vector and each request's words come from
its own generator, a request served through a fused batch returns the
same :class:`~repro.protocols.base.ProtocolResult` — estimate, slots,
per-round statistics — as :func:`repro.estimate` with the same seed.
The serve test-suite asserts this for PET and FNEB; the per-request
observability (``protocol.<NAME>.*`` counters) mirrors the scalar path
through the same :meth:`_observe_result` funnel.

Fusion only amortises kernel launches for requests that share a
population *object* — which is what the request model's
``population_seed`` field and the service's population cache arrange.
Requests with private populations still execute vectorized across
their own rounds (no Python round loop), they just don't share the
kernel call.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..api import ResolvedRequest
from ..core.accuracy import estimate_from_depths
from ..core.search import slots_lookup_table, strategy_for
from ..errors import ConfigurationError
from ..protocols.base import ProtocolResult
from ..protocols.pet import PetProtocol
from ..sim.batched import (
    CHUNK_ELEMENTS,
    batched_gray_depths_fresh,
    batched_gray_depths_sorted,
)
from ..sim.backends import active_backend
from ..sim.protocol_batched import _chunked_statistics
from ..tags.population import TagPopulation


@dataclass(frozen=True)
class GroupExecution:
    """Timing + attributes of one kernel execution inside a micro-batch.

    The service turns each row into per-request ``kernel`` spans: every
    request in ``indices`` (batch-local positions) shares the same
    kernel call, so its span carries the fusion group's size, the
    active kernel backend, and the chunk bound — the attributes an
    exemplar-driven trace lookup needs to explain a latency band.
    """

    kind: str  # "pet" | "engine" | "scalar"
    indices: tuple[int, ...]
    start: float  # perf_counter at kernel start
    seconds: float
    backend: str
    protocol: str
    chunk_elements: int | None = None


@dataclass
class MicroBatchReport:
    """What one :func:`execute_micro_batch` call did, for telemetry."""

    requests: int = 0
    fused_groups: int = 0
    fused_requests: int = 0
    scalar_requests: int = 0
    degraded_requests: int = 0
    groups: list[GroupExecution] = field(default_factory=list)

    def group_of(self, index: int) -> GroupExecution | None:
        """The execution row covering batch position ``index``."""
        for group in self.groups:
            if index in group.indices:
                return group
        return None


def _config_key(resolved: ResolvedRequest) -> tuple:
    """Hashable identity of a request's protocol configuration."""
    request = resolved.request
    return (
        request.protocol,
        tuple(
            sorted(
                (key, repr(value))
                for key, value in request.config.items()
            )
        ),
    )


def _pet_fusible(resolved: ResolvedRequest) -> bool:
    """Whether the direct PET kernel path can serve this request."""
    protocol = resolved.protocol
    if not isinstance(protocol, PetProtocol):
        return False
    if protocol.tier != "vectorized" and not protocol.config.passive_tags:
        return False
    # The vectorized kernels share the scalar tier's height ceiling.
    if (
        resolved.population.size > 0
        and protocol.config.tree_height > 62
    ):
        return False
    return True


def _pet_words(resolved: ResolvedRequest) -> np.ndarray:
    """One request's per-round word draw, scalar-stream-identical.

    The scalar estimator draws, per round, one full-range ``uint64``
    path word (:meth:`~repro.core.path.EstimatingPath.random`) and —
    active variant — one seed word (``integers(0, 2**63)`` is a
    one-word Lemire draw).  A single C-order ``(rounds, words)`` array
    draw consumes the request generator's stream identically.
    """
    config = resolved.protocol.config
    words_per_round = 1 if config.passive_tags else 2
    return resolved.rng.integers(
        0,
        2**64,
        size=(resolved.rounds, words_per_round),
        dtype=np.uint64,
    )


#: Per-population sorted-code cache key -> sorted codes, kept for the
#: lifetime of one micro-batch only (populations are the cache key of
#: the service's own longer-lived population cache).
_SortedCodes = dict[tuple[int, int], np.ndarray]


def _fused_pet_group(
    group: list[tuple[int, ResolvedRequest, np.ndarray]],
    population: TagPopulation,
    sorted_codes: _SortedCodes,
    results: list,
) -> None:
    """Run one PET fusion group through a single depth-kernel call."""
    first = group[0][1]
    config = first.protocol.config
    height = config.tree_height
    all_paths = np.concatenate(
        [words[:, 0] >> np.uint64(64 - height) for _, _, words in group]
    )
    if config.passive_tags:
        cache_key = (id(population), height)
        codes = sorted_codes.get(cache_key)
        if codes is None:
            codes = np.sort(population.preloaded_codes(height))
            sorted_codes[cache_key] = codes
        depths = batched_gray_depths_sorted(codes, all_paths, height)
    else:
        all_seeds = np.concatenate(
            [words[:, 1] >> np.uint64(1) for _, _, words in group]
        )
        depths = batched_gray_depths_fresh(
            population.tag_ids,
            all_seeds,
            all_paths,
            height,
            population.family,
        )
    slots_table = slots_lookup_table(
        strategy_for(config.binary_search), height
    )
    offset = 0
    for index, resolved, words in group:
        request_depths = depths[offset : offset + resolved.rounds]
        offset += resolved.rounds
        result = ProtocolResult(
            protocol=resolved.protocol.name,
            n_hat=estimate_from_depths(request_depths),
            rounds=resolved.rounds,
            total_slots=int(slots_table[request_depths].sum()),
            per_round_statistics=request_depths.astype(np.float64),
            seed_provenance=resolved.seed_provenance,
        )
        results[index] = resolved.protocol._observe_result(result)


def _fused_engine_group(
    group: list[tuple[int, ResolvedRequest, np.ndarray]],
    population: TagPopulation,
    results: list,
) -> None:
    """Run one engine fusion group through a single statistics pass."""
    engine = group[0][1].protocol.batched_engine()
    all_seeds = np.concatenate([seeds for _, _, seeds in group])
    statistics = _chunked_statistics(engine, all_seeds, population)
    offset = 0
    for index, resolved, seeds in group:
        row = statistics[offset : offset + seeds.size]
        offset += seeds.size
        protocol = resolved.protocol
        try:
            n_hat = engine.reduce(row)
        except Exception as error:  # saturation etc. — per request
            results[index] = error
            continue
        result = ProtocolResult(
            protocol=protocol.name,
            n_hat=n_hat,
            rounds=resolved.rounds,
            total_slots=resolved.rounds * protocol.slots_per_round(),
            per_round_statistics=row,
            seed_provenance=resolved.seed_provenance,
        )
        results[index] = protocol._observe_result(result)


def execute_micro_batch(
    batch: Sequence[ResolvedRequest],
    report: MicroBatchReport | None = None,
) -> list:
    """Execute one drained batch of requests, fusing compatible ones.

    Returns one entry per request, in input order: a
    :class:`~repro.protocols.base.ProtocolResult` on success or the
    raised exception (so the service can answer that request with an
    ``error`` response without losing the rest of the batch).
    """
    if report is None:
        report = MicroBatchReport()
    report.requests += len(batch)
    results: list = [None] * len(batch)
    pet_groups: dict[tuple, list] = {}
    engine_groups: dict[tuple, list] = {}
    scalar: list[tuple[int, ResolvedRequest]] = []
    sorted_codes: _SortedCodes = {}

    for index, resolved in enumerate(batch):
        try:
            if _pet_fusible(resolved):
                key = (
                    _config_key(resolved),
                    id(resolved.population),
                )
                # Words are drawn at classification time, from the
                # request's own generator — group membership can never
                # change what any single request consumes.
                pet_groups.setdefault(key, []).append(
                    (index, resolved, _pet_words(resolved))
                )
            elif resolved.protocol.batched_engine() is not None:
                key = (
                    _config_key(resolved),
                    id(resolved.population),
                )
                engine = resolved.protocol.batched_engine()
                draws = resolved.rounds * engine.draws_per_round
                seeds = resolved.rng.integers(
                    0, 2**64, size=draws, dtype=np.uint64
                ) >> np.uint64(1)
                engine_groups.setdefault(key, []).append(
                    (index, resolved, seeds)
                )
            else:
                scalar.append((index, resolved))
        except Exception as error:
            results[index] = error

    backend_name = active_backend().name

    for key, group in pet_groups.items():
        report.fused_groups += 1
        report.fused_requests += len(group)
        population = group[0][1].population
        started = time.perf_counter()
        try:
            _fused_pet_group(group, population, sorted_codes, results)
        except Exception as error:
            for index, _, _ in group:
                if results[index] is None:
                    results[index] = error
        report.groups.append(
            GroupExecution(
                kind="pet",
                indices=tuple(index for index, _, _ in group),
                start=started,
                seconds=time.perf_counter() - started,
                backend=backend_name,
                protocol=group[0][1].protocol.name,
                chunk_elements=CHUNK_ELEMENTS,
            )
        )

    for key, group in engine_groups.items():
        report.fused_groups += 1
        report.fused_requests += len(group)
        population = group[0][1].population
        started = time.perf_counter()
        try:
            _fused_engine_group(group, population, results)
        except Exception as error:
            for index, _, _ in group:
                if results[index] is None:
                    results[index] = error
        report.groups.append(
            GroupExecution(
                kind="engine",
                indices=tuple(index for index, _, _ in group),
                start=started,
                seconds=time.perf_counter() - started,
                backend=backend_name,
                protocol=group[0][1].protocol.name,
            )
        )

    for index, resolved in scalar:
        report.scalar_requests += 1
        started = time.perf_counter()
        try:
            result = resolved.protocol.estimate(
                resolved.population, resolved.rounds, resolved.rng
            )
            results[index] = dataclasses.replace(
                result, seed_provenance=resolved.seed_provenance
            )
        except Exception as error:
            results[index] = error
        report.groups.append(
            GroupExecution(
                kind="scalar",
                indices=(index,),
                start=started,
                seconds=time.perf_counter() - started,
                backend=backend_name,
                protocol=resolved.protocol.name,
            )
        )

    return results


def degradable(resolved: ResolvedRequest) -> bool:
    """Whether the sampled fallback tier can serve this request.

    The ladder's cheap rung draws per-round *statistics* from their
    exact law instead of hashing every tag: active-variant PET through
    :class:`~repro.sim.sampled.SampledSimulator`, and any protocol
    exposing an ``estimate_sampled(n, rounds, rng)`` statistic law
    (FNEB, LoF, USE/UPE/EZB, ALOHA).  Sampled laws need the true
    population *size* only, so a request qualifies exactly when its
    protocol has a law for it.
    """
    protocol = resolved.protocol
    if isinstance(protocol, PetProtocol):
        return not protocol.config.passive_tags
    return callable(getattr(protocol, "estimate_sampled", None))


def execute_degraded(resolved: ResolvedRequest):
    """Serve one request from the sampled tier (overload fallback).

    Draws per-round statistics from their exact distribution instead
    of hashing the population — cheap per round regardless of ``n``.
    The estimate follows the same law but is *not* bit-identical to
    the vectorized tier (different randomness consumption), which is
    why the service marks these responses ``degraded`` and the result
    cache never stores them.
    """
    from ..sim.sampled import SampledSimulator

    protocol = resolved.protocol
    if not degradable(resolved):
        raise ConfigurationError(
            f"protocol {protocol.name!r} has no sampled fallback tier"
        )
    if not isinstance(protocol, PetProtocol):
        result = protocol.estimate_sampled(
            resolved.population.size, resolved.rounds, resolved.rng
        )
        # estimate_sampled already funnels through _observe_result;
        # only the request's provenance stamp is missing.
        return dataclasses.replace(
            result, seed_provenance=resolved.seed_provenance
        )
    simulator = SampledSimulator(
        resolved.population.size,
        config=protocol.config.with_rounds(resolved.rounds),
        rng=resolved.rng,
    )
    outcome = simulator.estimate()
    result = ProtocolResult(
        protocol=protocol.name,
        n_hat=outcome.n_hat,
        rounds=outcome.num_rounds,
        total_slots=outcome.total_slots,
        per_round_statistics=outcome.depths,
        seed_provenance=resolved.seed_provenance,
    )
    return protocol._observe_result(result)
