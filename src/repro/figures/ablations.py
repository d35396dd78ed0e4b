"""Ablation experiments beyond the paper's tables (DESIGN.md index).

* :func:`passive_vs_active` — does reusing one preloaded code across all
  rounds (Sec. 4.5) degrade accuracy relative to fresh per-round codes?
  The paper argues the path randomness yields "near independent"
  instances; this measures how near at its default n = 10^4 only.
  Rounds are i.i.d. only given the code set, whose draw adds a
  relative variance of about 0.40/n to the estimate that more rounds
  cannot lower.  At n = 10^4 that floor hides under the round noise,
  but below about n = 0.4 c^2 / eps^2 no round count meets an
  (eps, delta) contract: at (0.1, 0.05) passive coverage was 0.598
  at n = 30 (see EXPERIMENTS.md).
* :func:`height_sensitivity` — the hash-saturation regime: what happens
  to the estimate when ``2^H`` is not ``>> n`` (Eq. 1's boundary).
* :func:`search_cost` — per-round slot cost of the linear (Alg. 1) scan
  vs binary (Alg. 3) search as ``n`` scales: O(log n) vs O(log log n).
* :func:`loss_robustness` — estimate bias under per-response erasure
  (the paper assumes a lossless channel).
* :func:`identification_vs_estimation` — exact counting (Aloha-Q, tree
  walking) slot cost vs PET's, the motivating gap of the introduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import ChannelConfig, PetConfig
from ..core.accuracy import minimum_height
from ..protocols.aloha import FramedAlohaIdentification
from ..protocols.pet import PetProtocol
from ..protocols.treewalk import TreeWalkIdentification
from ..sim.experiment import ExperimentRunner
from ..sim.report import Table
from ..sim.sampled import SampledSimulator
from ..sim.slotsim import SlotLevelSimulator
from ..sim.workload import WorkloadSpec
from ..tags.population import TagPopulation


@dataclass(frozen=True)
class AblationRow:
    """Generic (label -> metrics) row shared by the ablation tables."""

    label: str
    metrics: dict[str, float]


def passive_vs_active(
    n: int = 10_000,
    rounds: int = 128,
    runs: int = 200,
    base_seed: int = 71,
) -> Table:
    """Accuracy/std of the passive variant vs the active one."""
    runner = ExperimentRunner(base_seed=base_seed, repetitions=runs)
    spec = WorkloadSpec(size=n, seed=base_seed)
    out = Table(
        f"Ablation — passive (fixed codes) vs active (fresh codes), "
        f"n = {n:,}, m = {rounds}",
        ["variant", "accuracy", "normalized std", "runs"],
    )
    for label, passive in (("active", False), ("passive", True)):
        config = PetConfig(passive_tags=passive)
        repeated = runner.run_vectorized(spec, config, rounds)
        summary = repeated.summary()
        out.add_row(label, summary.accuracy, summary.normalized_std, runs)
    return out


def height_sensitivity(
    n: int = 50_000,
    heights: tuple[int, ...] = (16, 18, 20, 24, 32),
    rounds: int = 256,
    runs: int = 300,
    base_seed: int = 72,
) -> Table:
    """Estimation quality as the tree height approaches saturation."""
    out = Table(
        f"Ablation — tree height H sensitivity, n = {n:,} "
        f"(recommended minimum H = {minimum_height(n)})",
        ["H", "2^H / n", "accuracy", "normalized std"],
    )
    for height in heights:
        rng = np.random.default_rng((base_seed, height))
        simulator = SampledSimulator(
            n, config=PetConfig(tree_height=height), rng=rng
        )
        estimates = simulator.estimate_batch(rounds, runs)
        accuracy = float(estimates.mean()) / n
        normalized_std = float(
            np.sqrt(np.mean((estimates - n) ** 2))
        ) / n
        out.add_row(
            height, (2.0**height) / n, accuracy, normalized_std
        )
    return out


def search_cost(
    sizes: tuple[int, ...] = (100, 1_000, 10_000, 100_000, 1_000_000),
    rounds: int = 200,
    base_seed: int = 73,
) -> Table:
    """Mean slots per round: linear scan vs binary search."""
    out = Table(
        "Ablation — per-round slot cost, Algorithm 1 (linear, O(log n)) "
        "vs Algorithm 3 (binary, O(log log n))",
        ["n", "linear slots/round", "binary slots/round"],
    )
    for n in sizes:
        row = [n]
        for binary in (False, True):
            rng = np.random.default_rng((base_seed, n, int(binary)))
            simulator = SampledSimulator(
                n, config=PetConfig(binary_search=binary), rng=rng
            )
            result = simulator.estimate(rounds=rounds)
            row.append(result.total_slots / rounds)
        out.add_row(*row)
    return out


def loss_robustness(
    n: int = 2_000,
    loss_probabilities: tuple[float, ...] = (0.0, 0.01, 0.05, 0.10),
    rounds: int = 64,
    runs: int = 30,
    base_seed: int = 74,
) -> Table:
    """PET estimate bias under per-response erasure (slot-level sim).

    Loss can only flip a busy slot to idle (never the reverse), so the
    gray depth is under-read and the estimate biases low; the table
    quantifies by how much.
    """
    out = Table(
        f"Ablation — channel loss robustness, n = {n:,}, m = {rounds} "
        f"(slot-level simulation)",
        ["loss prob", "accuracy", "normalized std"],
    )
    for loss in loss_probabilities:
        estimates = []
        for run_index in range(runs):
            rng = np.random.default_rng(
                (base_seed, int(loss * 1000), run_index)
            )
            population = TagPopulation.random(n, rng)
            simulator = SlotLevelSimulator(
                population,
                config=PetConfig(rounds=rounds),
                channel_config=ChannelConfig(loss_probability=loss),
                rng=rng,
            )
            estimates.append(simulator.estimate().n_hat)
        values = np.asarray(estimates)
        out.add_row(
            f"{loss:.2f}",
            float(values.mean()) / n,
            float(np.sqrt(np.mean((values - n) ** 2))) / n,
        )
    return out


def identification_vs_estimation(
    sizes: tuple[int, ...] = (1_000, 5_000, 20_000),
    base_seed: int = 75,
) -> Table:
    """Slots for exact identification vs PET estimation (eps=5%, d=1%)."""
    from ..config import AccuracyRequirement

    requirement = AccuracyRequirement(0.05, 0.01)
    pet = PetProtocol()
    pet_slots = pet.planned_slots(requirement)
    out = Table(
        "Ablation — exact identification vs estimation "
        "(PET at eps = 5%, delta = 1%)",
        ["n", "Aloha-Q slots", "TreeWalk slots", "PET slots",
         "PET/TreeWalk"],
    )
    for n in sizes:
        rng = np.random.default_rng((base_seed, n))
        population = TagPopulation.random(n, rng)
        aloha_slots = FramedAlohaIdentification().identify(
            population, rng
        ).total_slots
        tree_slots = TreeWalkIdentification().identify(
            population
        ).total_slots
        out.add_row(
            n, aloha_slots, tree_slots, pet_slots,
            pet_slots / tree_slots,
        )
    return out


def main() -> None:
    """Print every ablation at moderate scale."""
    passive_vs_active().print()
    height_sensitivity().print()
    search_cost().print()
    loss_robustness().print()
    identification_vs_estimation().print()


if __name__ == "__main__":
    main()
