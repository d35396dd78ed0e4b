"""Table 3 — total time slots needed by PET, plus the protocol sweep.

With ``H = 32`` the binary-search protocol spends exactly
``ceil(log2 32) = 5`` slots per round (Sec. 5.2: "PET only takes five
time slots to complete each round"), so ``m`` rounds cost ``5 m`` slots.
This driver verifies the per-round figure *empirically* on the sampled
simulator rather than just multiplying constants: the measured mean
slots per round is printed next to the nominal 5.

:func:`protocol_sweep` is the companion comparison sweep: every baseline
protocol with a batched engine (FNEB, LoF, USE, UPE, EZB, ALOHA) over
the same rounds grid, through
:func:`repro.sim.protocol_batched.sweep_protocol_cells` — the workload
the ``sweep-paper`` end-to-end benchmark times (measured numbers in
``benchmarks/e2e/README.md``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import PAPER_RUNS_PER_POINT, PetConfig
from ..sim.protocol_batched import (
    ProtocolCellResult,
    ProtocolCellSpec,
    sweep_protocol_cells,
)
from ..sim.sampled import SampledSimulator
from ..sim.report import Table

#: Round counts reported by the paper's Table 3.
DEFAULT_ROUNDS = (8, 16, 32, 64, 128, 256, 512)

#: Population at which the empirical per-round cost is measured.
DEFAULT_N = 50_000


@dataclass(frozen=True)
class Table3Row:
    """Slot totals for one round count."""

    rounds: int
    nominal_slots: int
    measured_slots: float


def run(
    rounds_grid: tuple[int, ...] = DEFAULT_ROUNDS,
    n: int = DEFAULT_N,
    base_seed: int = 42,
) -> list[Table3Row]:
    """Measure total slots for each round count."""
    config = PetConfig()
    slots_per_round = max(1, (config.tree_height - 1).bit_length())
    rows = []
    for rounds in rounds_grid:
        rng = np.random.default_rng((base_seed, rounds))
        simulator = SampledSimulator(n, config=config, rng=rng)
        result = simulator.estimate(rounds=rounds)
        rows.append(
            Table3Row(
                rounds=rounds,
                nominal_slots=slots_per_round * rounds,
                measured_slots=float(result.total_slots),
            )
        )
    return rows


def table(rows: list[Table3Row]) -> Table:
    """Render the Table 3 reproduction."""
    out = Table(
        "Table 3 — total time slots needed for PET (H = 32, "
        "binary search: 5 slots/round)",
        ["rounds m", "slots (5m)", "measured slots"],
    )
    for row in rows:
        out.add_row(row.rounds, row.nominal_slots, row.measured_slots)
    return out


#: Baseline protocols included in the comparison sweep (every registry
#: entry with a batched engine).
SWEEP_PROTOCOLS = ("fneb", "lof", "use", "upe", "ezb", "aloha")

#: Population of the comparison sweep.  The framed zero estimators run
#: their default 1024-slot frames, so the sweep sits at their design
#: load (n ~ f) — at Table 3's n = 50 000 they would saturate in every
#: run (the prior-knowledge drawback Sec. 2 describes; fig6 covers the
#: large-n regime for FNEB/LoF).
SWEEP_N = 1_000

#: Rounds grid for the comparison sweep (subset of Table 3's grid; the
#: baselines' cost per round dwarfs PET's, so the sweep stays bounded).
SWEEP_ROUNDS = (8, 32, 128)


def protocol_sweep_specs(
    n: int = SWEEP_N,
    protocols: tuple[str, ...] = SWEEP_PROTOCOLS,
    rounds_grid: tuple[int, ...] = SWEEP_ROUNDS,
) -> list[ProtocolCellSpec]:
    """The sweep's cell grid: every protocol at every round count."""
    return [
        ProtocolCellSpec(protocol=name, n=n, rounds=rounds)
        for name in protocols
        for rounds in rounds_grid
    ]


def protocol_sweep(
    n: int = SWEEP_N,
    runs: int = PAPER_RUNS_PER_POINT,
    protocols: tuple[str, ...] = SWEEP_PROTOCOLS,
    rounds_grid: tuple[int, ...] = SWEEP_ROUNDS,
    base_seed: int = 42,
    workers: int | None = None,
    progress: bool = False,
) -> list[ProtocolCellResult]:
    """Run the baseline-protocol comparison sweep on the batched tier."""
    return sweep_protocol_cells(
        protocol_sweep_specs(n, protocols, rounds_grid),
        repetitions=runs,
        base_seed=base_seed,
        workers=workers,
        progress=progress,
    )


def protocol_table(results: list[ProtocolCellResult]) -> Table:
    """Render the comparison sweep."""
    out = Table(
        "Baseline-protocol comparison sweep (batched engines)",
        [
            "protocol",
            "rounds",
            "slots/run",
            "mean estimate",
            "rel. std",
            "saturated",
        ],
    )
    for result in results:
        finite = result.estimates[np.isfinite(result.estimates)]
        out.add_row(
            result.protocol,
            result.rounds,
            result.slots_per_run,
            float(finite.mean()) if finite.size else float("nan"),
            (
                float(finite.std() / result.true_n)
                if finite.size and result.true_n
                else float("nan")
            ),
            result.saturated_runs,
        )
    return out


def main() -> None:
    """Print the Table 3 reproduction."""
    table(run()).print()


def protocol_main(
    n: int = SWEEP_N,
    runs: int = PAPER_RUNS_PER_POINT,
    workers: int | None = None,
    progress: bool = False,
) -> None:
    """Print the baseline comparison sweep (CLI ``protocols`` entry)."""
    protocol_table(
        protocol_sweep(
            n=n, runs=runs, workers=workers, progress=progress
        )
    ).print()


if __name__ == "__main__":
    main()
