"""Predicted sampling distributions for PET and the baselines.

* PET: the ``m``-round estimate is ``n_hat = phi^-1 2^(d_bar)``; by the
  central limit theorem ``d_bar`` is approximately normal with the exact
  per-round moments from :mod:`repro.analysis.mellin`, making ``n_hat``
  log-normal.  :func:`estimate_distribution` evaluates that density —
  the theoretical curve of Fig. 6a — and
  :func:`within_interval_probability` integrates it over the confidence
  interval.

* FNEB: the per-round statistic is the index of the first nonempty slot
  of a hashed frame.  Its exact moments follow from
  ``P(X > x) = (1 - x/f)^n``.

* LoF: the per-round statistic is the index of the first *empty* bucket
  under geometric hashing.  Bucket occupancies are weakly dependent; we
  use the standard independent-bucket (Poisson) approximation
  ``P(bucket j empty) = exp(-n 2^-(j+1))``, accurate to ``O(1/n)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.accuracy import PHI
from ..errors import AnalysisError
from .mellin import gray_depth_moments


@dataclass(frozen=True)
class RoundMoments:
    """Mean and standard deviation of one round's statistic."""

    mean: float
    std: float


def pet_round_moments(n: int, height: int) -> RoundMoments:
    """Exact per-round gray-depth moments for PET."""
    moments = gray_depth_moments(n, height)
    return RoundMoments(mean=moments.mean_depth, std=moments.std_depth)


def estimate_distribution(
    n: int,
    height: int,
    rounds: int,
    grid: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Theoretical density of the PET estimate after ``rounds`` rounds.

    Returns ``(grid, pdf)`` where ``pdf[i]`` is the density of ``n_hat``
    at ``grid[i]``.  ``d_bar ~ Normal(mu_d, sigma_d / sqrt(m))`` makes
    ``n_hat = phi^-1 2^(d_bar)`` log-normal:

        ln n_hat = d_bar ln 2 - ln phi.

    Parameters
    ----------
    grid:
        Estimate values at which to evaluate the density; defaults to
        ``n * [0.8, 1.2]`` with 481 points.
    """
    if rounds < 1:
        raise AnalysisError(f"rounds must be >= 1, got {rounds}")
    moments = pet_round_moments(n, height)
    mu_log = moments.mean * math.log(2.0) - math.log(PHI)
    sigma_log = moments.std * math.log(2.0) / math.sqrt(rounds)
    if grid is None:
        grid = np.linspace(0.8 * n, 1.2 * n, 481)
    grid = np.asarray(grid, dtype=np.float64)
    if np.any(grid <= 0):
        raise AnalysisError("estimate grid must be strictly positive")
    from scipy import stats as sstats

    pdf = sstats.lognorm.pdf(grid, s=sigma_log, scale=math.exp(mu_log))
    return grid, pdf


def within_interval_probability(
    n: int, height: int, rounds: int, epsilon: float
) -> float:
    """Predicted ``Pr{|n_hat - n| <= eps n}`` for PET.

    Integrates the log-normal model over ``[(1-eps)n, (1+eps)n]``.
    """
    if not 0.0 < epsilon < 1.0:
        raise AnalysisError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    moments = pet_round_moments(n, height)
    mu_log = moments.mean * math.log(2.0) - math.log(PHI)
    sigma_log = moments.std * math.log(2.0) / math.sqrt(rounds)
    lower = math.log((1.0 - epsilon) * n)
    upper = math.log((1.0 + epsilon) * n)
    from scipy import stats as sstats

    normal = sstats.norm(loc=mu_log, scale=sigma_log)
    return float(normal.cdf(upper) - normal.cdf(lower))


def fneb_round_moments(n: int, frame_size: int) -> RoundMoments:
    """Exact moments of FNEB's first-nonempty-slot index.

    Slots are numbered ``1..f``; with ``n >= 1`` tags hashed uniformly,
    ``P(X > x) = prod-free (1 - x/f)^n`` for ``0 <= x < f``.  Moments via
    ``E[X] = sum P(X > x)`` and ``E[X^2] = sum (2x+1) P(X > x)``.
    """
    if n < 1:
        raise AnalysisError(f"n must be >= 1, got {n}")
    if frame_size < 1:
        raise AnalysisError(f"frame_size must be >= 1, got {frame_size}")
    if frame_size <= 1 << 16:
        xs = np.arange(frame_size, dtype=np.float64)
        tail = (1.0 - xs / frame_size) ** n  # P(X > x), x = 0..f-1
        mean = float(tail.sum())
        second = float(((2.0 * xs + 1.0) * tail).sum())
        var = max(second - mean**2, 0.0)
        return RoundMoments(mean=mean, std=math.sqrt(var))
    # Large frames: P(X > x) ~ exp(-n x / f), i.e. X is geometric with
    # success probability 1 - r, r = exp(-n/f).  Then E[X] = 1/(1-r) and
    # Var[X] = r/(1-r)^2 (truncation at f is negligible for n >= 1).
    r = math.exp(-n / frame_size)
    mean = 1.0 / (1.0 - r)
    std = math.sqrt(r) / (1.0 - r)
    return RoundMoments(mean=mean, std=std)


def lof_round_moments(n: int, num_buckets: int = 32) -> RoundMoments:
    """Approximate moments of LoF's first-empty-bucket index ``R``.

    Independent-bucket approximation:
    ``P(R > r) = prod_{j<=r} (1 - exp(-n 2^-(j+1)))``; the residual mass
    beyond the last bucket is clamped to ``num_buckets``.
    """
    if n < 1:
        raise AnalysisError(f"n must be >= 1, got {n}")
    if num_buckets < 1:
        raise AnalysisError(f"num_buckets must be >= 1, got {num_buckets}")
    occupancy = 1.0 - np.exp(
        -n * 2.0 ** -(np.arange(num_buckets, dtype=np.float64) + 1.0)
    )
    tail = np.cumprod(occupancy)  # tail[r] = P(R > r)
    # PMF over r = 0..num_buckets: P(R = r) = P(R > r-1) - P(R > r).
    pmf = np.empty(num_buckets + 1)
    pmf[0] = 1.0 - tail[0]
    pmf[1:num_buckets] = tail[:-1] - tail[1:]
    pmf[num_buckets] = tail[-1]
    rs = np.arange(num_buckets + 1, dtype=np.float64)
    mean = float((rs * pmf).sum())
    var = float(((rs - mean) ** 2 * pmf).sum())
    return RoundMoments(mean=mean, std=math.sqrt(var))
