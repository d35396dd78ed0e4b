"""Saturation-aware estimation: the ``2^H`` boundary (Eq. 1 regime).

Sec. 4.2 notes that when ``p -> 0`` (every leaf black) the hashing
process becomes a coupon-collector problem and PET can only report
``n ~ 2^H``; the paper side-steps the regime by choosing ``H`` large.
This module handles the boundary honestly:

* :func:`saturation_level` — how saturated a tree is for given (n, H);
* :func:`corrected_estimate` — a first-order bias correction that
  inverts the *exact* expected depth instead of the asymptotic
  ``log2(phi n)``, recovering accuracy in the mildly-saturated band
  (``2^H / n`` between ~4 and ~100) where the plain estimator already
  reads visibly low (see the height-sensitivity ablation);
* :func:`effective_range` — the largest ``n`` a given ``H`` estimates
  within a target bias.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import AnalysisError
from .mellin import gray_depth_moments


def saturation_level(n: int, height: int) -> float:
    """Expected fraction of *black* leaves, ``1 - (1 - 2^-H)^n``."""
    if n < 0:
        raise AnalysisError(f"n must be >= 0, got {n}")
    if not 1 <= height <= 64:
        raise AnalysisError(f"height must lie in [1, 64], got {height}")
    return 1.0 - (1.0 - 2.0**-height) ** n


def expected_depth_exact(n: int, height: int) -> float:
    """Exact ``E[d]`` including saturation effects."""
    return gray_depth_moments(n, height).mean_depth


def corrected_estimate(
    mean_depth: float, height: int, max_n: int | None = None
) -> float:
    """Invert the exact depth law at an observed mean depth.

    Monotone bisection on ``n -> E_exact[d](n)``.  Falls back to the
    asymptotic estimator when the observation is clearly in the
    unsaturated regime (where the two coincide).

    Parameters
    ----------
    mean_depth:
        Observed mean gray depth over the estimation rounds.
    height:
        Tree height ``H``.
    max_n:
        Upper bracket for the inversion; defaults to ``2^(H+6)``.
    """
    if not 0.0 <= mean_depth <= height:
        raise AnalysisError(
            f"mean depth {mean_depth!r} outside [0, {height}]"
        )
    if max_n is None:
        max_n = 1 << min(height + 6, 62)
    low, high = 1, max_n
    if expected_depth_exact(high, height) <= mean_depth:
        # Observation at least as deep as the law allows at the
        # bracket: the tree is fully saturated; report the bracket.
        return float(high)
    for _ in range(80):
        mid = (low + high) // 2
        if mid == low:
            break
        if expected_depth_exact(mid, height) < mean_depth:
            low = mid
        else:
            high = mid
    # Linear interpolation between the bracketing integers.
    d_low = expected_depth_exact(low, height)
    d_high = expected_depth_exact(high, height)
    if d_high == d_low:
        return float(low)
    fraction = (mean_depth - d_low) / (d_high - d_low)
    return float(low + fraction * (high - low))


def estimator_bias(n: int, height: int) -> float:
    """Relative bias of the plain estimator at (n, H).

    ``phi^-1 2^(E[d]) / n - 1``.  Positive at small ``n``, about
    ``+1/(2n)`` (at H = 32: +0.26 at n = 2, +0.050 at n = 10, +0.0005
    at n = 1000), because Eq. 14 inverts the asymptotic mean depth
    ``log2(phi n)``, which the paper claims only for ``1 << n``.  Near
    zero in between (about -1e-5 at n = 10^5, H = 32), and increasingly
    negative as ``2^H`` approaches ``n``.
    """
    from ..core.accuracy import PHI

    if n < 1:
        raise AnalysisError(f"n must be >= 1, got {n}")
    mean_depth = expected_depth_exact(n, height)
    return (2.0**mean_depth / PHI) / n - 1.0


def effective_range(height: int, bias_tolerance: float = 0.05) -> int:
    """Largest ``n`` estimated within ``bias_tolerance`` at height H.

    Binary search on :func:`estimator_bias`; the result backs the
    "H = 32 accommodates 40 million tags" style sizing claims.
    """
    if not 0.0 < bias_tolerance < 1.0:
        raise AnalysisError(
            f"bias_tolerance must lie in (0, 1), got {bias_tolerance!r}"
        )
    # Anchor the search above the tiny-n regime (n < ~100), where the
    # asymptotic constant phi has not converged yet and the plain
    # estimator carries a small positive bias unrelated to saturation.
    low = 128
    high = 1 << min(height + 4, 62)
    if height < 10 or abs(estimator_bias(low, height)) > bias_tolerance:
        raise AnalysisError(
            f"height {height} is too small for a meaningful effective "
            f"range at tolerance {bias_tolerance}"
        )
    if abs(estimator_bias(high, height)) <= bias_tolerance:
        return high
    while high - low > 1:
        mid = (low + high) // 2
        if abs(estimator_bias(mid, height)) <= bias_tolerance:
            low = mid
        else:
            high = mid
    return low
