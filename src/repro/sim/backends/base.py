"""The kernel-backend contract: the hot primitives behind every engine.

The batched engines (:mod:`repro.sim.batched`,
:mod:`repro.sim.protocol_batched`) spend nearly all of their time in
three array primitives:

* the vectorized SplitMix64 finalizer (every hash pass),
* the 64-bit leading-zero count (gray depths, geometric buckets),
* the clamped geometric bucketing ``min(clz(v), B)`` (LoF frames).

A :class:`KernelBackend` supplies all three.  The numpy implementation
is the **reference backend**: it defines the bit pattern every other
backend must reproduce.  Backends declare their exactness through
:attr:`KernelBackend.bit_identical`:

* ``True`` — every primitive returns byte-for-byte the reference
  output for every input (the registry's contract tests enforce this
  on every available backend).
* ``False`` — the backend is allowed a *documented* tolerance (for
  example a GPU backend whose reduction order differs); such a backend
  must describe the tolerance in :attr:`tolerance`, and its contract
  tests compare estimates against that bound instead of exact
  equality.

Both shipped backends (numpy, numba) are integer-exact end to end, so
they run under the strict bit-identity contract.
"""

from __future__ import annotations

import abc

import numpy as np


class KernelBackend(abc.ABC):
    """One implementation of the batched engines' hot primitives.

    Subclasses are registered with
    :func:`repro.sim.backends.register_backend` and selected by name
    (CLI ``--backend``, the ``REPRO_BACKEND`` environment variable, or
    :func:`repro.sim.backends.set_active_backend`).
    """

    #: Registry name; set by subclasses.
    name: str = ""

    #: Whether every primitive is byte-for-byte equal to the numpy
    #: reference.  ``False`` requires :attr:`tolerance` to document the
    #: allowed divergence.
    bit_identical: bool = True

    #: Human-readable description of the allowed divergence for
    #: non-bit-identical backends (``None`` for exact backends).
    tolerance: str | None = None

    @abc.abstractmethod
    def splitmix64_vec(self, values: np.ndarray) -> np.ndarray:
        """SplitMix64 finalizer over a ``uint64`` array (any shape).

        Returns a fresh array of the same shape; must not modify
        ``values``.
        """

    @abc.abstractmethod
    def leading_zeros64_vec(self, values: np.ndarray) -> np.ndarray:
        """Exact leading-zero count (``int64``; 64 for zero)."""

    @abc.abstractmethod
    def clamped_buckets(
        self, digests: np.ndarray, max_bucket: int
    ) -> np.ndarray:
        """Exact ``min(clz(digest), max_bucket)`` (``int64``)."""

    def describe(self) -> dict:
        """Metadata row for diagnostics and the benchmark record."""
        return {
            "name": self.name,
            "bit_identical": self.bit_identical,
            "tolerance": self.tolerance,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"
