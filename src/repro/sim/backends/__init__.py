"""Pluggable kernel backends for the batched engines' hot primitives.

The batched experiment engines share three array primitives — the
vectorized SplitMix64 hash pass, the 64-bit leading-zero count, and the
clamped geometric bucketing.  This package abstracts them behind a
:class:`~repro.sim.backends.base.KernelBackend` so the same array
programs can run on different execution substrates:

* ``numpy`` — the pure-numpy reference implementation (always
  available; defines the bit patterns everything else must match);
* ``numba`` — ``@njit(parallel=True)``-compiled loops, available when
  the optional ``jit`` extra is installed.

Selection precedence (first match wins):

1. an explicit :func:`set_active_backend` call (the CLI's
   ``--backend`` flag lands here);
2. the ``REPRO_BACKEND`` environment variable;
3. the default, ``numpy``.

The active backend is process-global: the hashing layer
(:mod:`repro.hashing.family`, :mod:`repro.hashing.geometric`) routes
every vectorized pass through it, so the batched engines in
:mod:`repro.sim.batched` and :mod:`repro.sim.protocol_batched` pick it
up without any plumbing.  ``tests/sim/test_backends.py`` enforces the
per-backend bit-identity contract over every installed backend; see
``docs/BACKENDS.md`` for how to add a backend.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from typing import Callable, Iterator

from ...errors import ConfigurationError
from .base import KernelBackend
from .numpy_backend import NumpyBackend

#: Environment variable consulted when no backend was set explicitly.
ENV_VAR = "REPRO_BACKEND"

#: Name of the always-available reference backend.
DEFAULT_BACKEND = "numpy"


@dataclass(frozen=True)
class BackendSpec:
    """One registry row: how to probe for and build a backend."""

    name: str
    factory: Callable[[], KernelBackend]
    probe: Callable[[], bool]
    summary: str


def _probe_numba() -> bool:
    from .numba_backend import HAVE_NUMBA

    return HAVE_NUMBA


def _make_numba() -> KernelBackend:
    from .numba_backend import NumbaBackend

    return NumbaBackend()


_REGISTRY: "dict[str, BackendSpec]" = {}

#: Built singletons, one per backend name (JIT backends compile once).
_INSTANCES: "dict[str, KernelBackend]" = {}

#: The explicitly selected backend, when :func:`set_active_backend`
#: (or the CLI) has been called; ``None`` defers to the environment.
_SELECTED: "KernelBackend | None" = None


def register_backend(
    name: str,
    factory: Callable[[], KernelBackend],
    probe: Callable[[], bool] = lambda: True,
    summary: str = "",
) -> None:
    """Register a backend ``factory`` under ``name``.

    ``probe`` reports availability without importing heavy
    dependencies; unavailable backends stay listed in
    :func:`known_backends` but are excluded from
    :func:`available_backends`, and :func:`get_backend` explains what
    is missing instead of failing with a bare ``ImportError``.
    """
    _REGISTRY[name] = BackendSpec(
        name=name, factory=factory, probe=probe, summary=summary
    )
    _INSTANCES.pop(name, None)


register_backend(
    "numpy",
    NumpyBackend,
    summary="pure-numpy reference kernels (always available)",
)
register_backend(
    "numba",
    _make_numba,
    probe=_probe_numba,
    summary="@njit(parallel=True) JIT kernels (optional 'jit' extra)",
)


def known_backends() -> "tuple[str, ...]":
    """Every registered backend name, available or not."""
    return tuple(_REGISTRY)


def available_backends() -> "tuple[str, ...]":
    """Names of the backends that can actually be constructed here."""
    return tuple(
        spec.name for spec in _REGISTRY.values() if spec.probe()
    )


def backend_summaries() -> "list[tuple[str, str, bool]]":
    """``(name, summary, available)`` rows for help text and docs."""
    return [
        (spec.name, spec.summary, spec.probe())
        for spec in _REGISTRY.values()
    ]


def get_backend(name: "str | None" = None) -> KernelBackend:
    """Resolve ``name`` (or the active selection) to a backend instance.

    Instances are cached per name, so a JIT backend compiles its
    kernels once per process.  Unknown names and known-but-unavailable
    backends both raise :class:`~repro.errors.ConfigurationError` with
    an actionable message.
    """
    if name is None:
        return active_backend()
    spec = _REGISTRY.get(name)
    if spec is None:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigurationError(
            f"unknown kernel backend {name!r}; known backends: {known}"
        )
    if not spec.probe():
        raise ConfigurationError(
            f"kernel backend {name!r} is not available in this "
            f"environment ({spec.summary}); install the missing "
            f"dependency or select another of: "
            f"{', '.join(available_backends())}"
        )
    instance = _INSTANCES.get(name)
    if instance is None:
        instance = spec.factory()
        _INSTANCES[name] = instance
    return instance


def active_backend() -> KernelBackend:
    """The backend every vectorized hash pass currently routes through.

    Precedence: :func:`set_active_backend` > ``REPRO_BACKEND`` >
    ``numpy``.  The environment variable is re-read on every resolution
    while no explicit selection is in force, so tests can flip it with
    ``monkeypatch.setenv``; the returned instances themselves are
    cached.
    """
    if _SELECTED is not None:
        return _SELECTED
    return get_backend(os.environ.get(ENV_VAR) or DEFAULT_BACKEND)


def set_active_backend(
    name: "str | None",
) -> "KernelBackend | None":
    """Select the process-wide backend (``None`` reverts to env/default).

    Returns the newly active instance (or ``None`` when reverting), so
    callers like the CLI can log what they got.
    """
    global _SELECTED
    if name is None:
        _SELECTED = None
        return None
    _SELECTED = get_backend(name)
    return _SELECTED


@contextlib.contextmanager
def use_backend(name: str) -> Iterator[KernelBackend]:
    """Scoped :func:`set_active_backend`; restores the prior selection."""
    global _SELECTED
    previous = _SELECTED
    backend = get_backend(name)
    _SELECTED = backend
    try:
        yield backend
    finally:
        _SELECTED = previous


__all__ = [
    "ENV_VAR",
    "DEFAULT_BACKEND",
    "KernelBackend",
    "NumpyBackend",
    "BackendSpec",
    "register_backend",
    "known_backends",
    "available_backends",
    "backend_summaries",
    "get_backend",
    "active_backend",
    "set_active_backend",
    "use_backend",
]
