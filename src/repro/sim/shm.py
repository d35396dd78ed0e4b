"""Zero-copy shared-memory arrays for multi-process workers.

The parallel rounds grid ships a large read-only input (the word
tensor) and collects a large output (the depth matrix) across process
boundaries, and serve shards read shared populations.
Pickling them through the ``ProcessPoolExecutor`` submit/return path
copies every byte twice; a :class:`SharedArray` instead places the
buffer in POSIX shared memory once and hands workers a tiny picklable
:class:`SharedArraySpec` to attach to.

Lifecycle discipline (the part that actually goes wrong in practice):

* the **creating** process owns the segment: it must :meth:`~SharedArray.close`
  *and* :meth:`~SharedArray.unlink` it, which the context-manager form
  does even when the sweep raises mid-flight;
* **attaching** processes only ever :meth:`~SharedArray.close`; they are
  also unregistered from ``multiprocessing.resource_tracker``, which on
  Python < 3.13 would otherwise unlink the segment when the *first*
  worker exits (cpython#82300) and spam "leaked shared_memory" warnings;
* serial code paths never construct a segment at all — the sweeps fall
  back to plain ``ndarray`` views when no worker pool is involved
  (asserted by the lifecycle tests).

Every create/attach/unlink is counted on the metrics registry
(``sharedmem.segments``, ``sharedmem.bytes``, ``sharedmem.attaches``,
``sharedmem.unlinks``) so cross-process memory traffic shows up in the
same telemetry as everything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from ..errors import ConfigurationError
from ..obs.registry import MetricsRegistry, get_registry


@dataclass(frozen=True)
class SharedArraySpec:
    """Picklable handle to a shared-memory array.

    Carries everything a worker needs to reattach: the segment name and
    the array's shape/dtype.  A spec is a *reference*, not a resource —
    the creating process keeps ownership of the segment's lifetime.
    """

    name: str
    shape: "tuple[int, ...]"
    dtype: str

    @property
    def nbytes(self) -> int:
        """Size of the described array in bytes."""
        return int(
            np.prod(self.shape, dtype=np.int64)
            * np.dtype(self.dtype).itemsize
        )


class SharedArray:
    """A numpy array backed by a named shared-memory segment.

    Construct through :meth:`create` (copy an existing array in),
    :meth:`zeros` (allocate an output buffer), or :meth:`attach`
    (map an existing segment from its spec inside a worker).
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        spec: SharedArraySpec,
        owner: bool,
    ) -> None:
        self._shm = shm
        self._spec = spec
        self._owner = owner
        self._closed = False
        self._array: "np.ndarray | None" = np.ndarray(
            spec.shape, dtype=spec.dtype, buffer=shm.buf
        )

    # -- constructors ------------------------------------------------

    @classmethod
    def create(
        cls,
        source: np.ndarray,
        registry: "MetricsRegistry | None" = None,
    ) -> "SharedArray":
        """Copy ``source`` into a fresh shared segment (caller owns it)."""
        shared = cls.zeros(
            source.shape, source.dtype, registry=registry
        )
        np.copyto(shared.array, source)
        return shared

    @classmethod
    def zeros(
        cls,
        shape: "tuple[int, ...]",
        dtype: "np.dtype | str",
        registry: "MetricsRegistry | None" = None,
    ) -> "SharedArray":
        """Allocate an owned, zero-filled shared array (for outputs)."""
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if nbytes <= 0:
            raise ConfigurationError(
                f"shared arrays must be non-empty, got shape {shape}"
            )
        shm = shared_memory.SharedMemory(create=True, size=nbytes)
        spec = SharedArraySpec(
            name=shm.name, shape=tuple(shape), dtype=dtype.str
        )
        shared = cls(shm, spec, owner=True)
        shared.array[...] = 0
        registry = registry if registry is not None else get_registry()
        if registry:
            registry.counter("sharedmem.segments").inc()
            registry.counter("sharedmem.bytes").inc(nbytes)
        return shared

    @classmethod
    def attach(
        cls,
        spec: SharedArraySpec,
        registry: "MetricsRegistry | None" = None,
    ) -> "SharedArray":
        """Map an existing segment inside a worker (non-owning).

        Before Python 3.13 an attach is (wrongly) registered with the
        ``resource_tracker`` as if it were a create (cpython#82300).
        Under ``spawn``/``forkserver`` each worker runs its own
        tracker, which would unlink the segment under the parent when
        the worker exits — so the attach is unregistered again there.
        Under ``fork`` all processes share the parent's tracker, whose
        cache deduplicates the re-registration; unregistering would
        instead erase the *owner's* entry, so it is left alone.
        """
        try:
            # Python 3.13+ fixes the bug properly.
            shm = shared_memory.SharedMemory(
                name=spec.name, track=False
            )
        except TypeError:
            import multiprocessing

            shm = shared_memory.SharedMemory(name=spec.name)
            if multiprocessing.get_start_method(True) != "fork":
                try:  # pragma: no cover - tracker is process state
                    resource_tracker.unregister(
                        shm._name, "shared_memory"
                    )
                except Exception:
                    pass
        registry = registry if registry is not None else get_registry()
        if registry:
            registry.counter("sharedmem.attaches").inc()
        return cls(shm, spec, owner=False)

    # -- accessors ---------------------------------------------------

    @property
    def spec(self) -> SharedArraySpec:
        """The picklable handle workers attach with."""
        return self._spec

    @property
    def array(self) -> np.ndarray:
        """The live numpy view over the shared buffer."""
        if self._array is None:
            raise ConfigurationError(
                f"shared array {self._spec.name!r} is closed"
            )
        return self._array

    @property
    def owner(self) -> bool:
        """Whether this handle owns (and must unlink) the segment."""
        return self._owner

    # -- lifecycle ---------------------------------------------------

    def close(self) -> None:
        """Drop this process's mapping (idempotent).

        The numpy view is released first — closing a segment with live
        exported buffers raises on CPython.
        """
        if self._closed:
            return
        self._array = None
        self._shm.close()
        self._closed = True

    def unlink(
        self, registry: "MetricsRegistry | None" = None
    ) -> None:
        """Remove the segment from the system (owner only, idempotent)."""
        if not self._owner:
            raise ConfigurationError(
                f"only the creating process may unlink "
                f"{self._spec.name!r}"
            )
        try:
            self._shm.unlink()
        except FileNotFoundError:  # already unlinked
            return
        registry = registry if registry is not None else get_registry()
        if registry:
            registry.counter("sharedmem.unlinks").inc()

    def __enter__(self) -> "SharedArray":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
        if self._owner:
            self.unlink()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "owner" if self._owner else "attached"
        return (
            f"SharedArray({self._spec.name!r}, "
            f"shape={self._spec.shape}, dtype={self._spec.dtype}, "
            f"{state})"
        )
