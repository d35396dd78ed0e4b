"""Tag population generation.

A :class:`TagPopulation` owns the set of tag IDs present in the region of
interest and can materialise them either as state-machine objects (for
the slot-level simulator) or as numpy ID/code arrays (for the vectorized
simulators).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..hashing import HashFamily, default_family, uniform_codes
from .pet_tags import ActivePetTag, PassivePetTag


class TagPopulation:
    """The set of RFID tags in the region of interest.

    Parameters
    ----------
    tag_ids:
        Unique tag identifiers.  Use :meth:`random` to synthesize a
        population with EPC-like 64-bit random IDs.
    family:
        Hash family used when deriving PET codes from IDs.
    """

    def __init__(
        self,
        tag_ids: Iterable[int],
        family: HashFamily | None = None,
    ):
        ids = list(tag_ids)
        if len(set(ids)) != len(ids):
            raise ConfigurationError("tag IDs must be unique")
        self._ids = np.array(sorted(ids), dtype=np.uint64)
        self._family = family or default_family()

    @classmethod
    def random(
        cls,
        size: int,
        rng: np.random.Generator,
        family: HashFamily | None = None,
    ) -> "TagPopulation":
        """Synthesize ``size`` tags with distinct random 64-bit IDs."""
        if size < 0:
            raise ConfigurationError(f"size must be >= 0, got {size}")
        draw = rng.integers(0, 2**63, size=size, dtype=np.int64)
        sorted_ids = draw.astype(np.uint64)
        # Sort in place and look for adjacent duplicates rather than
        # calling np.unique, whose hash pass costs ~25x a sort here.
        # On a collision-free draw (probability ~1 - size^2 / 2^64)
        # the sorted array is exactly np.unique's output, and so
        # bit-identical to the set/sort fallback below, which the
        # experiment engines rely on.
        sorted_ids.sort()
        if not np.any(sorted_ids[1:] == sorted_ids[:-1]):
            population = cls.__new__(cls)
            population._ids = sorted_ids
            population._family = family or default_family()
            return population
        ids = set(int(v) for v in draw)
        while len(ids) < size:
            more = rng.integers(
                0, 2**63, size=size - len(ids), dtype=np.int64
            )
            ids.update(int(v) for v in more)
        return cls(ids, family=family)

    @classmethod
    def from_sorted_ids(
        cls,
        ids: np.ndarray,
        family: HashFamily | None = None,
    ) -> "TagPopulation":
        """Wrap an already-sorted unique ``uint64`` ID array, zero-copy.

        Caller contract: ``ids`` is sorted ascending with no
        duplicates (not re-checked — that is the point).  The array is
        held by reference, so a shared-memory-backed buffer stays
        shared: worker shards attach the router's
        :class:`~repro.sim.shm.SharedArray` and build their population
        view through here without copying or re-validating.
        """
        population = cls.__new__(cls)
        population._ids = np.asarray(ids, dtype=np.uint64)
        population._family = family or default_family()
        return population

    @classmethod
    def sequential(
        cls, size: int, family: HashFamily | None = None
    ) -> "TagPopulation":
        """Population with IDs ``0..size-1`` (deterministic tests)."""
        if size < 0:
            raise ConfigurationError(f"size must be >= 0, got {size}")
        return cls(range(size), family=family)

    @property
    def size(self) -> int:
        """The true cardinality ``n`` (what the protocols estimate)."""
        return len(self._ids)

    def __len__(self) -> int:
        return self.size

    @property
    def tag_ids(self) -> np.ndarray:
        """Sorted tag IDs as a ``uint64`` array (read-only view)."""
        view = self._ids.view()
        view.flags.writeable = False
        return view

    @property
    def family(self) -> HashFamily:
        """Hash family used for code derivation."""
        return self._family

    def codes(self, seed: int, height: int) -> np.ndarray:
        """PET codes of every tag under ``seed`` (vectorized)."""
        return uniform_codes(seed, self._ids, height, self._family)

    def preloaded_codes(self, height: int) -> np.ndarray:
        """The Sec. 4.5 manufacturing-time codes of every tag."""
        return self.codes(PassivePetTag.MANUFACTURING_SEED, height)

    def build_active_tags(self, height: int) -> list[ActivePetTag]:
        """Materialise Algorithm 2 tag state machines."""
        return [
            ActivePetTag(int(tag_id), height, family=self._family)
            for tag_id in self._ids
        ]

    def build_passive_tags(self, height: int) -> list[PassivePetTag]:
        """Materialise Algorithm 4 (preloaded-code) tag state machines."""
        return [
            PassivePetTag(int(tag_id), height, family=self._family)
            for tag_id in self._ids
        ]

    def subset(self, tag_ids: Sequence[int]) -> "TagPopulation":
        """A new population holding only ``tag_ids`` (must be present)."""
        present = set(int(v) for v in self._ids)
        missing = [tid for tid in tag_ids if int(tid) not in present]
        if missing:
            raise ConfigurationError(
                f"{len(missing)} requested tags are not in the population "
                f"(first few: {missing[:3]})"
            )
        return TagPopulation(tag_ids, family=self._family)

    def union(self, other: "TagPopulation") -> "TagPopulation":
        """Population containing the tags of both (IDs must not clash)."""
        combined = set(int(v) for v in self._ids) | set(
            int(v) for v in other._ids
        )
        return TagPopulation(combined, family=self._family)
