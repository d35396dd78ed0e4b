"""Seeded hash families producing reproducible 64-bit digests.

A :class:`HashFamily` turns ``(seed, tag_id)`` pairs into uniform 64-bit
values.  Three concrete families are provided:

* :class:`SplitMix64Family` — a fast integer mixer; the library default.
  Its vectorized path hashes millions of tags per second with numpy.
* :class:`Md5HashFamily` / :class:`Sha1HashFamily` — the digest functions
  the paper names for preloading PET codes during manufacturing
  (Sec. 4.5: "MD5 and SHA-1 ... trivially convert them to shorter
  length").  Slower, used in tests and the passive-tag example to match
  the paper literally.

All families guarantee:

* determinism: the same ``(seed, key)`` always yields the same digest;
* seed sensitivity: different seeds induce (statistically) independent
  mappings, which is what makes PET estimation rounds independent.
"""

from __future__ import annotations

import abc
import hashlib

import numpy as np

from ..errors import ConfigurationError

_MASK64 = (1 << 64) - 1

# SplitMix64 constants (Steele, Lea & Flood 2014, public domain).
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def _normalized_seed(seed: int) -> int:
    """Reduce an arbitrary Python int seed to its canonical 64-bit form.

    Every hash path used to re-apply ``seed & _MASK64`` inline; this is
    the single place that normalization now happens, so the scalar and
    vectorized paths cannot drift apart on out-of-range seeds.
    """
    return seed & _MASK64


def splitmix64(value: int) -> int:
    """Mix a 64-bit integer through the SplitMix64 finalizer."""
    value = (value + _GOLDEN_GAMMA) & _MASK64
    value = ((value ^ (value >> 30)) * _MIX_A) & _MASK64
    value = ((value ^ (value >> 27)) * _MIX_B) & _MASK64
    return value ^ (value >> 31)


class HashFamily(abc.ABC):
    """A keyed family of hash functions ``h_seed: key -> uint64``."""

    @abc.abstractmethod
    def digest(self, seed: int, key: int) -> int:
        """Return a uniform 64-bit digest of ``key`` under ``seed``."""

    def digest_many(self, seed: int, keys: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`digest`; returns a ``uint64`` array.

        The base implementation loops in Python; subclasses with a numpy
        fast path override this.
        """
        out = np.empty(len(keys), dtype=np.uint64)
        for index, key in enumerate(keys):
            out[index] = self.digest(seed, int(key))
        return out

    def code(self, seed: int, key: int, bits: int) -> int:
        """Return the top ``bits`` bits of the digest as a PET-style code.

        Truncation to the top bits mirrors the paper's "trivially convert
        [a 128-bit digest] to shorter length" (Sec. 4.5).
        """
        _check_bits(bits)
        return self.digest(seed, key) >> (64 - bits)

    def codes(self, seed: int, keys: np.ndarray, bits: int) -> np.ndarray:
        """Vectorized :meth:`code`; returns a ``uint64`` array."""
        _check_bits(bits)
        digests = self.digest_many(seed, keys)
        return digests >> np.uint64(64 - bits)

    def premix_seeds(self, seeds: np.ndarray, backend=None) -> np.ndarray:
        """The per-seed half of :meth:`digest_matrix`.

        Returns one word per seed for :meth:`mix_keys`.  The base
        implementation is the identity; families whose digest mixes
        the seed on its own (SplitMix64) do that mix here, so a caller
        hashing many key chunks under the same seeds pays it once.
        ``backend`` is the kernel backend to hash on (``None``: the
        active one).
        """
        return np.asarray(seeds)

    def mix_keys(
        self, premixed: np.ndarray, keys: np.ndarray, backend=None
    ) -> np.ndarray:
        """The per-key half of :meth:`digest_matrix`.

        ``premixed`` comes from :meth:`premix_seeds`; the result is the
        ``(len(premixed), len(keys))`` digest matrix.  The base
        implementation loops over seeds calling :meth:`digest_many`.
        """
        out = np.empty((len(premixed), len(keys)), dtype=np.uint64)
        for index, seed in enumerate(premixed):
            out[index] = self.digest_many(int(seed), keys)
        return out

    def digest_matrix(self, seeds: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Digests for every (seed, key) pair: a ``(len(seeds), len(keys))``
        ``uint64`` matrix with ``out[i, j] == digest(seeds[i], keys[j])``.

        Always ``mix_keys(premix_seeds(seeds), keys)``; families with a
        numpy fast path override those two halves with broadcasts (the
        batched engines compute many per-round code sets at once
        through this hook).
        """
        return self.mix_keys(self.premix_seeds(seeds), keys)

    def code_matrix(
        self, seeds: np.ndarray, keys: np.ndarray, bits: int
    ) -> np.ndarray:
        """Vectorized :meth:`code` over every (seed, key) pair.

        Returns a new array that callers may modify in place.
        """
        _check_bits(bits)
        return self.digest_matrix(seeds, keys) >> np.uint64(64 - bits)


def _check_bits(bits: int) -> None:
    if not 1 <= bits <= 64:
        raise ConfigurationError(f"code width must lie in [1, 64], got {bits}")


class SplitMix64Family(HashFamily):
    """Default fast hash family based on the SplitMix64 finalizer.

    The seed and key are combined with distinct odd multipliers before
    mixing, so ``h_seed`` and ``h_seed'`` behave as independent functions.
    """

    def digest(self, seed: int, key: int) -> int:
        mixed = (
            splitmix64(_normalized_seed(seed)) ^ (key & _MASK64)
        ) & _MASK64
        return splitmix64(mixed)

    def digest_many(self, seed: int, keys: np.ndarray) -> np.ndarray:
        keys64 = np.asarray(keys, dtype=np.uint64)
        seeded = np.uint64(splitmix64(_normalized_seed(seed)))
        return _splitmix64_vec(keys64 ^ seeded)

    def premix_seeds(self, seeds: np.ndarray, backend=None) -> np.ndarray:
        """``splitmix64`` of every seed: one pass, no Python loop."""
        return _splitmix64_vec(np.asarray(seeds, dtype=np.uint64), backend)

    def mix_keys(
        self, premixed: np.ndarray, keys: np.ndarray, backend=None
    ) -> np.ndarray:
        """One broadcast over the (seeds x keys) grid; no Python loop."""
        keys64 = np.asarray(keys, dtype=np.uint64)
        return _splitmix64_vec(keys64[None, :] ^ premixed[:, None], backend)


def _splitmix64_vec(values: np.ndarray, backend=None) -> np.ndarray:
    """Vectorized SplitMix64 finalizer, routed through a kernel backend
    (``None``: the active one).

    The reference (numpy) implementation lives in
    :mod:`repro.sim.backends.numpy_backend`; selecting another backend
    (``--backend``, ``REPRO_BACKEND``) swaps the execution substrate of
    every hash pass while keeping the bit pattern — the backend
    contract tests enforce element-wise equality with the scalar
    :func:`splitmix64`.
    """
    if backend is None:
        backend = _active_backend()
    return backend.splitmix64_vec(values)


def _active_backend():
    """The process-wide kernel backend (lazily imported).

    The import happens at call time, not module-import time, because
    :mod:`repro.sim` sits above the hashing layer; by the first hash
    pass it is always importable.
    """
    global _backend_resolver
    if _backend_resolver is None:
        from ..sim.backends import active_backend

        _backend_resolver = active_backend
    return _backend_resolver()


_backend_resolver = None


class _DigestFamily(HashFamily):
    """Shared implementation for hashlib-backed families."""

    _algorithm: str = ""

    def digest(self, seed: int, key: int) -> int:
        hasher = hashlib.new(self._algorithm)
        hasher.update(seed.to_bytes(8, "big", signed=False))
        hasher.update(key.to_bytes(16, "big", signed=False))
        return int.from_bytes(hasher.digest()[:8], "big")


class Md5HashFamily(_DigestFamily):
    """MD5-based family: the digest function named in Sec. 4.5."""

    _algorithm = "md5"


class Sha1HashFamily(_DigestFamily):
    """SHA-1-based family: the other digest function named in Sec. 4.5."""

    _algorithm = "sha1"


_DEFAULT = SplitMix64Family()


def default_family() -> HashFamily:
    """Return the library-wide default hash family (SplitMix64)."""
    return _DEFAULT
