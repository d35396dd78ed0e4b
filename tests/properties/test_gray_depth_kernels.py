"""Property tests (hypothesis): both batched gray-depth kernels against
the definition.

A round's gray depth is the longest prefix the estimating path shares
with any tag code, capped at the tree height ``H``:
``min(H, max_t (H - (c_t ^ p).bit_length()))``.  The kernels compute it
as one leading-zeros count of the nearest code's XOR (a row ``min`` for
fresh codes, the two sorted neighbours for fixed codes); these tests
pin that to the definition over every height the engines accept,
duplicate codes, exact hits, edge paths and every chunking, on every
installed kernel backend.  The fresh kernel XORs raw digests with the
path moved to the top bits instead of shifting every code down; it is
also pinned to that shifted-code formula over real hash families, and
every family's ``digest_matrix`` to its premix-then-mix composition.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hashing
from repro.hashing.family import HashFamily, Md5HashFamily, SplitMix64Family
from repro.hashing.geometric import leading_zeros64_vec
from repro.sim.backends import available_backends, use_backend
from repro.sim.batched import (
    batched_gray_depths_fresh,
    batched_gray_depths_sorted,
)


def _definition(codes, path: int, height: int) -> int:
    return min(
        height, max(height - (code ^ path).bit_length() for code in codes)
    )


class _TableFamily(HashFamily):
    """Serves a fixed code table: round seed ``i``, tag key ``j`` ->
    ``table[i, j]``, so a test chooses every round's codes exactly."""

    def __init__(self, table: np.ndarray, height: int):
        self.table = table
        self.shift = np.uint64(64 - height)

    def digest(self, seed: int, key: int) -> int:
        return int(self.table[seed, key]) << int(self.shift)

    def mix_keys(self, premixed, keys, backend=None) -> np.ndarray:
        rows = self.table[np.asarray(premixed, dtype=np.intp)]
        return rows[:, np.asarray(keys, dtype=np.intp)] << self.shift


@st.composite
def code_tables(draw):
    """``(height, table, paths)``: ``table[r]`` holds round ``r``'s codes.

    Codes come partly from a pool of at most three values, so rows hold
    duplicates; each path is either one of its round's codes (an exact
    hit, depth ``H``) or any ``H``-bit value.
    """
    height = draw(st.integers(min_value=1, max_value=62))
    code = st.integers(min_value=0, max_value=2**height - 1)
    n = draw(st.integers(min_value=1, max_value=10))
    rounds = draw(st.integers(min_value=1, max_value=12))
    pool = draw(st.lists(code, min_size=1, max_size=3))
    entry = st.one_of(st.sampled_from(pool), code)
    table = [
        draw(st.lists(entry, min_size=n, max_size=n))
        for _ in range(rounds)
    ]
    paths = [draw(st.one_of(st.sampled_from(row), code)) for row in table]
    return height, table, paths


def _chunk_elements(choice: str, n: int) -> int:
    # "3n" gives three-round chunks, so most round counts leave a
    # partial last chunk.
    return {
        "1": 1,
        "n-1": max(1, n - 1),
        "n": n,
        "3n": 3 * n,
        "2^21": 1 << 21,
    }[choice]


@pytest.mark.parametrize("backend_name", available_backends())
@settings(max_examples=150, deadline=None)
@given(
    case=code_tables(),
    chunk=st.sampled_from(["1", "n-1", "n", "3n", "2^21"]),
)
def test_fresh_kernel_matches_definition(backend_name, case, chunk):
    height, table, paths = case
    rounds, n = len(table), len(table[0])
    family = _TableFamily(np.array(table, dtype=np.uint64), height)
    with use_backend(backend_name):
        depths = batched_gray_depths_fresh(
            np.arange(n, dtype=np.uint64),
            np.arange(rounds, dtype=np.uint64),
            np.array(paths, dtype=np.uint64),
            height,
            family,
            chunk_elements=_chunk_elements(chunk, n),
        )
    assert depths.dtype == np.int64
    assert depths.tolist() == [
        _definition(row, path, height) for row, path in zip(table, paths)
    ]


@pytest.mark.parametrize("backend_name", available_backends())
@settings(max_examples=150, deadline=None)
@given(case=code_tables())
def test_sorted_kernel_matches_definition(backend_name, case):
    height, table, paths = case
    codes = table[0]
    # Every code as an exact hit, plus both edge paths: below every
    # code and above every code.
    paths = paths + codes + [0, 2**height - 1]
    with use_backend(backend_name):
        depths = batched_gray_depths_sorted(
            np.sort(np.array(codes, dtype=np.uint64)),
            np.array(paths, dtype=np.uint64),
            height,
        )
    assert depths.dtype == np.int64
    assert depths.tolist() == [
        _definition(codes, path, height) for path in paths
    ]


def _shifted_code_formula(tag_ids, seeds, paths, height, family):
    """Reference form of the fresh kernel: shift every digest down to an
    ``H``-bit code, XOR the path, row min, shift back, clamped clz."""
    codes = family.code_matrix(seeds, tag_ids, height)
    codes ^= paths[:, None]
    nearest = codes.min(axis=1)
    nearest <<= np.uint64(64 - height)
    return np.minimum(height, leading_zeros64_vec(nearest))


@st.composite
def fresh_cases(draw):
    """``(height, tag_ids, seeds, paths)`` over real hash families.

    Heights include the bit-width edges; a path either has its top code
    bit set or is any ``H``-bit value.
    """
    height = draw(st.sampled_from([1, 31, 32, 62]))
    word = st.integers(min_value=0, max_value=2**64 - 1)
    n = draw(st.integers(min_value=1, max_value=8))
    rounds = draw(st.integers(min_value=1, max_value=10))
    tag_ids = draw(st.lists(word, min_size=n, max_size=n))
    seeds = draw(st.lists(word, min_size=rounds, max_size=rounds))
    code = st.integers(min_value=0, max_value=2**height - 1)
    top_bit = code.map(lambda path: path | (1 << (height - 1)))
    paths = draw(
        st.lists(
            st.one_of(top_bit, code), min_size=rounds, max_size=rounds
        )
    )
    return height, tag_ids, seeds, paths


@pytest.mark.parametrize("backend_name", available_backends())
@pytest.mark.parametrize(
    "family",
    [SplitMix64Family(), Md5HashFamily()],
    ids=lambda family: type(family).__name__,
)
@settings(max_examples=60, deadline=None)
@given(case=fresh_cases(), chunk=st.sampled_from(["1", "n-1", "n", "3n"]))
def test_fresh_kernel_matches_shifted_code_formula(
    backend_name, family, case, chunk
):
    height, tag_ids, seeds, paths = case
    tag_ids = np.array(tag_ids, dtype=np.uint64)
    seeds = np.array(seeds, dtype=np.uint64)
    paths = np.array(paths, dtype=np.uint64)
    with use_backend(backend_name):
        depths = batched_gray_depths_fresh(
            tag_ids,
            seeds,
            paths,
            height,
            family,
            chunk_elements=_chunk_elements(chunk, tag_ids.size),
        )
        expected = _shifted_code_formula(
            tag_ids, seeds, paths, height, family
        )
    assert depths.dtype == np.int64
    assert depths.tolist() == expected.tolist()
    assert depths.tolist() == [
        _definition(
            [family.code(int(seed), int(tag), height) for tag in tag_ids],
            int(path),
            height,
        )
        for seed, path in zip(seeds, paths)
    ]


def _exported_families():
    """One instance of every concrete family ``repro.hashing`` exports."""
    families = []
    for name in repro.hashing.__all__:
        value = getattr(repro.hashing, name)
        if (
            isinstance(value, type)
            and issubclass(value, HashFamily)
            and not getattr(value, "__abstractmethods__", None)
        ):
            families.append(value())
    return families


def test_every_exported_family_is_covered():
    names = {type(family).__name__ for family in _exported_families()}
    assert {"SplitMix64Family", "Md5HashFamily", "Sha1HashFamily"} <= names


@pytest.mark.parametrize("backend_name", available_backends())
@pytest.mark.parametrize(
    "family",
    _exported_families(),
    ids=lambda family: type(family).__name__,
)
def test_digest_matrix_is_premix_then_mix(backend_name, family):
    rng = np.random.default_rng(27)
    seeds = rng.integers(0, 2**64, size=5, dtype=np.uint64)
    seeds[0] = 0
    seeds[1] = 2**64 - 1
    keys = rng.integers(0, 2**64, size=7, dtype=np.uint64)
    with use_backend(backend_name):
        matrix = family.digest_matrix(seeds, keys)
        composed = family.mix_keys(family.premix_seeds(seeds), keys)
        # A chunk of premixed rows mixes like the same rows of the whole.
        chunked = family.mix_keys(family.premix_seeds(seeds)[2:4], keys)
    assert matrix.dtype == np.uint64
    assert np.array_equal(matrix, composed)
    assert np.array_equal(matrix[2:4], chunked)
    assert matrix.tolist() == [
        [family.digest(int(seed), int(key)) for key in keys]
        for seed in seeds
    ]
