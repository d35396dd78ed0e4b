"""Property tests (hypothesis): both batched gray-depth kernels against
the definition.

A round's gray depth is the longest prefix the estimating path shares
with any tag code, capped at the tree height ``H``:
``min(H, max_t (H - (c_t ^ p).bit_length()))``.  The kernels compute it
as one leading-zeros count of the nearest code's XOR (a row ``min`` for
fresh codes, the two sorted neighbours for fixed codes); these tests
pin that to the definition over every height the engines accept,
duplicate codes, exact hits, edge paths and every chunking, on every
installed kernel backend.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing.family import HashFamily
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

    def digest_matrix(self, seeds: np.ndarray, keys: np.ndarray) -> np.ndarray:
        rows = self.table[np.asarray(seeds, dtype=np.intp)]
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
