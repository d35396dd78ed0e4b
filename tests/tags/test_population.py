"""Tests for tag population generation."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.tags.pet_tags import ActivePetTag, PassivePetTag
from repro.tags.population import TagPopulation


class TestConstruction:
    def test_sequential(self):
        population = TagPopulation.sequential(10)
        assert population.size == 10
        assert population.tag_ids.tolist() == list(range(10))

    def test_random_ids_unique(self):
        population = TagPopulation.random(
            5000, np.random.default_rng(0)
        )
        assert population.size == 5000
        assert len(set(population.tag_ids.tolist())) == 5000

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ConfigurationError):
            TagPopulation([1, 1, 2])

    def test_negative_size_rejected(self):
        with pytest.raises(ConfigurationError):
            TagPopulation.random(-1, np.random.default_rng(0))
        with pytest.raises(ConfigurationError):
            TagPopulation.sequential(-1)

    def test_empty_population(self):
        population = TagPopulation([])
        assert population.size == 0
        assert len(population) == 0

    def test_ids_read_only(self):
        population = TagPopulation.sequential(3)
        with pytest.raises(ValueError):
            population.tag_ids[0] = 99


def _digest(population: TagPopulation) -> str:
    return hashlib.sha256(population.tag_ids.tobytes()).hexdigest()


class DuplicatingRng:
    """A generator whose first ID draw repeats two IDs."""

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)
        self._first = True

    def integers(self, low, high, size, dtype):
        draw = self._rng.integers(low, high, size=size, dtype=dtype)
        if self._first:
            self._first = False
            draw[1] = draw[0]
            draw[3] = draw[2]
        return draw


class TestRandomSynthesis:
    """Pins ``TagPopulation.random`` to the IDs it has always drawn.

    Every tier synthesizes its populations the same way, so the
    cross-tier identity tests cannot see a change here; these digests
    can.
    """

    #: sha256 of ``tag_ids.tobytes()`` for ``random(n, default_rng(s))``.
    GOLDEN = {
        (0, 0): (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        ),
        (1, 0): (
            "8087b68be5045a816f35d5788f1207dc1c3193161ff8cbd2a555896c33c509c0"
        ),
        (1, 7): (
            "70bab9dbb232c25755f8613b2db89422fabc7b4800c01e9adc6c2b8f062d484a"
        ),
        (2, 0): (
            "c9e56e4f4d5bd24a8785d91736d0017dce68fca91210a2d487b9344fc5aaec0a"
        ),
        (2, 7): (
            "2fb53e4c4a1e1fbb36ee7a36a9d3c182dc7427332032ab5bbfd1aecde2f0223c"
        ),
        (1000, 0): (
            "6b7bc73e74991f6b5e68946f2d840759de33611e5cfd83f4124d32945c0f52ec"
        ),
        (1000, 7): (
            "95b6b31e437e3e8e8771a230b200f2e79701877df6aa0095fc082a1668a85ffc"
        ),
        (10000, 0): (
            "e0f7d761906c21f0a79d94803c94093f125b50de457b7c58aba7be97e0aa6ced"
        ),
        (10000, 7): (
            "29f217b3063e7bca80cdc79da2dc6e014ccd2945bf0248f16684cd3946469e40"
        ),
    }

    @pytest.mark.parametrize("size,seed", sorted(GOLDEN))
    def test_golden_digest(self, size, seed):
        population = TagPopulation.random(size, np.random.default_rng(seed))
        assert population.size == size
        assert _digest(population) == self.GOLDEN[(size, seed)]

    @pytest.mark.parametrize("size", [0, 1, 2, 1000, 10000])
    def test_equals_np_unique_of_the_draw(self, size):
        draw = np.random.default_rng(11).integers(
            0, 2**63, size=size, dtype=np.int64
        )
        population = TagPopulation.random(size, np.random.default_rng(11))
        assert population.tag_ids.dtype == np.uint64
        assert np.array_equal(
            population.tag_ids, np.unique(draw.astype(np.uint64))
        )

    def test_colliding_draw_takes_the_fallback(self):
        population = TagPopulation.random(50, DuplicatingRng(3))
        assert population.size == 50
        assert np.all(np.diff(population.tag_ids) > 0)
        assert _digest(population) == (
            "3a6c4ee2286ee10c2edd75e3de4414a7506a423a4cf4b095187890a72a1af6d2"
        )


class TestCodes:
    def test_codes_deterministic_per_seed(self):
        population = TagPopulation.sequential(100)
        assert (
            population.codes(1, 32) == population.codes(1, 32)
        ).all()
        assert (
            population.codes(1, 32) != population.codes(2, 32)
        ).any()

    def test_preloaded_codes_match_passive_tags(self):
        population = TagPopulation.sequential(20)
        codes = population.preloaded_codes(32)
        tags = population.build_passive_tags(32)
        assert codes.tolist() == [tag.preloaded_code for tag in tags]

    def test_build_active_tags(self):
        population = TagPopulation.sequential(5)
        tags = population.build_active_tags(16)
        assert all(isinstance(tag, ActivePetTag) for tag in tags)
        assert [tag.tag_id for tag in tags] == list(range(5))

    def test_build_passive_tags(self):
        tags = TagPopulation.sequential(5).build_passive_tags(16)
        assert all(isinstance(tag, PassivePetTag) for tag in tags)


class TestSetOperations:
    def test_subset(self):
        population = TagPopulation.sequential(10)
        subset = population.subset([1, 3, 5])
        assert subset.size == 3
        assert subset.tag_ids.tolist() == [1, 3, 5]

    def test_subset_rejects_foreign_ids(self):
        population = TagPopulation.sequential(10)
        with pytest.raises(ConfigurationError):
            population.subset([99])

    def test_union(self):
        a = TagPopulation([1, 2, 3])
        b = TagPopulation([3, 4])
        union = a.union(b)
        assert union.size == 4
        assert union.tag_ids.tolist() == [1, 2, 3, 4]
