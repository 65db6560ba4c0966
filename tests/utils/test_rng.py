"""Seeding and stream-spawning behaviour."""

import numpy as np
import pytest

from repro.utils.rng import default_rng, spawn_seed_sequences


def test_default_rng_reproducible():
    a = default_rng(42).random(5)
    b = default_rng(42).random(5)
    np.testing.assert_array_equal(a, b)


def test_default_rng_passthrough():
    g = np.random.default_rng(0)
    assert default_rng(g) is g


def test_spawn_seed_sequences_independent_and_reproducible():
    streams1 = [default_rng(c) for c in spawn_seed_sequences(7, 3)]
    streams2 = [default_rng(c) for c in spawn_seed_sequences(7, 3)]
    for s1, s2 in zip(streams1, streams2):
        np.testing.assert_array_equal(s1.random(4), s2.random(4))
    # Distinct children produce distinct streams.
    assert not np.allclose(streams1[0].random(8), streams1[1].random(8))


def test_spawn_seed_sequences_negative_raises():
    with pytest.raises(ValueError):
        spawn_seed_sequences(0, -1)
