"""Sampler behaviour in isolation."""

import numpy as np
import pytest

from repro.hpo.samplers import TPESampler
from repro.hpo.space import Float


def test_random_sampler_uniform_coverage():
    """Before ``n_startup`` completed trials TPE samples uniformly."""
    s = TPESampler(seed=0)
    us = [s.sample_unit(Float(0, 1), np.array([]), np.array([])) for _ in range(2000)]
    us = np.array(us)
    assert 0.0 <= us.min() and us.max() < 1.0
    # Roughly uniform deciles.
    hist, _ = np.histogram(us, bins=10, range=(0, 1))
    assert hist.min() > 120


def test_tpe_random_during_startup():
    s = TPESampler(seed=0, n_startup=10)
    # With < n_startup completed trials the sampler must not crash and
    # must stay in range.
    for n in range(9):
        u = s.sample_unit(
            Float(0, 1), np.random.rand(n), np.random.rand(n)
        )
        assert 0.0 <= u < 1.0


def test_tpe_concentrates_on_good_region():
    """Good trials cluster near 0.2; TPE suggestions should too."""
    s = TPESampler(seed=0, n_startup=5, gamma=0.25, bandwidth=0.05)
    rng = np.random.default_rng(1)
    units = np.concatenate([rng.normal(0.2, 0.02, 10), rng.uniform(0.5, 1.0, 30)])
    units = np.clip(units, 0, 0.999)
    values = np.concatenate([np.zeros(10), np.ones(30)])  # low = good
    suggestions = np.array(
        [s.sample_unit(Float(0, 1), units, values) for _ in range(50)]
    )
    assert np.mean(np.abs(suggestions - 0.2) < 0.15) > 0.7


def test_tpe_reflection_keeps_range():
    s = TPESampler(seed=0, n_startup=1, bandwidth=0.5)
    units = np.array([0.01, 0.99])
    values = np.array([0.0, 1.0])
    for _ in range(50):
        u = s.sample_unit(Float(0, 1), units, values)
        assert 0.0 <= u < 1.0


def test_log_parzen_is_normalised_density():
    s = TPESampler(seed=0, bandwidth=0.1)
    centres = np.array([0.3, 0.7])
    xs = np.linspace(-1, 2, 4001)
    log_d = s._log_parzen(xs, centres)
    integral = np.trapezoid(np.exp(log_d), xs)
    np.testing.assert_allclose(integral, 1.0, rtol=1e-3)


def test_tpe_all_good_edge_case():
    s = TPESampler(seed=0, n_startup=1, gamma=0.9)
    # One completed trial: good set == everything, bad falls back to good.
    u = s.sample_unit(Float(0, 1), np.array([0.5]), np.array([1.0]))
    assert 0.0 <= u < 1.0
