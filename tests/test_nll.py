"""The log mixture density inside ``nll_loss_t`` on single mixtures,
checked against direct-summation and quadrature oracles."""

import math

import numpy as np
import pytest
from scipy import integrate

from mixcon import tape
from mixcon.losses import nll_loss_t

import reference
from reference import Mixture, random_mixture, single


def nll(gmm, points):
    """nll_loss_t of ``gmm`` at every row of ``points`` (one row per batch entry)."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    rows = len(points)
    blocks = (np.tile(a, (rows, 1)) for a in (gmm.weights, gmm.means, gmm.variances))
    return float(nll_loss_t(*map(tape.constant, blocks), tape.constant(points)).value)


def test_standard_normal_density_at_mean():
    # Single component, mu=0, var=1, n=2: the density at the mean is 1/(2 pi).
    assert nll(single(dim=2), np.zeros(2)) == pytest.approx(math.log(2.0 * math.pi), rel=1e-14)


def test_weight_convexity_of_identical_components():
    split = Mixture(np.array([0.5, 0.5]), np.zeros(2), np.ones(2), 2)
    z = np.array([0.3, -0.7])
    assert nll(split, z) == pytest.approx(nll(single(dim=2), z), rel=1e-14)


def test_density_matches_direct_summation_reference():
    rng = np.random.default_rng(42)
    for _ in range(25):
        gmm = random_mixture(rng, dim=2, max_components=3)
        z = rng.uniform(-6, 6, size=2)
        expected = reference.naive_mixture_density(
            gmm.weights, gmm.means, gmm.variances, gmm.dim, z
        )
        assert math.exp(-nll(gmm, z)) == pytest.approx(expected, rel=1e-12)


def test_log_density_finite_in_far_tail():
    # The density itself underflows at z = 40; its log-sum-exp form does not.
    out = nll(single(mu=0.0, var=1.0, dim=1), np.array([40.0]))
    assert math.isfinite(out) and out > 700.0


def test_density_positive_and_batched_evaluation_agrees():
    rng = np.random.default_rng(11)
    gmm = random_mixture(rng, dim=3)
    pts = rng.uniform(-6, 6, size=(10, 3))
    one_by_one = [nll(gmm, p) for p in pts]
    assert all(math.exp(-value) > 0.0 for value in one_by_one)
    assert nll(gmm, pts) == pytest.approx(math.fsum(one_by_one), rel=1e-12)


def test_density_normalizes_under_quadrature():
    rng = np.random.default_rng(61)
    for _ in range(3):
        gmm = random_mixture(rng, dim=1, max_components=3)
        mass, _ = integrate.quad(
            lambda t: math.exp(-nll(gmm, [t])), -np.inf, np.inf, limit=200
        )
        assert mass == pytest.approx(1.0, abs=1e-8)
