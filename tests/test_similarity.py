"""The closed-form mixture similarity ``similarity_matrix_t`` on pairs
of single mixtures, checked against direct-summation and quadrature
oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from mixcon import tape
from mixcon.losses import similarity_matrix_t

import reference
from reference import Mixture, random_mixture, single


def similarity(p, q):
    """(2, 2) similarity matrix of the pair, the smaller mixture zero-padded."""
    blocks = reference.padded_blocks([p, q])
    return similarity_matrix_t(*map(tape.constant, blocks), p.dim).value


def quadrature_correlation(p, q, lo=-np.inf, hi=np.inf):
    """int pq / sqrt(int pp * int qq) for 1-d mixtures by adaptive quadrature."""

    def overlap(a, b):
        value, _ = integrate.quad(
            lambda t: reference.naive_mixture_density(a.weights, a.means, a.variances, 1, [t])
            * reference.naive_mixture_density(b.weights, b.means, b.variances, 1, [t]),
            lo,
            hi,
            limit=200,
        )
        return value

    return overlap(p, q) / math.sqrt(overlap(p, p) * overlap(q, q))


def test_identical_mixtures_have_unit_correlation():
    rng = np.random.default_rng(21)
    for _ in range(10):
        p = random_mixture(rng)
        assert similarity(p, p) == pytest.approx(np.ones((2, 2)), abs=1e-12)


def test_equal_variance_identity_example():
    # Single Gaussians, equal variance 1, means 0 and 2, n=1.
    assert similarity(single(0.0), single(2.0))[0, 1] == pytest.approx(
        math.exp(-1.0), rel=1e-12
    )


def test_correlation_decays_with_separation():
    far = similarity(single(0.0, 1.0, 4), single(10.0, 1.0, 4))[0, 1]
    assert 0.0 <= far < 1e-40


def test_component_duplication_leaves_integral_unchanged():
    # Splitting every component in two halves changes no overlap integral.
    rng = np.random.default_rng(9)
    p = random_mixture(rng, dim=2, max_components=3)
    q = random_mixture(rng, dim=2, max_components=3)
    doubled = Mixture(
        np.concatenate([p.weights / 2, p.weights / 2]),
        np.concatenate([p.means, p.means]),
        np.concatenate([p.variances, p.variances]),
        p.dim,
    )
    assert similarity(doubled, q)[0, 1] == pytest.approx(similarity(p, q)[0, 1], rel=1e-12)


def test_mixture_cross_integral_matches_double_loop_reference():
    rng = np.random.default_rng(5)
    for _ in range(20):
        dim = int(rng.integers(1, 5))
        p, q = random_mixture(rng, dim=dim), random_mixture(rng, dim=dim)
        assert similarity(p, q)[0, 1] == pytest.approx(
            reference.naive_correlation(p, q), rel=1e-12
        )


def test_correlation_matches_quadrature_normalization():
    rng = np.random.default_rng(33)
    p, q = random_mixture(rng, dim=1, max_components=3), random_mixture(
        rng, dim=1, max_components=3
    )
    assert similarity(p, q)[0, 1] == pytest.approx(reference.naive_correlation(p, q), rel=1e-12)


def test_gaussian_cross_integral_matches_quadrature():
    # Unequal variances, so neither the variance nor the dimension factor
    # cancels; n=2 integrates over the plane.
    p, q = single(0.0, 1.0, 1), single(2.0, 1.5, 1)
    assert similarity(p, q)[0, 1] == pytest.approx(quadrature_correlation(p, q), rel=1e-8)

    def overlap_2d(a, b):
        def density(g, x, y):
            return reference.naive_mixture_density(g.weights, g.means, g.variances, 2, [x, y])

        value, _ = integrate.dblquad(
            lambda y, x: density(a, x, y) * density(b, x, y), -10.0, 10.0, -10.0, 10.0
        )
        return value

    p2, q2 = single(0.0, 1.0, 2), single(1.0, 1.5, 2)
    expected = overlap_2d(p2, q2) / math.sqrt(overlap_2d(p2, p2) * overlap_2d(q2, q2))
    assert similarity(p2, q2)[0, 1] == pytest.approx(expected, rel=1e-8)


def test_cross_integral_matches_adaptive_quadrature_sample():
    rng = np.random.default_rng(71)
    for _ in range(20):
        p = random_mixture(rng, dim=1)
        q = random_mixture(rng, dim=1)
        oracle = quadrature_correlation(p, q, -30.0, 30.0)
        assert abs(similarity(p, q)[0, 1] - oracle) / oracle < 0.01


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_correlation_bounds_and_symmetry(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 9))
    sim = similarity(random_mixture(rng, dim=dim), random_mixture(rng, dim=dim))
    assert 0.0 < sim[0, 1] <= 1.0 + 1e-12
    assert sim[1, 0] == pytest.approx(sim[0, 1], rel=1e-14, abs=0)
    assert np.array_equal(sim, sim.T)
