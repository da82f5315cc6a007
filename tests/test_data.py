"""Synthetic data generator, augmentation and contrastive batch tests.

The label sampler is checked against an exhaustive enumeration oracle:
the sequential conditional law is small enough to integrate exactly over
all 2^C label vectors, including the all-zero redraw conditioning, so
empirical frequencies have a known target and a binomial error bar.
"""

import itertools
import math

import numpy as np
import pytest

from mixcon.data import (
    AugmentConfig,
    SyntheticDatasetConfig,
    augment,
    conditional_coefficients,
    correlated_cooccurrence,
    generate_synthetic,
    make_contrastive_batch,
    splitmix64,
)
from mixcon.errors import InputError


def enumerated_conditional(matrix):
    """Exact law of the sequential sampler conditioned on >= 1 label."""
    coeffs = conditional_coefficients(matrix)
    num_classes = matrix.shape[0]
    marginals = np.diag(matrix)
    probs = {}
    for bits in itertools.product((0, 1), repeat=num_classes):
        p = 1.0
        for c, (beta, m) in enumerate(coeffs):
            prev = np.array(bits[:c], dtype=np.float64)
            pc = m if c == 0 else float(np.clip(m + (prev - marginals[:c]) @ beta, 0.0, 1.0))
            p *= pc if bits[c] else (1.0 - pc)
        probs[bits] = p
    zero = (0,) * num_classes
    norm = 1.0 - probs[zero]
    return {b: (0.0 if b == zero else p / norm) for b, p in probs.items()}


def pair_probability(law, a, b):
    return math.fsum(p for bits, p in law.items() if bits[a] and bits[b])


def marginal_probability(law, a):
    return math.fsum(p for bits, p in law.items() if bits[a])


def independent_matrix(num_classes, marginal):
    m = np.full((num_classes, num_classes), marginal * marginal)
    np.fill_diagonal(m, marginal)
    return m


class TestConfigValidation:
    def test_pair_above_marginal_rejected(self):
        m = independent_matrix(2, 0.5)
        m[0, 1] = m[1, 0] = 0.6
        with pytest.raises(InputError):
            SyntheticDatasetConfig(10, 2, 4, m)

    def test_pair_below_frechet_bound_rejected(self):
        m = independent_matrix(2, 0.9)
        m[0, 1] = m[1, 0] = 0.7
        with pytest.raises(InputError):
            SyntheticDatasetConfig(10, 2, 4, m)

    def test_asymmetric_rejected(self):
        m = independent_matrix(2, 0.5)
        m[0, 1] = 0.2
        with pytest.raises(InputError):
            SyntheticDatasetConfig(10, 2, 4, m)

    def test_shape_and_range_rejected(self):
        with pytest.raises(InputError):
            SyntheticDatasetConfig(10, 3, 4, independent_matrix(2, 0.5))
        bad = independent_matrix(2, 0.5)
        bad[0, 0] = 1.5
        with pytest.raises(InputError):
            SyntheticDatasetConfig(10, 2, 4, bad)
        with pytest.raises(InputError):
            SyntheticDatasetConfig(10, 2, 4, independent_matrix(2, 0.5), noise_scale=-1.0)
        with pytest.raises(InputError):
            SyntheticDatasetConfig(0, 2, 4, independent_matrix(2, 0.5))

    def test_prototype_shape_rejected(self):
        with pytest.raises(InputError):
            SyntheticDatasetConfig(
                10, 2, 4, independent_matrix(2, 0.5), prototypes=np.zeros((2, 3))
            )


class TestLabelLaw:
    def test_two_class_conditional_pair_is_one_third(self):
        # Independent marginals 0.5 give raw pair probability 0.25; after
        # conditioning away the all-zero row it is exactly 1/3.
        law = enumerated_conditional(independent_matrix(2, 0.5))
        assert pair_probability(law, 0, 1) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_two_class_empirical_matches_enumeration(self):
        n = 20000
        cfg = SyntheticDatasetConfig(n, 2, 4, independent_matrix(2, 0.5), seed=7)
        _, labels = generate_synthetic(cfg)
        target = 1.0 / 3.0
        freq = np.mean(labels[:, 0] & labels[:, 1])
        sigma = math.sqrt(target * (1.0 - target) / n)
        assert abs(freq - target) < 3.5 * sigma
        assert not np.any(labels.sum(axis=1) == 0)

    def test_many_class_pair_near_raw_target(self):
        # With 8 classes the all-zero row has mass 2^-8, so conditioning
        # barely moves the pair frequency off the raw 0.25 target.
        n = 20000
        law = enumerated_conditional(independent_matrix(8, 0.5))
        target = pair_probability(law, 0, 1)
        assert abs(target - 0.25) < 2e-3
        cfg = SyntheticDatasetConfig(n, 8, 6, independent_matrix(8, 0.5), seed=3)
        _, labels = generate_synthetic(cfg)
        freq = np.mean(labels[:, 0] & labels[:, 3])
        sigma = math.sqrt(0.25 * 0.75 / n)
        assert abs(freq - 0.25) < 3.5 * sigma

    def test_correlated_pairs_beat_independent_pairs(self):
        n = 20000
        matrix = correlated_cooccurrence(4, marginal=0.35, boost=0.5)
        law = enumerated_conditional(matrix)
        cfg = SyntheticDatasetConfig(n, 4, 8, matrix, seed=11)
        _, labels = generate_synthetic(cfg)
        boosted = np.mean(labels[:, 0] & labels[:, 1])
        cross = np.mean(labels[:, 0] & labels[:, 2])
        target_boosted = pair_probability(law, 0, 1)
        target_cross = pair_probability(law, 0, 2)
        assert target_boosted > target_cross
        sigma = math.sqrt(0.25 / n)
        assert abs(boosted - target_boosted) < 3.5 * sigma
        assert abs(cross - target_cross) < 3.5 * sigma

    def test_marginals_match_enumeration(self):
        n = 20000
        matrix = correlated_cooccurrence(4, marginal=0.35, boost=0.5)
        law = enumerated_conditional(matrix)
        cfg = SyntheticDatasetConfig(n, 4, 8, matrix, seed=5)
        _, labels = generate_synthetic(cfg)
        for c in range(4):
            target = marginal_probability(law, c)
            sigma = math.sqrt(target * (1.0 - target) / n)
            assert abs(labels[:, c].mean() - target) < 3.5 * sigma

    def test_rare_class_gets_injected(self):
        m = independent_matrix(2, 0.5)
        m[1, 1] = 0.002
        m[0, 1] = m[1, 0] = 0.001
        for seed in range(5):
            cfg = SyntheticDatasetConfig(50, 2, 4, m, seed=seed)
            _, labels = generate_synthetic(cfg)
            assert labels[:, 1].sum() >= 1
            assert not np.any(labels.sum(axis=1) == 0)

    def test_zero_marginal_class_stays_absent(self):
        m = independent_matrix(2, 0.5)
        m[1, 1] = 0.0
        m[0, 1] = m[1, 0] = 0.0
        cfg = SyntheticDatasetConfig(100, 2, 4, m, seed=1)
        _, labels = generate_synthetic(cfg)
        assert labels[:, 1].sum() == 0

    def test_hopeless_marginals_raise(self):
        m = independent_matrix(2, 0.5)
        m[:] = 0.0
        with pytest.raises(InputError):
            generate_synthetic(SyntheticDatasetConfig(10, 2, 4, m, seed=0))


class TestFeatures:
    def test_noise_free_features_are_prototype_sums(self):
        protos = np.arange(8, dtype=np.float64).reshape(2, 4)
        cfg = SyntheticDatasetConfig(
            40, 2, 4, independent_matrix(2, 0.5), prototypes=protos, noise_scale=0.0, seed=2
        )
        features, labels = generate_synthetic(cfg)
        assert np.array_equal(features, labels.astype(np.float64) @ protos)

    def test_determinism_and_seed_sensitivity(self):
        cfg = SyntheticDatasetConfig(64, 3, 6, independent_matrix(3, 0.4), seed=9)
        fa, la = generate_synthetic(cfg)
        fb, lb = generate_synthetic(cfg)
        assert fa.tobytes() == fb.tobytes() and la.tobytes() == lb.tobytes()
        other = SyntheticDatasetConfig(64, 3, 6, independent_matrix(3, 0.4), seed=10)
        fc, _ = generate_synthetic(other)
        assert fa.tobytes() != fc.tobytes()


class TestAugment:
    def test_zero_magnitudes_are_identity(self):
        x = np.array([0.5, -1.25, 3.0])
        out = augment(x, 123, AugmentConfig(0.0, 0.0, 0.0))
        assert np.array_equal(out, x)

    def test_deterministic_per_seed(self):
        x = np.linspace(-1, 1, 10)
        a = augment(x, 42)
        b = augment(x, 42)
        c = augment(x, 43)
        assert a.tobytes() == b.tobytes()
        assert a.tobytes() != c.tobytes()

    def test_draw_order_is_knob_independent(self):
        # Turning dropout on must not shift the jitter draws: surviving
        # coordinates agree exactly with the dropout-free view.
        x = np.linspace(0.5, 2.0, 12)
        plain = augment(x, 7, AugmentConfig(0.1, 0.0, 0.0))
        dropped = augment(x, 7, AugmentConfig(0.1, 0.5, 0.0))
        kept = dropped != 0.0
        assert np.array_equal(dropped[kept], plain[kept])
        assert np.any(~kept)

    def test_scale_only_changes_magnitude(self):
        x = np.linspace(0.5, 2.0, 12)
        plain = augment(x, 7, AugmentConfig(0.1, 0.0, 0.0))
        scaled = augment(x, 7, AugmentConfig(0.1, 0.0, 0.4))
        ratio = scaled / plain
        assert np.allclose(ratio, ratio[0], rtol=1e-12)
        assert 0.6 - 1e-12 <= ratio[0] <= 1.4 + 1e-12

    def test_displacement_second_moment_matches_oracle(self):
        # With scale jitter off, E||x' - x||^2 = (1-p) d jitter^2 + p ||x||^2:
        # kept coordinates move by the jitter, dropped ones collapse to zero.
        rng = np.random.default_rng(0)
        x = rng.standard_normal(16)
        cfg = AugmentConfig(jitter_scale=0.3, dropout_prob=0.2, scale_jitter=0.0)
        trials = 4000
        sq = [
            float(np.sum((augment(x, seed, cfg) - x) ** 2))
            for seed in range(trials)
        ]
        expected = 0.8 * x.size * 0.3**2 + 0.2 * float(np.sum(x**2))
        se = np.std(sq, ddof=1) / math.sqrt(trials)
        assert abs(np.mean(sq) - expected) < 4.0 * se

    def test_validation(self):
        with pytest.raises(InputError):
            augment(np.zeros((2, 2)), 0)
        with pytest.raises(InputError):
            AugmentConfig(dropout_prob=1.0)
        with pytest.raises(InputError):
            AugmentConfig(jitter_scale=-0.1)


class TestContrastiveBatch:
    def test_structure_and_reproducibility(self):
        rng = np.random.default_rng(1)
        feats = rng.standard_normal((5, 6))
        labels = rng.integers(0, 2, (5, 3))
        labels[:, 0] = 1
        batch = make_contrastive_batch(feats, labels, seed=99)
        assert batch.views.shape == (10, 6)
        assert np.array_equal(batch.labels, np.repeat(labels, 2, axis=0))
        # Views 4 and 5 are the two views of sample 2, each from its own stream.
        assert np.array_equal(batch.views[4], augment(feats[2], splitmix64(99, 4)))
        assert np.array_equal(batch.views[5], augment(feats[2], splitmix64(99, 5)))
        assert not np.array_equal(batch.views[4], batch.views[5])

    def test_input_validation(self):
        with pytest.raises(InputError):
            make_contrastive_batch(np.zeros((0, 3)), np.zeros((0, 2)), 0)
        with pytest.raises(InputError):
            make_contrastive_batch(np.zeros((3, 3)), np.zeros((2, 2)), 0)


class TestSplitmix:
    def test_deterministic_and_distinct(self):
        assert splitmix64(1, 0) == splitmix64(1, 0)
        values = {splitmix64(1, s) for s in range(100)}
        assert len(values) == 100
        assert all(0 <= v < 2**64 for v in values)
        assert splitmix64(1, 0) != splitmix64(2, 0)
