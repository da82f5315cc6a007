"""Synthetic data generator and contrastive batch augmentation tests.

The label sampler is checked against an exhaustive enumeration oracle:
the pair law is small enough to integrate exactly over all 2^C label
vectors, including the all-zero redraw conditioning, so empirical
frequencies have a known target and a binomial error bar.
"""

import itertools
import math

import numpy as np
import pytest

from mixcon import data, pipeline
from mixcon.config import AugmentConfig, DataConfig
from mixcon.data import (
    STREAM_BALANCE,
    STREAM_LABELS,
    STREAM_NOISE,
    STREAM_PROTOTYPES,
    generate_synthetic,
    make_contrastive_batch,
    splitmix64,
)
from mixcon.errors import InputError, NumericError


def enumerated_conditional(num_classes, marginal, boost):
    """Exact label law conditioned on >= 1 label.

    Each pair (2k, 2k+1) is two Bernoulli(marginal) labels that co-occur
    with probability m^2 + boost m (1 - m); the pairs, and the last class
    of an odd count, are independent of one another.
    """
    both = marginal * marginal + boost * marginal * (1.0 - marginal)
    pair = {(1, 1): both, (1, 0): marginal - both, (0, 1): marginal - both}
    pair[0, 0] = 1.0 - 2.0 * marginal + both
    probs = {}
    for bits in itertools.product((0, 1), repeat=num_classes):
        p = math.prod(pair[bits[k], bits[k + 1]] for k in range(0, num_classes - 1, 2))
        if num_classes % 2:
            p *= marginal if bits[-1] else 1.0 - marginal
        probs[bits] = p
    zero = (0,) * num_classes
    norm = 1.0 - probs[zero]
    return {b: (0.0 if b == zero else p / norm) for b, p in probs.items()}


def pair_probability(law, a, b):
    return math.fsum(p for bits, p in law.items() if bits[a] and bits[b])


def marginal_probability(law, a):
    return math.fsum(p for bits, p in law.items() if bits[a])


def data_cfg(num_samples, num_classes, input_dim, marginal=0.5, boost=0.0, **kw):
    """A dataset recipe; boost 0 gives independent pairs at ``marginal``."""
    return DataConfig(
        num_samples=num_samples,
        num_classes=num_classes,
        input_dim=input_dim,
        marginal=marginal,
        boost=boost,
        **kw,
    )


class TestConfigValidation:
    def test_pair_above_marginal_rejected(self):
        # boost 1.2 would put the boosted pair at 0.55, above the marginal 0.5.
        with pytest.raises(InputError):
            data_cfg(10, 2, 4, marginal=0.5, boost=1.2)

    def test_pair_below_frechet_bound_rejected(self):
        # boost -0.2 would put the pair at 0.792, below the bound 2 * 0.9 - 1.
        with pytest.raises(InputError):
            data_cfg(10, 2, 4, marginal=0.9, boost=-0.2)

    def test_shape_and_range_rejected(self):
        with pytest.raises(InputError):
            data_cfg(7, 2, 4)
        with pytest.raises(InputError):
            data_cfg(10, 2, 4, marginal=0.0)
        with pytest.raises(InputError):
            data_cfg(10, 2, 4, marginal=1.0)
        with pytest.raises(InputError):
            data_cfg(10, 2, 4, noise_scale=-1.0)


class TestLabelLaw:
    def test_two_class_conditional_pair_is_one_third(self):
        # Independent marginals 0.5 give raw pair probability 0.25; after
        # conditioning away the all-zero row it is exactly 1/3.
        law = enumerated_conditional(2, 0.5, 0.0)
        assert pair_probability(law, 0, 1) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_two_class_empirical_matches_enumeration(self):
        n = 20000
        _, labels = generate_synthetic(data_cfg(n, 2, 4), seed=7)
        target = 1.0 / 3.0
        freq = np.mean(labels[:, 0] & labels[:, 1])
        sigma = math.sqrt(target * (1.0 - target) / n)
        assert abs(freq - target) < 3.5 * sigma
        assert not np.any(labels.sum(axis=1) == 0)

    def test_boosted_two_class_pair_is_three_fifths(self):
        # Marginal 0.5 and boost 0.5 give P(11) = 0.375 and P(00) = 0.375,
        # so after conditioning away the all-zero row P(11) = 0.375 / 0.625.
        law = enumerated_conditional(2, 0.5, 0.5)
        assert pair_probability(law, 0, 1) == pytest.approx(0.6, abs=1e-15)
        n = 20000
        _, labels = generate_synthetic(data_cfg(n, 2, 4, boost=0.5), seed=13)
        freq = np.mean(labels[:, 0] & labels[:, 1])
        sigma = math.sqrt(0.6 * 0.4 / n)
        assert abs(freq - 0.6) < 3.5 * sigma

    @pytest.mark.parametrize("num_classes", [3, 7])
    def test_odd_class_count_leaves_the_last_class_unpaired(self, num_classes):
        # The last class is independent: the raw law has P(all zero) =
        # P(00)^(C // 2) (1 - m), and the last class is active in m of it.
        m, boost, n = 0.35, 0.5, 20000
        law = enumerated_conditional(num_classes, m, boost)
        both = m * m + boost * m * (1.0 - m)
        zero = (1.0 - 2.0 * m + both) ** (num_classes // 2) * (1.0 - m)
        last = num_classes - 1
        assert marginal_probability(law, last) == pytest.approx(m / (1.0 - zero), rel=1e-12)
        assert pair_probability(law, 0, 1) == pytest.approx(both / (1.0 - zero), rel=1e-12)
        assert pair_probability(law, 0, last) == pytest.approx(m * m / (1.0 - zero), rel=1e-12)
        _, labels = generate_synthetic(data_cfg(n, num_classes, 8, m, boost), seed=17)
        for a, b in ((0, 1), (last - 1, last), (0, last)):
            target = pair_probability(law, a, b)
            freq = np.mean(labels[:, a] & labels[:, b])
            assert abs(freq - target) < 3.5 * math.sqrt(target * (1.0 - target) / n)
        target = marginal_probability(law, last)
        sigma = math.sqrt(target * (1.0 - target) / n)
        assert abs(labels[:, last].mean() - target) < 3.5 * sigma

    def test_many_class_pair_near_raw_target(self):
        # With 8 classes the all-zero row has mass 2^-8, so conditioning
        # barely moves the pair frequency off the raw 0.25 target.
        n = 20000
        law = enumerated_conditional(8, 0.5, 0.0)
        target = pair_probability(law, 0, 1)
        assert abs(target - 0.25) < 2e-3
        _, labels = generate_synthetic(data_cfg(n, 8, 6), seed=3)
        freq = np.mean(labels[:, 0] & labels[:, 3])
        sigma = math.sqrt(0.25 * 0.75 / n)
        assert abs(freq - 0.25) < 3.5 * sigma

    def test_correlated_pairs_beat_independent_pairs(self):
        n = 20000
        law = enumerated_conditional(4, 0.35, 0.5)
        _, labels = generate_synthetic(data_cfg(n, 4, 8, marginal=0.35, boost=0.5), seed=11)
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
        law = enumerated_conditional(4, 0.35, 0.5)
        _, labels = generate_synthetic(data_cfg(n, 4, 8, marginal=0.35, boost=0.5), seed=5)
        for c in range(4):
            target = marginal_probability(law, c)
            sigma = math.sqrt(target * (1.0 - target) / n)
            assert abs(labels[:, c].mean() - target) < 3.5 * sigma

    def test_rare_class_gets_injected(self):
        # Eight rows cannot carry six classes at marginal 0.02 unaided: the
        # redraw leaves about one label per row, so absent classes are forced.
        for seed in range(5):
            _, labels = generate_synthetic(data_cfg(8, 6, 4, marginal=0.02), seed=seed)
            assert np.all(labels.sum(axis=0) >= 1)
            assert not np.any(labels.sum(axis=1) == 0)

    def test_hopeless_marginals_raise(self):
        with pytest.raises(InputError):
            generate_synthetic(data_cfg(10, 2, 4, marginal=1e-9), seed=0)


class TestFeatures:
    def test_noise_free_features_are_prototype_sums(self):
        seed = 2
        features, labels = generate_synthetic(data_cfg(40, 2, 4, noise_scale=0.0), seed)
        rng = np.random.default_rng(splitmix64(seed, STREAM_PROTOTYPES))
        protos = rng.standard_normal((2, 4))
        protos /= np.linalg.norm(protos, axis=1, keepdims=True)
        assert np.array_equal(features, labels.astype(np.float64) @ protos)

    def test_determinism_and_seed_sensitivity(self):
        cfg = data_cfg(64, 3, 6, marginal=0.4)
        fa, la = generate_synthetic(cfg, 9)
        fb, lb = generate_synthetic(cfg, 9)
        assert fa.tobytes() == fb.tobytes() and la.tobytes() == lb.tobytes()
        fc, _ = generate_synthetic(cfg, 10)
        assert fa.tobytes() != fc.tobytes()


def batch_of(x, rows, seed, cfg):
    """The views of a contrastive batch of ``rows`` copies of vector ``x``."""
    feats = np.tile(x, (rows, 1))
    return make_contrastive_batch(feats, np.ones((rows, 1), dtype=np.int64), seed, cfg).views


class TestAugment:
    def test_zero_magnitudes_are_identity(self):
        feats = np.array([[0.5, -1.25, 3.0], [2.0, 0.0, -0.75]])
        batch = make_contrastive_batch(feats, np.ones((2, 1)), 123, AugmentConfig(0.0, 0.0, 0.0))
        assert np.array_equal(batch.views, np.repeat(feats, 2, axis=0))

    def test_deterministic_per_seed(self):
        x = np.linspace(-1, 1, 10)
        a = batch_of(x, 3, 42, AugmentConfig())
        b = batch_of(x, 3, 42, AugmentConfig())
        c = batch_of(x, 3, 43, AugmentConfig())
        assert a.tobytes() == b.tobytes()
        assert a.tobytes() != c.tobytes()

    def test_draw_order_is_knob_independent(self):
        # Turning dropout on must not shift the jitter draws: surviving
        # coordinates agree exactly with the dropout-free views.
        x = np.linspace(0.5, 2.0, 12)
        plain = batch_of(x, 3, 7, AugmentConfig(0.1, 0.0, 0.0))
        dropped = batch_of(x, 3, 7, AugmentConfig(0.1, 0.5, 0.0))
        kept = dropped != 0.0
        assert np.array_equal(dropped[kept], plain[kept])
        assert np.any(~kept)

    def test_scale_only_changes_magnitude(self):
        # The scale is one factor per view: constant along a row, drawn
        # afresh for every row.
        x = np.linspace(0.5, 2.0, 12)
        plain = batch_of(x, 3, 7, AugmentConfig(0.1, 0.0, 0.0))
        scaled = batch_of(x, 3, 7, AugmentConfig(0.1, 0.0, 0.4))
        ratio = scaled / plain
        assert np.allclose(ratio, ratio[:, :1], rtol=1e-12)
        assert np.all((0.6 - 1e-12 <= ratio) & (ratio <= 1.4 + 1e-12))
        assert len(np.unique(ratio[:, 0])) == len(ratio)

    def test_displacement_second_moment_matches_oracle(self):
        # With scale jitter off, E||x' - x||^2 = (1-p) d jitter^2 + p ||x||^2:
        # kept coordinates move by the jitter, dropped ones collapse to zero.
        rng = np.random.default_rng(0)
        x = rng.standard_normal(16)
        cfg = AugmentConfig(jitter_scale=0.3, dropout_prob=0.2, scale_jitter=0.0)
        views = batch_of(x, 2000, 0, cfg)
        sq = np.sum((views - x) ** 2, axis=1)
        expected = 0.8 * x.size * 0.3**2 + 0.2 * float(np.sum(x**2))
        se = np.std(sq, ddof=1) / math.sqrt(len(sq))
        assert len(sq) == 4000
        assert abs(np.mean(sq) - expected) < 4.0 * se

    def test_validation(self):
        with pytest.raises(InputError):
            make_contrastive_batch(np.zeros(3), np.zeros((3, 1)), 0, AugmentConfig())
        with pytest.raises(NumericError):
            make_contrastive_batch(np.array([[0.0, np.nan]]), np.ones((1, 1)), 0, AugmentConfig())
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
        batch = make_contrastive_batch(feats, labels, seed=99, cfg=AugmentConfig())
        assert batch.views.shape == (10, 6)
        assert np.array_equal(batch.labels, np.repeat(labels, 2, axis=0))
        # One generator draws the jitter, keep and scale blocks of all ten
        # views, in that order; views 2i and 2i+1 augment sample i.
        draws = np.random.default_rng(99)
        jitter = 0.1 * draws.standard_normal((10, 6))
        keep = draws.random((10, 6)) >= 0.1
        scale = 1.0 + 0.1 * draws.uniform(-1.0, 1.0, (10, 1))
        expected = scale * (keep * (np.repeat(feats, 2, axis=0) + jitter))
        assert np.array_equal(batch.views, expected)
        assert not np.array_equal(batch.views[4], batch.views[5])

    def test_input_validation(self):
        with pytest.raises(InputError):
            make_contrastive_batch(np.zeros((0, 3)), np.zeros((0, 2)), 0, AugmentConfig())
        with pytest.raises(InputError):
            make_contrastive_batch(np.zeros((3, 3)), np.zeros((2, 2)), 0, AugmentConfig())


class TestSplitmix:
    def test_deterministic_and_distinct(self):
        assert splitmix64(1, 0) == splitmix64(1, 0)
        values = {splitmix64(1, s) for s in range(100)}
        assert len(values) == 100
        assert all(0 <= v < 2**64 for v in values)
        assert splitmix64(1, 0) != splitmix64(2, 0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_generated_data_draws_no_pipeline_stream(self, seed, monkeypatch):
        # Eight rows at marginal 0.02 leave class 100 of 101 absent, so its
        # balance row is forced.  Every stream drawn from the experiment
        # seed must be one of the generator's own, never one the pipeline
        # draws from that seed too.
        derived = []

        def recording(base, stream):
            if base == seed:
                derived.append(stream)
            return splitmix64(base, stream)

        monkeypatch.setattr(data, "splitmix64", recording)
        _, labels = generate_synthetic(data_cfg(8, 101, 4, marginal=0.02), seed)
        assert labels[:, 100].sum() == 1
        pipeline_streams = {
            pipeline.STREAM_SPLIT,
            pipeline.STREAM_INIT,
            pipeline.STREAM_CONTRASTIVE_SHUFFLE,
            pipeline.STREAM_VIEWS,
            pipeline.STREAM_CLASSIFIER_SHUFFLE,
        }
        assert pipeline_streams.isdisjoint(derived)
        assert set(derived) <= {STREAM_PROTOTYPES, STREAM_LABELS, STREAM_NOISE, STREAM_BALANCE}
