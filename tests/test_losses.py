"""Loss values against analytic fixtures and the brute-force transcription."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixcon import losses, tape
from mixcon.errors import InputError, NumericError
from mixcon.losses import (
    AslConfig,
    ContrastiveLossConfig,
    asl_loss_t,
    nll_loss_t,
    pcl_loss_t,
    similarity_matrix_t,
)

import reference
from reference import Mixture


def random_batch(rng, b, c, n):
    """Stacked random mixture parameters plus the mixture objects."""
    w = rng.uniform(0.2, 1.0, size=(b, c))
    w = w / w.sum(axis=1, keepdims=True)
    m = rng.uniform(-3.0, 3.0, size=(b, c))
    v = rng.uniform(1.0, 4.0, size=(b, c))
    mixtures = [Mixture(w[i], m[i], v[i], n) for i in range(b)]
    return w, m, v, mixtures


def leaves(*blocks):
    return [tape.leaf(np.asarray(b, dtype=np.float64)) for b in blocks]


def constants(*blocks):
    return [tape.constant(np.asarray(b, dtype=np.float64)) for b in blocks]


def random_labels(rng, b, c):
    y = (rng.random((b, c)) < 0.5).astype(int)
    y[y.sum(axis=1) == 0, 0] = 1
    return y


# -- config validation --------------------------------------------------------


def test_contrastive_config_defaults_and_validation():
    cfg = ContrastiveLossConfig()
    assert (cfg.tau, cfg.lam, cfg.alpha) == (0.2, 0.3, 0.6)
    with pytest.raises(InputError):
        ContrastiveLossConfig(tau=0.0)
    with pytest.raises(InputError):
        ContrastiveLossConfig(alpha=1.2)
    with pytest.raises(InputError):
        ContrastiveLossConfig(lam=-0.1)
    with pytest.raises(InputError):
        ContrastiveLossConfig(measure="hamming")
    with pytest.raises(InputError):
        ContrastiveLossConfig(sim="bhattacharyya")


def test_asl_config_defaults_and_validation():
    cfg = AslConfig()
    assert (cfg.gamma_pos, cfg.gamma_neg, cfg.margin) == (0.0, 4.0, 0.05)
    with pytest.raises(InputError):
        AslConfig(gamma_neg=-1.0)
    with pytest.raises(InputError):
        AslConfig(margin=1.0)


# -- nll ----------------------------------------------------------------------


def test_nll_standard_normal_fixture():
    w, m, v, z = leaves([[1.0]], [[0.0]], [[1.0]], np.zeros((1, 2)))
    loss = nll_loss_t(w, m, v, z)
    gw, _, _, gz = tape.grads_of(loss, [w, m, v, z])
    assert float(loss.value) == pytest.approx(math.log(2.0 * math.pi), rel=1e-12)
    assert gw.shape == (1, 1) and gz.shape == (1, 2)


def test_nll_additivity_over_batch():
    rng = np.random.default_rng(2)
    w, m, v, _ = random_batch(rng, 1, 3, 2)
    z = rng.normal(size=(1, 2))
    one = float(nll_loss_t(*constants(w, m, v, z)).value)
    doubled = (np.vstack([a, a]) for a in (w, m, v, z))
    two = float(nll_loss_t(*constants(*doubled)).value)
    assert two == pytest.approx(2.0 * one, rel=1e-12)


def test_nll_matches_reference_and_gradient_matches_fd():
    rng = np.random.default_rng(7)
    w, m, v, mixtures = random_batch(rng, 3, 2, 2)
    z = rng.normal(size=(3, 2))
    tw, tm, tv, tz = leaves(w, m, v, z)
    loss = nll_loss_t(tw, tm, tv, tz)
    assert float(loss.value) == pytest.approx(reference.naive_nll(mixtures, z), rel=1e-12)

    step = 1e-6
    blocks = {"w": w, "m": m, "v": v, "z": z}
    grad_of = dict(zip(blocks, tape.grads_of(loss, [tw, tm, tv, tz])))

    def run(overrides):
        merged = {**blocks, **overrides}
        return nll_loss_t(
            tape.constant(merged["w"]), tape.constant(merged["m"]),
            tape.constant(merged["v"]), tape.constant(merged["z"]),
        ).value.item()

    for name, arr in blocks.items():
        idx = (0, min(1, arr.shape[1] - 1))
        hi, lo = arr.copy(), arr.copy()
        hi[idx] += step
        lo[idx] -= step
        numeric = (run({name: hi}) - run({name: lo})) / (2 * step)
        analytic = grad_of[name][idx]
        denom = max(abs(analytic), abs(numeric), 1e-8)
        assert abs(analytic - numeric) / denom < 1e-4


def test_nll_validation():
    single = constants([[1.0]], [[0.0]], [[1.0]])
    with pytest.raises(InputError):
        nll_loss_t(*single, tape.constant(np.zeros((2, 2))))  # batch mismatch
    with pytest.raises(InputError):
        nll_loss_t(*single, tape.constant(np.zeros(2)))  # targets not (B, n)
    zero_weight = constants([[1.0, 0.0]], np.zeros((1, 2)), np.ones((1, 2)))
    with pytest.raises(InputError):
        nll_loss_t(*zero_weight, tape.constant(np.zeros((1, 2))))


# -- similarity matrix ---------------------------------------------------------


def test_similarity_matrix_matches_pairwise_closed_form():
    rng = np.random.default_rng(11)
    w, m, v, mixtures = random_batch(rng, 5, 3, 2)
    sim = similarity_matrix_t(*constants(w, m, v), 2).value
    for i in range(5):
        for j in range(5):
            expected = reference.naive_correlation(mixtures[i], mixtures[j])
            assert sim[i, j] == pytest.approx(expected, rel=1e-12)


def assert_matches_composite_graph(w, m, v, dim, seed, trainable=(True, True, True)):
    """Value and gradients of the fused op against the composite-graph
    oracle, through a random linear read-out g of the (B, B) matrix, at
    1e-12 relative to each array's largest entry.  A gradient that is zero
    in exact arithmetic (the weights' at C = 1, every one at B = 1, where
    S = 1) is rounding noise on both sides, so the scale is never below
    that of g."""
    g = np.random.default_rng(seed).normal(size=(len(w), len(w)))
    results = []
    for kernel in (similarity_matrix_t, reference.composite_similarity_t):
        blocks = [tape.leaf(b) if t else tape.constant(b) for b, t in zip((w, m, v), trainable)]
        sim = kernel(*blocks, dim)
        tape.backward(tape.tsum(sim * tape.constant(g)))
        results.append([sim.value] + [b.grad for b in blocks])
    fused, oracle = results
    for got, want, t in zip(fused, oracle, (True, *trainable)):
        if not t:
            assert got is None and want is None
            continue
        scale = max(np.max(np.abs(want)), np.max(np.abs(g)))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)


def test_similarity_op_matches_composite_graph_at_training_shape():
    w, m, v, _ = random_batch(np.random.default_rng(21), 128, 6, 4)
    assert_matches_composite_graph(w, m, v, 4, seed=22)


@pytest.mark.parametrize("b", [1, 2, 5])
@pytest.mark.parametrize("c", [1, 3])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_similarity_op_matches_composite_graph_at_small_shapes(b, c, dim):
    rng = np.random.default_rng(100 * b + 10 * c + dim)
    w, m, v, _ = random_batch(rng, b, c, dim)
    assert_matches_composite_graph(w, m, v, dim, seed=b + c + dim)


def test_similarity_op_matches_composite_graph_with_zero_weight_padding():
    rng = np.random.default_rng(23)
    mixtures = []
    for i in range(6):
        k = 1 + i % 3
        w = rng.uniform(0.2, 1.0, size=k)
        mixtures.append(
            Mixture(w / w.sum(), rng.uniform(-3, 3, size=k), rng.uniform(1, 4, size=k), 2)
        )
    w, m, v = reference.padded_blocks(mixtures)
    assert np.sum(w == 0.0) == 6
    assert_matches_composite_graph(w, m, v, 2, seed=24)


@pytest.mark.parametrize(
    "trainable", [(False, True, True), (True, False, False), (False, False, True)]
)
def test_similarity_op_returns_no_gradient_for_constant_blocks(trainable):
    w, m, v, _ = random_batch(np.random.default_rng(25), 4, 3, 2)
    assert_matches_composite_graph(w, m, v, 2, seed=26, trainable=trainable)
    blocks = [tape.leaf(b) if t else tape.constant(b) for b, t in zip((w, m, v), trainable)]
    sim = similarity_matrix_t(*blocks, 2)
    for grad, t in zip(sim._backward(np.ones((4, 4))), trainable):
        assert (grad is not None) == t


# -- pcl -----------------------------------------------------------------------


def identical_batch(b, c=2):
    w = np.full((b, c), 1.0 / c)
    m = np.tile(np.linspace(-1.0, 1.0, c), (b, 1))
    v = np.full((b, c), 2.0)
    labels = np.tile(np.array([1] + [0] * (c - 1)), (b, 1))
    return (w, m, v), labels


def test_pcl_all_identical_fixture():
    blocks, labels = identical_batch(4)
    cold = pcl_loss_t(*constants(*blocks), labels, 2, ContrastiveLossConfig(tau=0.2))
    value = float(cold.value)
    assert value == pytest.approx(4.0 * math.log(3.0), abs=1e-9)
    # The fixture is temperature-independent: softmax of equal scores is uniform.
    hot = pcl_loss_t(*constants(*blocks), labels, 2, ContrastiveLossConfig(tau=5.0))
    value_hot = float(hot.value)
    assert value_hot == pytest.approx(4.0 * math.log(3.0), abs=1e-9)


def test_pcl_disjoint_labels_is_exactly_zero():
    rng = np.random.default_rng(3)
    w, m, v, _ = random_batch(rng, 4, 2, 2)
    labels = np.eye(4, dtype=int)
    tw, tm, tv = leaves(w, m, v)
    loss = pcl_loss_t(tw, tm, tv, labels, 2, ContrastiveLossConfig(alpha=0.5))
    assert float(loss.value) == 0.0
    (grad_means,) = tape.grads_of(loss, [tm])
    np.testing.assert_array_equal(grad_means, np.zeros_like(m))


def test_pcl_matches_brute_force_reference():
    rng = np.random.default_rng(13)
    for trial in range(10):
        b = int(rng.integers(2, 9))
        c = int(rng.integers(2, 4))
        n = int(rng.integers(2, 4))
        w, m, v, mixtures = random_batch(rng, b, c, n)
        labels = random_labels(rng, b, c)
        cfg = ContrastiveLossConfig(tau=0.2, alpha=0.6)
        value = float(pcl_loss_t(*constants(w, m, v), labels, n, cfg).value)
        expected = reference.naive_pcl(mixtures, labels, tau=0.2, alpha=0.6)
        assert value == pytest.approx(expected, abs=1e-10)


def test_pcl_one_hot_reduces_to_unweighted_supervised_contrastive():
    rng = np.random.default_rng(29)
    b = 6
    w, m, v, mixtures = random_batch(rng, b, 3, 2)
    labels = np.eye(3, dtype=int)[rng.integers(0, 3, size=b)]
    cfg = ContrastiveLossConfig(tau=0.3, alpha=0.6)
    value = float(pcl_loss_t(*constants(w, m, v), labels, 2, cfg).value)
    expected = reference.naive_pcl(mixtures, labels, tau=0.3, alpha=0.6)
    assert value == pytest.approx(expected, abs=1e-10)
    d = reference.naive_jaccard(labels[0], labels[1])
    assert d in (0.0, 1.0)


def test_pcl_weight_scales_pair_term_linearly(monkeypatch):
    """Varying one positive pair's overlap weight moves the loss affinely.

    The overlap matrix is pinned to 0.7 everywhere except the ordered pair
    (anchor 0, member 1), which gets a controllable value t.  As long as
    t stays above alpha the positive sets are unchanged, so the loss is
    an affine function of t with slope -log_softmax[0, 1] / |A(0)|.
    """
    rng = np.random.default_rng(31)
    w, m, v, _ = random_batch(rng, 4, 2, 2)
    labels = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]])

    cfg = ContrastiveLossConfig(tau=0.2, alpha=0.5)

    def loss_at(t):
        d = np.full((4, 4), 0.7)
        d[0, 1] = t
        monkeypatch.setattr(losses, "overlap_matrix", lambda labels, measure: d)
        return float(pcl_loss_t(*constants(w, m, v), labels, 2, cfg).value)

    lo, mid, hi = loss_at(0.5), loss_at(0.7), loss_at(0.9)
    assert hi - mid == pytest.approx(mid - lo, abs=1e-12)
    assert abs(hi - mid) > 1e-6  # the pair's term actually participates


def test_pcl_temperature_flattening_limit():
    rng = np.random.default_rng(37)
    b = 6
    w, m, v, _ = random_batch(rng, b, 2, 2)
    labels = random_labels(rng, b, 3)
    cfg = ContrastiveLossConfig(tau=1e7, alpha=0.6)
    value = float(pcl_loss_t(*constants(w, m, v), labels, 2, cfg).value)
    d = reference.naive_jaccard
    expected = 0.0
    for i in range(b):
        pos = [(j, d(labels[i], labels[j])) for j in range(b) if j != i and d(labels[i], labels[j]) >= 0.6]
        if pos:
            expected += sum(w for _, w in pos) / len(pos) * math.log(b - 1)
    assert value == pytest.approx(expected, rel=1e-6)


def test_pcl_gradient_matches_finite_differences():
    rng = np.random.default_rng(41)
    w, m, v, _ = random_batch(rng, 4, 2, 2)
    labels = random_labels(rng, 4, 3)
    cfg = ContrastiveLossConfig()
    tw, tm, tv = leaves(w, m, v)
    grads = tape.grads_of(pcl_loss_t(tw, tm, tv, labels, 2, cfg), [tw, tm, tv])
    step = 1e-6
    for arr, grad, name in zip((w, m, v), grads, "wmv"):
        idx = (1, 0)
        hi, lo = arr.copy(), arr.copy()
        hi[idx] += step
        lo[idx] -= step

        def run(block):
            blocks = {"w": w, "m": m, "v": v}
            blocks[name] = block
            return float(pcl_loss_t(*constants(*blocks.values()), labels, 2, cfg).value)

        numeric = (run(hi) - run(lo)) / (2 * step)
        analytic = grad[idx]
        denom = max(abs(analytic), abs(numeric), 1e-8)
        assert abs(analytic - numeric) / denom < 1e-4


def test_pcl_batch_size_validation():
    rng = np.random.default_rng(43)
    w, m, v, _ = random_batch(rng, 1, 2, 2)
    with pytest.raises(InputError):
        pcl_loss_t(*constants(w, m, v), np.array([[1, 0]]), 2, ContrastiveLossConfig())


def test_loss_blocks_reject_ragged_parameter_shapes():
    w, m, v = np.full((2, 2), 0.5), np.zeros((2, 2)), np.ones((2, 2))
    labels, cfg = np.array([[1, 0], [1, 1]]), ContrastiveLossConfig()
    with pytest.raises(InputError):
        pcl_loss_t(*constants(w, m[:, :1], v), labels, 2, cfg)
    with pytest.raises(InputError):
        pcl_loss_t(*constants(w[:1], m, v), labels, 2, cfg)
    with pytest.raises(InputError):
        nll_loss_t(*constants(w, m, v[:1]), tape.constant(np.zeros((2, 2))))
    with pytest.raises(InputError):
        nll_loss_t(*constants(w[0], m[0], v[0]), tape.constant(np.zeros((2, 2))))


# -- total ----------------------------------------------------------------------


def test_total_loss_arithmetic():
    nll, pcl = tape.constant(np.array(2.0)), tape.constant(np.array(3.0))
    assert float((nll + pcl * 1.0).value) == 5.0
    assert float((nll + pcl * 0.0).value) == 2.0
    assert float((nll + pcl * 0.3).value) == pytest.approx(2.9, rel=1e-15)
    with pytest.raises(InputError):
        ContrastiveLossConfig(lam=-0.5)


def test_total_loss_gradient_is_linear_combination():
    rng = np.random.default_rng(47)
    w, m, v, _ = random_batch(rng, 4, 2, 2)
    labels = random_labels(rng, 4, 3)
    z = rng.normal(size=(4, 2))
    lam = 0.3
    cfg = ContrastiveLossConfig()

    def weight_grad(objective):
        tw, tm, tv = leaves(w, m, v)
        nll = nll_loss_t(tw, tm, tv, tape.constant(z))
        pcl = pcl_loss_t(tw, tm, tv, labels, 2, cfg)
        return tape.grads_of(objective(nll, pcl), [tw])[0].copy()

    gw_total = weight_grad(lambda nll, pcl: nll + pcl * lam)
    g_nll = weight_grad(lambda nll, pcl: nll)
    g_pcl = weight_grad(lambda nll, pcl: pcl)
    np.testing.assert_allclose(gw_total, g_nll + lam * g_pcl, rtol=1e-12, atol=1e-12)


# -- asl -------------------------------------------------------------------------


def test_asl_reduces_to_bce_when_disabled():
    rng = np.random.default_rng(53)
    probs = rng.uniform(0.05, 0.95, size=(6, 4))
    labels = (rng.random((6, 4)) < 0.5).astype(int)
    cfg = AslConfig(gamma_pos=0.0, gamma_neg=0.0, margin=0.0)
    value = float(asl_loss_t(tape.constant(probs), labels, cfg).value)
    assert value == pytest.approx(reference.naive_bce(probs, labels), abs=1e-12)


def test_asl_hand_fixtures():
    value = asl_loss_t(tape.constant(np.array([0.9])), np.array([1]), AslConfig(gamma_pos=0.0))
    assert float(value.value) == pytest.approx(-math.log(0.9), rel=1e-12)
    perfect = asl_loss_t(tape.constant(np.array([1.0])), np.array([1]), AslConfig())
    assert float(perfect.value) == 0.0


def test_asl_matches_direct_reference():
    rng = np.random.default_rng(59)
    probs = rng.uniform(0.0, 1.0, size=(5, 3))
    labels = (rng.random((5, 3)) < 0.5).astype(int)
    cfg = AslConfig(gamma_pos=1.5, gamma_neg=4.0, margin=0.05)
    value = float(asl_loss_t(tape.constant(probs), labels, cfg).value)
    expected = reference.naive_asl(probs, labels, 1.5, 4.0, 0.05)
    assert value == pytest.approx(expected, rel=1e-12)


def test_asl_clipped_negatives_have_zero_value_and_gradient():
    cfg = AslConfig()  # margin 0.05
    probs = tape.leaf(np.array([0.01, 0.05, 0.2]))
    labels = np.array([0, 0, 0])
    (grad,) = tape.grads_of(asl_loss_t(probs, labels, cfg), [probs])
    below, at_margin, above = grad
    assert below == 0.0 and at_margin == 0.0
    assert above != 0.0
    clipped_only = asl_loss_t(tape.constant(np.array([0.01, 0.05])), np.array([0, 0]), cfg)
    assert float(clipped_only.value) == 0.0


def test_asl_validation():
    with pytest.raises(InputError):
        asl_loss_t(tape.constant(np.array([1.2])), np.array([1]), AslConfig())
    with pytest.raises(InputError):
        asl_loss_t(tape.constant(np.array([0.5, 0.5])), np.array([1]), AslConfig())
    with pytest.raises(InputError):
        asl_loss_t(tape.constant(np.array([0.5])), np.array([2]), AslConfig())


def test_asl_infinite_loss_surfaces_as_numeric_error():
    probs = tape.leaf(np.array([[0.0]]))
    with np.errstate(divide="ignore"):
        loss = asl_loss_t(probs, np.array([[1]]), AslConfig())
    assert loss.value == np.inf
    with pytest.raises(NumericError):
        tape.backward(loss)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_asl_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    probs = rng.uniform(0.1, 0.9, size=4)
    labels = (rng.random(4) < 0.5).astype(int)
    cfg = AslConfig(gamma_pos=1.0, gamma_neg=4.0, margin=0.05)
    leaf = tape.leaf(probs)
    (grad,) = tape.grads_of(asl_loss_t(leaf, labels, cfg), [leaf])
    step = 1e-6
    for i in range(4):
        if abs(probs[i] - cfg.margin) < 10 * step:
            continue  # kink of the clip; one-sided gradients differ there
        hi, lo = probs.copy(), probs.copy()
        hi[i] += step
        lo[i] -= step
        numeric = (
            float(asl_loss_t(tape.constant(hi), labels, cfg).value)
            - float(asl_loss_t(tape.constant(lo), labels, cfg).value)
        ) / (2 * step)
        denom = max(abs(grad[i]), abs(numeric), 1e-8)
        assert abs(grad[i] - numeric) / denom < 1e-4


def assert_asl_matches_composite_graph(probs, labels, cfg, read_out=1.0):
    """Value and gradient of the fused op against the composite-graph
    oracle at 1e-12 relative, entry by entry.  The loss enters backward
    scaled by ``read_out``, so the VJP also sees an output gradient G != 1."""
    results = []
    for loss_fn in (asl_loss_t, reference.composite_asl_t):
        leaf = tape.leaf(np.array(probs, dtype=np.float64))
        loss = loss_fn(leaf, labels, cfg)
        tape.backward(loss * read_out)
        results.append((loss.value, leaf.grad))
    (value, grad), (want_value, want_grad) = results
    np.testing.assert_allclose(value, want_value, rtol=1e-12, atol=0)
    assert grad.shape == np.shape(probs)
    np.testing.assert_allclose(grad, want_grad, rtol=1e-12, atol=0)


def asl_block(rng, margin, shape=(7, 5)):
    """Random probabilities with negatives placed exactly at the margin and
    at 0, and a positive at 1; no positive at 0, where the loss is infinite."""
    labels = (rng.random(shape) < 0.4).astype(int)
    labels.flat[:4] = (0, 0, 1, 0)
    probs = rng.uniform(0.01, 0.99, size=shape)
    probs.flat[:4] = (margin, 0.0, 1.0, 0.5)
    if margin == 0.0:
        probs[(labels == 0) & (probs > 0.99)] = 0.99  # p = 1 on a negative is infinite
    return probs, labels


@pytest.mark.parametrize("gamma_pos", [0.0, 1.0, 4.0])
@pytest.mark.parametrize("gamma_neg", [0.0, 1.0, 4.0])
@pytest.mark.parametrize("margin", [0.0, 0.05])
def test_asl_op_matches_composite_graph(gamma_pos, gamma_neg, margin):
    cfg = AslConfig(gamma_pos=gamma_pos, gamma_neg=gamma_neg, margin=margin)
    rng = np.random.default_rng(int(100 * gamma_pos + 10 * gamma_neg + 100 * margin))
    probs, labels = asl_block(rng, margin)
    assert_asl_matches_composite_graph(probs, labels, cfg)
    assert_asl_matches_composite_graph(probs, labels, cfg, read_out=-2.5)
    assert_asl_matches_composite_graph(probs[0], labels[0], cfg)


def test_asl_op_on_a_constant_has_no_vjp():
    cfg = AslConfig(gamma_pos=1.0)
    probs, labels = asl_block(np.random.default_rng(61), cfg.margin)
    loss = asl_loss_t(tape.constant(probs), labels, cfg)
    assert not loss.requires_grad and loss._backward is None
    want = reference.composite_asl_t(tape.constant(probs), labels, cfg).value
    np.testing.assert_allclose(loss.value, want, rtol=1e-12, atol=0)
