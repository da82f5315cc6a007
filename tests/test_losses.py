"""Loss values against analytic fixtures and the brute-force transcription."""

import math
import sys
import threading
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixcon import losses, tape
from mixcon.config import AslConfig, ContrastiveLossConfig
from mixcon.errors import InputError, NumericError
from mixcon.losses import asl_loss_t, nll_loss_t, pcl_loss_t, similarity_matrix_t

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
    gw, _, _, gz = reference.grads_of(loss, [w, m, v, z])
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
    grad_of = dict(zip(blocks, reference.grads_of(loss, [tw, tm, tv, tz])))

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
    # A weight that underflowed to 0 is a runtime failure, not a bad input.
    zero_weight = constants([[1.0, 0.0]], np.zeros((1, 2)), np.ones((1, 2)))
    with pytest.raises(NumericError, match="strictly positive mixture weights"):
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
    # X = U + U^T, so the similarity is symmetric bit for bit.
    assert np.array_equal(fused[0], fused[0].T)
    for got, want, t in zip(fused, oracle, (True, *trainable)):
        if not t:
            assert got is None and want is None
            continue
        scale = max(np.max(np.abs(want)), np.max(np.abs(g)))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)


# 128 views at the default batch size, 16 at train-b8's.
@pytest.mark.parametrize("b", [128, 16])
def test_similarity_op_matches_composite_graph_at_training_shape(b):
    w, m, v, _ = random_batch(np.random.default_rng(21), b, 6, 4)
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
    """The op's VJP returns a gradient for every block; the reverse pass
    alone keeps it from a constant, and a leaf's is the one it gets when
    every block is a leaf, bit for bit."""
    w, m, v, _ = random_batch(np.random.default_rng(25), 4, 3, 2)
    assert_matches_composite_graph(w, m, v, 2, seed=26, trainable=trainable)
    grads = []
    for kinds in ((True, True, True), trainable):
        blocks = [tape.leaf(b) if t else tape.constant(b) for b, t in zip((w, m, v), kinds)]
        tape.backward(tape.tsum(similarity_matrix_t(*blocks, 2)))
        grads.append([b.grad for b in blocks])
    for want, got, t in zip(*grads, trainable):
        if t:
            np.testing.assert_array_equal(got, want)
        else:
            assert got is None


def similarity_bytes(blocks, g, threads):
    """Bytes of the op's value and of each block's gradient under the
    read-out g, with its pair groups shared among ``threads`` threads, and
    the number of live threads just before the pool's were joined."""
    with losses.similarity_threads(threads):
        parents = leaves(*blocks)
        sim = similarity_matrix_t(*parents, 4)
        tape.backward(tape.tsum(sim * tape.constant(g)))
        alive = threading.active_count()
    return [sim.value.tobytes()] + [p.grad.tobytes() for p in parents], alive


def test_similarity_op_gives_the_same_bytes_on_one_thread_and_on_several():
    # 128 views, as at batch 64: C = 6 makes 21 component pairs, cut into
    # several groups that the threads share.
    w, m, v, _ = random_batch(np.random.default_rng(27), 128, 6, 4)
    g = np.random.default_rng(28).normal(size=(128, 128))
    *_, groups = losses._pair_layout(6, 128)
    assert len(groups) > 4
    before = threading.active_count()
    one, alive = similarity_bytes((w, m, v), g, 1)
    assert alive == before
    # More threads than most machines have CPUs, switching as often as the
    # interpreter allows: a group lost or taken twice would show.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in (2, 3, 5):
            got, alive = similarity_bytes((w, m, v), g, threads)
            assert got == one, threads
            assert alive == before + threads - 1
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before


def test_pool_threads_keep_the_callers_numpy_error_state():
    # Means 1e200 apart overflow q * q * s in every group, on whichever
    # thread takes it: the caller's np.errstate decides for all of them.
    w, m, v, _ = random_batch(np.random.default_rng(29), 128, 6, 4)
    blocks = constants(w, m * 1e200, v)
    with losses.similarity_threads(3):
        with np.errstate(over="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(similarity_matrix_t(*blocks, 4).value).all()
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            similarity_matrix_t(*blocks, 4)


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
    (grad_means,) = reference.grads_of(loss, [tm])
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
    grads = reference.grads_of(pcl_loss_t(tw, tm, tv, labels, 2, cfg), [tw, tm, tv])
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
        return reference.grads_of(objective(nll, pcl), [tw])[0].copy()

    gw_total = weight_grad(lambda nll, pcl: nll + pcl * lam)
    g_nll = weight_grad(lambda nll, pcl: nll)
    g_pcl = weight_grad(lambda nll, pcl: pcl)
    np.testing.assert_allclose(gw_total, g_nll + lam * g_pcl, rtol=1e-12, atol=1e-12)


# -- asl -------------------------------------------------------------------------
#
# asl_loss_t is the linear sigmoid head and the loss in one node.  The
# tests below place its probabilities through the logits: see head_at.


def logit(p):
    p = np.asarray(p, dtype=np.float64)
    return np.log(p / (1.0 - p))


def head_at(logits, leaf=False):
    """Head operands whose logits are exactly the (B, C) ``logits``: the
    logits as the weight, identity embeddings and a zero bias.  The
    weight's gradient is then dL/dz, entry by entry."""
    z = np.array(logits, dtype=np.float64)
    wrap = tape.leaf if leaf else tape.constant
    return wrap(z), wrap(np.zeros(z.shape[1])), np.eye(z.shape[0])


def test_asl_reduces_to_bce_when_disabled():
    rng = np.random.default_rng(53)
    logits = rng.uniform(-3.0, 3.0, size=(6, 4))
    labels = rng.random((6, 4)) < 0.5
    cfg = AslConfig(gamma_pos=0.0, gamma_neg=0.0, margin=0.0)
    value = float(asl_loss_t(*head_at(logits), labels, cfg).value)
    want = reference.naive_bce(tape.sigmoid_array(logits), labels)
    assert value == pytest.approx(want, abs=1e-12)


def test_asl_hand_fixtures():
    one = np.array([[True]])
    value = asl_loss_t(*head_at([[math.log(9.0)]]), one, AslConfig(gamma_pos=0.0))
    assert float(value.value) == pytest.approx(-math.log(0.9), rel=1e-12)
    # A logit of 40 rounds p to exactly 1.
    perfect = asl_loss_t(*head_at([[40.0]]), one, AslConfig())
    assert float(perfect.value) == 0.0


def test_asl_matches_direct_reference():
    rng = np.random.default_rng(59)
    logits = rng.uniform(-6.0, 6.0, size=(5, 3))
    labels = rng.random((5, 3)) < 0.5
    cfg = AslConfig(gamma_pos=1.5, gamma_neg=4.0, margin=0.05)
    value = float(asl_loss_t(*head_at(logits), labels, cfg).value)
    expected = reference.naive_asl(tape.sigmoid_array(logits), labels, 1.5, 4.0, 0.05)
    assert value == pytest.approx(expected, rel=1e-12)


def test_asl_clipped_negatives_have_zero_value_and_gradient():
    # No logit gives p = 0.05 exactly, so the margin is set to the p of a
    # logit of -3 to put that entry on the clip.
    cfg = AslConfig(margin=float(tape.sigmoid_array(np.float64(-3.0))))
    weight, bias, embeddings = head_at([[-4.6, -3.0, -1.4]], leaf=True)
    labels = np.array([[False, False, False]])
    loss = asl_loss_t(weight, bias, embeddings, labels, cfg)
    (grad,) = reference.grads_of(loss, [weight])
    below, at_margin, above = grad[0]
    assert below == 0.0 and at_margin == 0.0
    assert above != 0.0
    clipped_only = asl_loss_t(*head_at([[-4.6, -3.0]]), np.array([[False, False]]), cfg)
    assert float(clipped_only.value) == 0.0


def test_asl_validation():
    weight, bias, embeddings = head_at([[0.0, 0.0]])
    mask = np.array([[True, False]])
    cfg = AslConfig()
    with pytest.raises(InputError):  # a mask of another shape
        asl_loss_t(weight, bias, embeddings, np.array([[True]]), cfg)
    with pytest.raises(InputError):  # 0/1 labels are not a mask
        asl_loss_t(weight, bias, embeddings, np.array([[1, 0]]), cfg)
    with pytest.raises(InputError):  # embeddings of another width
        asl_loss_t(weight, bias, np.ones((1, 3)), mask, cfg)
    with pytest.raises(InputError):  # a bias of another width
        asl_loss_t(weight, tape.constant(np.zeros(3)), embeddings, mask, cfg)
    # A 1-D block is not read as one row.
    with pytest.raises(InputError):
        asl_loss_t(weight, bias, np.ones(1), mask, cfg)


def test_asl_infinite_loss_surfaces_as_numeric_error():
    # A logit of -800 rounds p to exactly 0, here on a positive.
    weight, bias, embeddings = head_at([[-800.0]], leaf=True)
    with np.errstate(divide="ignore"):
        loss = asl_loss_t(weight, bias, embeddings, np.array([[True]]), AslConfig())
    assert loss.value == np.inf
    with pytest.raises(NumericError):
        tape.backward(loss)


def test_asl_gradient_at_a_certain_positive_is_its_limit():
    """With 0 < gamma_pos < 1, the focusing term's derivative at p = 1 is
    0 * inf as written; its limit, 0, is what backward must report."""
    cfg = AslConfig(gamma_pos=0.5)
    labels = np.array([[True, False]])
    z = logit(0.3)
    weight, bias, embeddings = head_at([[40.0, z]], leaf=True)
    (grad,) = reference.grads_of(asl_loss_t(weight, bias, embeddings, labels, cfg), [weight])
    assert grad[0, 0] == 0.0

    def value_at(z_neg):
        return float(asl_loss_t(*head_at([[40.0, z_neg]]), labels, cfg).value)

    step = 1e-6
    numeric = (value_at(z + step) - value_at(z - step)) / (2 * step)
    assert grad[0, 1] == pytest.approx(numeric, rel=1e-6)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_asl_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    # |e @ w| <= 0.9 and |b| <= 1.1 keep p in [0.12, 0.88], so no
    # perturbation crosses the kink of the clip at the margin.
    embeddings = rng.uniform(0.5, 1.5, size=(1, 3))
    params = {
        "w": rng.uniform(-0.2, 0.2, size=(3, 4)),
        "b": logit(rng.uniform(0.25, 0.75, size=4)),
    }
    labels = rng.random((1, 4)) < 0.5
    cfg = AslConfig(gamma_pos=1.0, gamma_neg=4.0, margin=0.05)
    worst = reference.finite_diff_check(
        params, lambda t: asl_loss_t(t["w"], t["b"], embeddings, labels, cfg), step=1e-4
    )
    assert worst < 1e-4


def asl_block(rng, margin, shape=(7, 5)):
    """Random logits and labels, with a negative at the margin's logit, a
    negative at p = 0 (logit -800), a positive at p = 1 (logit 40) and a
    negative at p = 0.5; no positive at p = 0, where the loss is infinite,
    and no negative at p = 1."""
    positive = rng.random(shape) < 0.4
    positive.flat[:4] = (False, False, True, False)
    logits = logit(rng.uniform(0.01, 0.99, size=shape))
    logits.flat[:4] = (logit(margin) if margin else -800.0, -800.0, 40.0, 0.0)
    return logits, positive


def assert_asl_matches_composite_graph(logits, positive, cfg, read_out=1.0):
    """Value and gradients of the fused op against the head's tape ops
    chained into the composite-graph loss, at 1e-12 relative.  The weight
    gradient is dL/dz entry by entry (see head_at).  The bias gradient
    sums each column over positives and negatives, which have opposite
    signs, so it gets 1e-12 of the column's absolute sum.  The loss enters
    backward scaled by ``read_out``, so the VJP also sees G != 1."""
    composite = partial(reference.head_asl_t, loss_fn=reference.composite_asl_t)
    results = []
    for loss_fn in (asl_loss_t, composite):
        weight, bias, embeddings = head_at(logits, leaf=True)
        loss = loss_fn(weight, bias, embeddings, positive, cfg)
        tape.backward(loss * read_out)
        results.append((loss.value, weight.grad, bias.grad))
    (value, gw, gb), (want_value, want_gw, want_gb) = results
    np.testing.assert_allclose(value, want_value, rtol=1e-12, atol=0)
    assert gw.shape == np.shape(logits) and gb.shape == np.shape(logits)[1:]
    np.testing.assert_allclose(gw, want_gw, rtol=1e-12, atol=0)
    assert np.all(np.abs(gb - want_gb) <= 1e-12 * np.abs(want_gw).sum(axis=0))


@pytest.mark.parametrize("gamma_pos", [0.0, 1.0, 4.0])
@pytest.mark.parametrize("gamma_neg", [0.0, 1.0, 4.0])
@pytest.mark.parametrize("margin", [0.0, 0.05])
def test_asl_op_matches_composite_graph(gamma_pos, gamma_neg, margin):
    cfg = AslConfig(gamma_pos=gamma_pos, gamma_neg=gamma_neg, margin=margin)
    rng = np.random.default_rng(int(100 * gamma_pos + 10 * gamma_neg + 100 * margin))
    logits, positive = asl_block(rng, margin)
    assert_asl_matches_composite_graph(logits, positive, cfg)
    assert_asl_matches_composite_graph(logits, positive, cfg, read_out=-2.5)
    assert_asl_matches_composite_graph(logits[:1], positive[:1], cfg)


def test_asl_op_on_a_constant_has_no_vjp():
    cfg = AslConfig(gamma_pos=1.0)
    logits, positive = asl_block(np.random.default_rng(61), cfg.margin)
    operands = head_at(logits)
    loss = asl_loss_t(*operands, positive, cfg)
    assert not loss.requires_grad and loss._backward is None
    want = reference.head_asl_t(*operands, positive, cfg, loss_fn=reference.composite_asl_t)
    np.testing.assert_allclose(loss.value, want.value, rtol=1e-12, atol=0)


def head_batch(rng, margin, b=9, h=5, c=4):
    """Random head operands whose first two rows have logits in the
    thousands and of opposite signs, so that p rounds to exactly 0 or 1
    there, and each value occurs.  Row 0's entries at p = 1 are positives;
    row 1 is all negatives when the margin keeps p = 1 finite on a
    negative, and labelled like row 0 otherwise."""
    weight = rng.normal(size=(h, c))
    bias = rng.normal(size=c)
    embeddings = rng.normal(size=(b, h))
    embeddings[0] *= 1e4
    embeddings[1] = -embeddings[0]
    positive = rng.random((b, c)) < 0.4
    saturated = embeddings[:2] @ weight + bias > 0.0
    positive[0] = saturated[0]
    positive[1] = False if margin else saturated[1]
    return weight, bias, embeddings, positive


@pytest.mark.parametrize("gamma_pos", [0.0, 0.5])
@pytest.mark.parametrize("gamma_neg", [0.0, 4.0])
@pytest.mark.parametrize("margin", [0.0, 0.05])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_asl_op_matches_the_tape_chain_bit_for_bit(gamma_pos, gamma_neg, margin, seed):
    """The fused node against the matmul, add, sigmoid and probability-level
    loss ops it replaced: the same floats in the same order, so the loss
    and both gradients are equal bit for bit, for G = 1 and G != 1."""
    cfg = AslConfig(gamma_pos=gamma_pos, gamma_neg=gamma_neg, margin=margin)
    weight, bias, embeddings, positive = head_batch(np.random.default_rng(seed), margin)
    probs = tape.sigmoid_array(embeddings @ weight + bias)
    assert (probs[:2] == 0.0).any() and (probs[:2] == 1.0).any()
    for read_out in (1.0, -2.5):
        results = []
        for loss_fn in (asl_loss_t, reference.head_asl_t):
            w, b = tape.leaf(weight), tape.leaf(bias)
            loss = loss_fn(w, b, embeddings, positive, cfg)
            tape.backward(loss * read_out)
            results.append((loss.value, w.grad, b.grad))
        (value, gw, gb), (want_value, want_gw, want_gb) = results
        assert np.isfinite(value)
        np.testing.assert_array_equal(value, want_value)
        np.testing.assert_array_equal(gw, want_gw)
        np.testing.assert_array_equal(gb, want_gb)


@pytest.mark.parametrize("trainable", [(True, False), (False, True)])
def test_asl_op_returns_no_gradient_for_a_constant_operand(trainable):
    """As for the similarity op: the constant operand's gradient stays
    None, and the leaf's equals, bit for bit, the one it gets when both
    operands are leaves and the one the tape chain gives it."""
    cfg = AslConfig(gamma_pos=0.5, gamma_neg=4.0, margin=0.05)
    weight, bias, embeddings, positive = head_batch(np.random.default_rng(63), cfg.margin)
    grads = []
    for loss_fn, kinds in (
        (asl_loss_t, (True, True)),
        (asl_loss_t, trainable),
        (reference.head_asl_t, trainable),
    ):
        operands = [
            tape.leaf(x) if t else tape.constant(x) for x, t in zip((weight, bias), kinds)
        ]
        tape.backward(loss_fn(*operands, embeddings, positive, cfg))
        grads.append([o.grad for o in operands])
    both, fused, chain = grads
    for want, got, want_chain, t in zip(both, fused, chain, trainable):
        if t:
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(got, want_chain)
        else:
            assert got is None and want_chain is None
