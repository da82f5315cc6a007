"""Independent reference implementations used as oracles.

Everything here is written from the defining formulas with plain loops
and ``math`` calls, deliberately not sharing code with the package, so a
bug would have to be made twice to go unnoticed.  The exceptions are
the tape oracles.  :func:`composite_similarity_t` and
:func:`composite_asl_t` build the mixture similarity and the asymmetric
loss from elementary tape ops, so that the tape differentiates them, as
oracles for the gradients of the fused ``losses.similarity_matrix_t`` and
``losses.asl_loss_t``.  :func:`head_asl_t` is the stage-two chain that
``losses.asl_loss_t`` replaced, the head's matmul, add and sigmoid ops
feeding the probability-level loss op :func:`probability_asl_t`; the
fused node must match it bit for bit.  The tape tools they and the tests
need, but the package does not (:func:`sigmoid`, :func:`pow_const`,
:func:`relu`, :func:`grads_of` and :func:`finite_diff_check`), live here
too, as does :class:`PerArrayAdam`, the per-array update that the flat
``optim.adam_step`` must match bit for bit.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from mixcon import tape
from mixcon.errors import InputError


class Mixture(NamedTuple):
    """One isotropic mixture: component k has mean ``means[k] * ones(dim)``
    and covariance ``variances[k] * I``.  Deliberately unvalidated."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    dim: int


def single(mu=0.0, var=1.0, dim=1):
    """One Gaussian of mean ``mu * ones(dim)`` and variance ``var``."""
    return Mixture(np.array([1.0]), np.array([mu]), np.array([var]), dim)


def random_mixture(rng, dim=None, max_components=5):
    """A mixture of 1 to ``max_components`` components drawn from ``rng``,
    in a random dimension from 1 to 8 unless ``dim`` is given."""
    c = int(rng.integers(1, max_components + 1))
    w = rng.uniform(0.2, 1.0, size=c)
    return Mixture(
        w / w.sum(),
        rng.uniform(-5.0, 5.0, size=c),
        rng.uniform(1.0, 4.0, size=c),
        dim if dim is not None else int(rng.integers(1, 9)),
    )


def padded_blocks(mixtures):
    """(B, C) weight, mean and variance arrays of a mixture list.

    Mixtures with fewer than C components are padded with zero-weight
    unit-variance components, which add exactly zero to every overlap.
    """
    c = max(len(g.weights) for g in mixtures)
    blocks = np.zeros((3, len(mixtures), c))
    blocks[2] = 1.0
    for i, g in enumerate(mixtures):
        k = len(g.weights)
        blocks[:, i, :k] = g.weights, g.means, g.variances
    return blocks[0], blocks[1], blocks[2]


def naive_mixture_density(weights, means, variances, dim, z) -> float:
    """Direct summation of isotropic component densities at one point."""
    z = list(map(float, np.asarray(z).ravel()))
    assert len(z) == dim
    total = 0.0
    for w, m, v in zip(weights, means, variances):
        quad = sum((zi - m) ** 2 for zi in z)
        total += w * (2.0 * math.pi * v) ** (-dim / 2.0) * math.exp(-quad / (2.0 * v))
    return total


def naive_gaussian_cross(mu_a, var_a, mu_b, var_b, dim) -> float:
    s = var_a + var_b
    return (2.0 * math.pi * s) ** (-dim / 2.0) * math.exp(
        -dim * (mu_a - mu_b) ** 2 / (2.0 * s)
    )


def naive_mixture_cross(p, q) -> float:
    """Double loop over components of two mixture parameter bundles."""
    total = 0.0
    for wa, ma, va in zip(p.weights, p.means, p.variances):
        for wb, mb, vb in zip(q.weights, q.means, q.variances):
            total += wa * wb * naive_gaussian_cross(ma, va, mb, vb, p.dim)
    return total


def naive_correlation(p, q) -> float:
    return naive_mixture_cross(p, q) / math.sqrt(
        naive_mixture_cross(p, p) * naive_mixture_cross(q, q)
    )


# -- tape tools: ops and gradient checks that only the oracles and tests use


def sigmoid(a):
    out = tape.sigmoid_array(a.value)
    return tape.node("sigmoid", out, (a,), lambda g: (g * out * (1.0 - out),))


def pow_const(a, exponent: float):
    """``a`` raised to a fixed scalar exponent.

    ``exponent == 0`` is treated as the constant 1 with zero gradient, so
    focusing factors switched off in a config do not inject 0*inf terms.
    """
    exponent = float(exponent)
    if exponent == 0.0:
        out = np.ones_like(a.value)
        return tape.node("pow", out, (a,), lambda g: (np.zeros_like(a.value),))
    out = np.power(a.value, exponent)

    def bw(g):
        return (g * exponent * np.power(a.value, exponent - 1.0),)

    return tape.node("pow", out, (a,), bw)


def relu(a):
    mask = a.value > 0
    return tape.node("relu", np.where(mask, a.value, 0.0), (a,), lambda g: (g * mask,))


def grads_of(loss, leaves):
    """Run backward and return gradients for ``leaves`` (zeros if unused)."""
    tape.backward(loss)
    return [
        t.grad if t.grad is not None else np.zeros_like(t.value) for t in leaves
    ]


def finite_diff_check(params, loss_fn, step: float = 1e-5) -> float:
    """Worst-case relative error of tape gradients vs central differences.

    ``loss_fn`` maps a dict of Tensors (same keys as ``params``) to a
    scalar Tensor and must be pure.  Every scalar parameter is perturbed
    in both directions; the relative error uses denominator
    max(|analytic|, |numeric|, 1e-8).
    """
    if not step > 0.0:
        raise InputError("step must be positive")
    leaves = {k: tape.leaf(v) for k, v in params.items()}
    analytic_grads = dict(
        zip(leaves, grads_of(loss_fn(leaves), list(leaves.values())))
    )

    def value_at(values) -> float:
        out = loss_fn({k: tape.constant(v) for k, v in values.items()})
        return float(out.value)

    worst = 0.0
    for name, base in params.items():
        flat = np.asarray(base, dtype=np.float64).ravel()
        for idx in range(flat.size):
            perturbed = {k: np.array(v, dtype=np.float64) for k, v in params.items()}
            perturbed[name].ravel()[idx] = flat[idx] + step
            hi = value_at(perturbed)
            perturbed[name].ravel()[idx] = flat[idx] - step
            lo = value_at(perturbed)
            numeric = (hi - lo) / (2.0 * step)
            analytic = float(analytic_grads[name].ravel()[idx])
            denom = max(abs(analytic), abs(numeric), 1e-8)
            worst = max(worst, abs(analytic - numeric) / denom)
    return worst


class PerArrayAdam:
    """The per-array Adam update that ``optim.adam_step`` replaced, kept as
    the oracle for its flat buffer: one moment pair per parameter, updated
    one array at a time in ``keys`` order."""

    def __init__(self, params, keys, beta1=0.9, beta2=0.999, eps=1e-8):
        self.m = {k: np.zeros_like(params[k]) for k in keys}
        self.v = {k: np.zeros_like(params[k]) for k in keys}
        self.step_count = 0
        self.beta1, self.beta2, self.eps = beta1, beta2, eps

    def step(self, params, gradients, lr_now):
        self.step_count += 1
        t = self.step_count
        b1, b2 = self.beta1, self.beta2
        for name in self.m:
            g = gradients[name]
            self.m[name] = b1 * self.m[name] + (1.0 - b1) * g
            self.v[name] = b2 * self.v[name] + (1.0 - b2) * (g * g)
            m_hat = self.m[name] / (1.0 - b1**t)
            v_hat = self.v[name] / (1.0 - b2**t)
            params[name] -= lr_now * m_hat / (np.sqrt(v_hat) + self.eps)


def _pairwise_cross(w_a, m_a, v_a, w_b, m_b, v_b, dim, shape_a, shape_b, reduce_axes):
    """Closed-form sum_k sum_l w w' integral(N N') with tensors, any broadcast layout."""
    va = tape.reshape(v_a, shape_a)
    vb = tape.reshape(v_b, shape_b)
    total_var = va + vb
    delta = tape.reshape(m_a, shape_a) - tape.reshape(m_b, shape_b)
    pair = pow_const(total_var * (2.0 * np.pi), -0.5 * dim) * tape.exp(
        (delta * delta) * (-0.5 * dim) / total_var
    )
    w_outer = tape.reshape(w_a, shape_a) * tape.reshape(w_b, shape_b)
    return tape.tsum(w_outer * pair, axis=reduce_axes)


def composite_similarity_t(weights, means, variances, dim):
    """(B, B) similarity cross(i,j) / sqrt(self(i) * self(j)) as a graph of
    elementary tape ops: the pairwise cross term over a (B, B, C, C)
    broadcast, and a second pass over (B, C, C) for the self-overlap."""
    b, c = weights.value.shape
    cross = _pairwise_cross(
        weights, means, variances, weights, means, variances,
        dim, (b, 1, c, 1), (1, b, 1, c), (2, 3),
    )
    self_overlap = _pairwise_cross(
        weights, means, variances, weights, means, variances,
        dim, (b, c, 1), (b, 1, c), (1, 2),
    )
    denom = tape.sqrt(tape.reshape(self_overlap, (b, 1)) * tape.reshape(self_overlap, (1, b)))
    return cross / denom


def composite_asl_t(probabilities, labels, cfg):
    """Asymmetric binary loss summed over batch and classes.

    Positive terms -(1-p)^g+ log p; negative terms -(p_m)^g- log(1 - p_m)
    with p_m = max(p - margin, 0).  A probability of exactly 0 on a
    positive (or 1 with margin 0 on a negative) makes the loss infinite,
    which backward() then reports as a numeric error.
    """
    probs = probabilities
    y = np.asarray(labels)
    if y.shape != probs.value.shape:
        raise InputError("labels must match the probability block shape")
    if not np.isin(y, (0, 1)).all():
        raise InputError("label entries must be 0 or 1")
    if np.any(probs.value < 0.0) or np.any(probs.value > 1.0):
        raise InputError("probabilities must lie in [0, 1]")
    pos_mask = y == 1
    # Masked-out branches are pinned to safe constants so the dead side
    # never produces log(0) that would poison the live side via 0 * inf.
    p_pos = tape.where(pos_mask, probs, tape.constant(np.full(y.shape, 0.5)))
    pos_term = pow_const(tape.sub(1.0, p_pos), cfg.gamma_pos) * tape.log(p_pos)
    shifted = relu(probs - cfg.margin)
    p_neg = tape.where(~pos_mask, shifted, tape.constant(np.zeros(y.shape)))
    neg_term = pow_const(p_neg, cfg.gamma_neg) * tape.log(tape.sub(1.0, p_neg))
    gated = tape.where(pos_mask, pos_term, neg_term)
    return -tape.tsum(gated)


def probability_asl_t(probabilities, labels, cfg):
    """The asymmetric loss of a (B, C) probability Tensor against 0/1
    labels, as one tape op with a hand-derived VJP: the loss op of the
    stage-two chain before the head was fused into it."""
    p = probabilities.value
    y = np.asarray(labels)
    if p.ndim != 2 or y.shape != p.shape:
        raise InputError("probabilities and labels must be (B, C) blocks of one shape")
    if not ((y == 0) | (y == 1)).all():
        raise InputError("label entries must be 0 or 1")
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise InputError("probabilities must lie in [0, 1]")
    gamma_pos, gamma_neg = float(cfg.gamma_pos), float(cfg.gamma_neg)
    pos = y == 1
    p_pos = np.where(pos, p, 0.5)
    q_pos = 1.0 - p_pos
    log_pos = np.log(p_pos)
    shifted = p - cfg.margin
    live = ~pos & (shifted > 0.0)
    p_m = np.where(live, shifted, 0.0)
    q_m = 1.0 - p_m
    log_neg = np.log(q_m)
    focus_pos = np.power(q_pos, gamma_pos) if gamma_pos else 1.0
    focus_neg = np.power(p_m, gamma_neg) if gamma_neg else 1.0
    loss = -np.where(pos, focus_pos * log_pos, focus_neg * log_neg).sum()

    def vjp(g):
        d_pos = -focus_pos / p_pos
        if gamma_pos:
            focus_term = gamma_pos * log_pos * np.power(q_pos, gamma_pos - 1.0)
            d_pos = np.where(q_pos > 0.0, focus_term, 0.0) + d_pos
        d_neg = focus_neg / q_m
        if gamma_neg:
            d_neg = d_neg - gamma_neg * log_neg * np.power(p_m, gamma_neg - 1.0)
        grad = np.where(pos, d_pos, np.where(live, d_neg, 0.0))
        return (g * grad,)

    return tape.node("asl", loss, (probabilities,), vjp)


def classifier_forward_t(weight, bias, embeddings):
    """(B, H) embeddings -> per-class probabilities, as matmul, add and
    sigmoid tape ops."""
    return sigmoid(tape.matmul(tape.constant(embeddings), weight) + bias)


def head_asl_t(weight, bias, embeddings, positive, cfg, loss_fn=probability_asl_t):
    """The stage-two head and asymmetric loss as a chain of tape ops, with
    the signature of the fused ``losses.asl_loss_t``.  ``loss_fn`` is the
    probability-level loss: :func:`probability_asl_t` or
    :func:`composite_asl_t`."""
    probs = classifier_forward_t(weight, bias, embeddings)
    return loss_fn(probs, np.asarray(positive).astype(np.int64), cfg)


def naive_jaccard(a, b) -> float:
    inter = sum(int(x) & int(y) for x, y in zip(a, b))
    union = sum(int(x) | int(y) for x, y in zip(a, b))
    return inter / union if union else 0.0


def naive_cosine(a, b) -> float:
    inter = sum(int(x) & int(y) for x, y in zip(a, b))
    na = sum(int(x) for x in a)
    nb = sum(int(y) for y in b)
    if na == 0 or nb == 0:
        return 0.0
    return inter / math.sqrt(na * nb)


def naive_pcl(batch_mixtures, labels, tau, alpha, measure="jaccard") -> float:
    """Direct transcription of the overlap-weighted contrastive sum.

    For each anchor i with positive set A(i) = {j != i : D(y_i, y_j) >= alpha},
    adds -(1/|A(i)|) * sum_{j in A(i)} D_ij * log softmax_j(Sim_i / tau)
    where the softmax runs over all l != i.  Anchors with empty A(i)
    contribute zero.
    """
    overlap = naive_jaccard if measure == "jaccard" else naive_cosine
    n = len(batch_mixtures)
    sim = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                sim[i][j] = naive_correlation(batch_mixtures[i], batch_mixtures[j])
    total = 0.0
    for i in range(n):
        positives = []
        for j in range(n):
            if j == i:
                continue
            d = overlap(labels[i], labels[j])
            if d >= alpha:
                positives.append((j, d))
        if not positives:
            continue
        log_denom = math.log(sum(math.exp(sim[i][l] / tau) for l in range(n) if l != i))
        inner = 0.0
        for j, d in positives:
            inner += d * (sim[i][j] / tau - log_denom)
        total += -inner / len(positives)
    return total


def naive_nll(batch_mixtures, points) -> float:
    total = 0.0
    for gmm, z in zip(batch_mixtures, points):
        total += -math.log(
            naive_mixture_density(gmm.weights, gmm.means, gmm.variances, gmm.dim, z)
        )
    return total


def naive_bce(probs, labels) -> float:
    total = 0.0
    for p_row, y_row in zip(np.atleast_2d(probs), np.atleast_2d(labels)):
        for p, y in zip(p_row, y_row):
            p = float(p)
            total += -(math.log(p) if y else math.log(1.0 - p))
    return total


def naive_asl(probs, labels, gamma_pos, gamma_neg, margin) -> float:
    total = 0.0
    for p_row, y_row in zip(np.atleast_2d(probs), np.atleast_2d(labels)):
        for p, y in zip(p_row, y_row):
            p = float(p)
            if y:
                total += -((1.0 - p) ** gamma_pos) * math.log(p)
            else:
                pm = max(p - margin, 0.0)
                total += -(pm**gamma_neg) * math.log(1.0 - pm)
    return total


def naive_average_precision(scores, truths) -> float:
    """Mean precision at the rank of each positive, stable descending order."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits = 0
    precisions = []
    for rank, idx in enumerate(order, start=1):
        if truths[idx]:
            hits += 1
            precisions.append(hits / rank)
    if not precisions:
        return float("nan")
    return math.fsum(precisions) / len(precisions)


def naive_report(scores, truths, threshold):
    """Quadratic-time metric table: map/cp/cr/cf1/op/or/of1 dict."""
    scores = np.asarray(scores, dtype=float)
    truths = np.asarray(truths, dtype=int)
    n, c = scores.shape
    aps = []
    per_precision = []
    per_recall = []
    tp_total = fp_total = fn_total = 0
    for k in range(c):
        if truths[:, k].sum() > 0:
            aps.append(naive_average_precision(list(scores[:, k]), list(truths[:, k])))
        tp = fp = fn = 0
        for i in range(n):
            pred = scores[i, k] > threshold
            if pred and truths[i, k]:
                tp += 1
            elif pred and not truths[i, k]:
                fp += 1
            elif (not pred) and truths[i, k]:
                fn += 1
        tp_total += tp
        fp_total += fp
        fn_total += fn
        per_precision.append(tp / (tp + fp) if tp + fp else 1.0)
        per_recall.append(tp / (tp + fn) if tp + fn else 1.0)
    cp = math.fsum(per_precision) / c
    cr = math.fsum(per_recall) / c
    op = tp_total / (tp_total + fp_total) if tp_total + fp_total else 1.0
    orr = tp_total / (tp_total + fn_total) if tp_total + fn_total else 1.0

    def f1(p, r):
        return (2.0 * p * r) / (p + r) if p + r else 0.0

    return {
        "map": math.fsum(aps) / len(aps) if aps else float("nan"),
        "cp": cp,
        "cr": cr,
        "cf1": f1(cp, cr),
        "op": op,
        "or": orr,
        "of1": f1(op, orr),
    }
