"""Independent reference implementations used as oracles.

Everything here is written from the defining formulas with plain loops
and ``math`` calls, deliberately not sharing code with the package, so a
bug would have to be made twice to go unnoticed.  The two exceptions are
the tape oracles :func:`composite_similarity_t` and
:func:`composite_asl_t`.  They build the mixture similarity and the
asymmetric loss from elementary tape ops, so that the tape differentiates
them, as oracles for the gradients of the fused
``losses.similarity_matrix_t`` and ``losses.asl_loss_t``.
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


def _pairwise_cross(w_a, m_a, v_a, w_b, m_b, v_b, dim, shape_a, shape_b, reduce_axes):
    """Closed-form sum_k sum_l w w' integral(N N') with tensors, any broadcast layout."""
    va = tape.reshape(v_a, shape_a)
    vb = tape.reshape(v_b, shape_b)
    total_var = va + vb
    delta = tape.reshape(m_a, shape_a) - tape.reshape(m_b, shape_b)
    pair = tape.pow_const(total_var * (2.0 * np.pi), -0.5 * dim) * tape.exp(
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
    if probs.value.ndim == 1:
        probs = tape.reshape(probs, (1, probs.value.shape[0]))
    y = np.asarray(labels)
    if y.ndim == 1:
        y = y[None, :]
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
    pos_term = tape.pow_const(1.0 - p_pos, cfg.gamma_pos) * tape.log(p_pos)
    shifted = tape.relu(probs - cfg.margin)
    p_neg = tape.where(~pos_mask, shifted, tape.constant(np.zeros(y.shape)))
    neg_term = tape.pow_const(p_neg, cfg.gamma_neg) * tape.log(1.0 - p_neg)
    gated = tape.where(pos_mask, pos_term, neg_term)
    return -tape.tsum(gated)


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
