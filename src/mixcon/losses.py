"""Training losses: mixture NLL, overlap-weighted contrastive, and the
asymmetric classification loss.

Each ``*_t`` function operates on :class:`~mixcon.tape.Tensor` batches of
stacked mixture parameters and returns a scalar Tensor, so the model's
forward pass chains straight into it and ``tape.backward`` gives the
gradients.  Stage one trains on ``nll + lam * pcl``.  The asymmetric loss
takes the linear classifier head's weight and bias instead, and is the
whole of stage two's forward pass.
"""

from __future__ import annotations

import numpy as np

from . import tape
from .config import AslConfig, ContrastiveLossConfig
from .errors import InputError, NumericError
from .overlap import overlap_matrix, positive_mask
from .tape import Tensor


def _check_param_block(weights: Tensor, means: Tensor, variances: Tensor) -> tuple[int, int]:
    shape = weights.value.shape
    if len(shape) != 2 or means.value.shape != shape or variances.value.shape != shape:
        raise InputError("stacked mixture parameters must share one (B, C) shape")
    if np.any(variances.value <= 0.0):
        raise InputError("variances must be positive")
    return shape


def nll_loss_t(weights: Tensor, means: Tensor, variances: Tensor, targets: Tensor) -> Tensor:
    """Sum over the batch of -log p(z_i | mixture_i).

    Weights must be strictly positive: the log-space path differentiates
    log(pi_k), whose gradient is undefined at 0.  A softmax weight that
    underflows to 0 is a numeric failure, so this raises NumericError.
    """
    b, c = _check_param_block(weights, means, variances)
    if targets.value.ndim != 2 or targets.value.shape[0] != b:
        raise InputError("targets must be a (B, n) block matching the batch")
    if np.any(weights.value <= 0.0):
        raise NumericError("nll_loss requires strictly positive mixture weights")
    n = targets.value.shape[1]
    diff = tape.reshape(targets, (b, 1, n)) - tape.reshape(means, (b, c, 1))
    sq = tape.tsum(diff * diff, axis=2)
    log_norm = tape.log(variances * (2.0 * np.pi)) * (0.5 * n)
    component = -log_norm - sq / (variances * 2.0)
    log_post = tape.logsumexp(tape.log(weights) + component, axis=1)
    return -tape.tsum(log_post)


def similarity_matrix_t(
    weights: Tensor, means: Tensor, variances: Tensor, dim: int
) -> Tensor:
    """(B, B) correlation-coefficient similarity between all mixture pairs.

    One tape op with a hand-derived VJP.  Mixture i has weights w_ik,
    component means ``m_ik * ones(dim)`` and covariances ``v_ik * I``.
    With s = v_ik + v_jl and delta = m_ik - m_jl, the pair term is the
    closed-form integral of the product of two components,
    ``P_ijkl = (2 pi s) ** (-dim/2) exp(-dim delta^2 / (2 s))``, and the
    probability product kernel of Jebara, Kondor and Howard (2004) is
    ``X_ij = sum_kl w_ik w_jl P_ijkl``.  With the self-overlap d = diag(X),
    the result is ``S = X / sqrt(d d^T)``.  The diagonal is computed like
    any other entry and is masked by callers.

    VJP, for the output gradient G:
    ``gX = G / sqrt(d d^T)``, plus
    ``-1/(2 d_i) (sum_j G_ij S_ij + sum_j G_ji S_ji)`` on the diagonal;
    ``Gs = gX + gX^T``, since P_ijkl = P_jilk; and with
    ``K = w_ik w_jl P_ijkl``:
    ``gw_ik = sum_jl Gs_ij w_jl P_ijkl``,
    ``gm_ik = -dim sum_jl Gs_ij K delta / s``,
    ``gv_ik = (dim/2) sum_jl Gs_ij K (delta^2 / s - 1) / s``.

    Layout: the symmetry is taken over component pairs, not mixture pairs.
    Each component pair r = (k, l) with k <= l (R = C(C+1)/2 of them) is
    one (B, B) block over every mixture pair (i, j), so ``s``, ``q`` and
    ``P`` are (R, B, B) arrays indexed [r, i, j].  The blocks sum to
    ``U_ij = sum_r half_r w_ik w_jl P_ijkl`` and ``X = U + U^T``: a k < l
    block also stands for (l, k), its transpose, so ``half`` is 1 there
    and 0.5 on the k = l blocks, which the transpose would count twice.
    As L = sum_ij Gs_ij U_ij, the VJP first forms ``A = P Gs`` once, an
    (R, B, B) block with Gs broadcast over r, and from it the factors F:
    A for the weights, A q for the means and A q^2 - A / s for the
    variances (q = delta / s), the last built in place over the buffers
    of the first two.  It then reduces each block at both of its ends
    with a two-operand ``einsum``: the k end, ``half_r sum_j w_jl F_rij``,
    feeds component k of mixture i, and the l end,
    ``parity half_r sum_i w_ik F_rij``, feeds component l of mixture j,
    where parity is -1 for the means, whose delta changes sign with the
    end, and 1 otherwise.  ``np.add.at`` sums the R block ends into the
    (C, B) gradient.  No ``einsum`` takes ``optimize``, and nothing here
    calls ``matmul`` or ``dot``, so no BLAS call enters the op.
    """
    b, c = _check_param_block(weights, means, variances)
    # (C, B): row k holds component k of every mixture.
    w, m, v = weights.value.T, means.value.T, variances.value.T
    kk, ll = np.triu_indices(c)
    half = np.where(kk == ll, 0.5, 1.0)[:, None]
    w_k, w_l = w[kk] * half, w[ll]
    s = v[kk, :, None] + v[ll, None, :]
    q = (m[kk, :, None] - m[ll, None, :]) / s
    pair = np.exp((np.log(s * (2.0 * np.pi)) + q * q * s) * (-0.5 * dim))
    u = np.einsum("ri,rj,rij->ij", w_k, w_l, pair)
    x = u + u.T
    d = x.diagonal()
    root = np.sqrt(np.outer(d, d))
    sim = x / root

    def vjp(g):
        g_sim = g * sim
        gx = g / root
        gx[np.diag_indices(b)] -= 0.5 * (g_sim.sum(axis=1) + g_sim.sum(axis=0)) / d
        gs = gx + gx.T

        def both_ends(factor, parity):
            """(B, C) sum_jl w_jl factor_ijkl, from each block's k end and,
            with factor_jilk = parity * factor_ijkl, its l end."""
            out = np.zeros((c, b))
            np.add.at(out, kk, half * np.einsum("rij,rj->ri", factor, w_l))
            np.add.at(out, ll, parity * np.einsum("rij,ri->rj", factor, w_k))
            return out.T

        a = pair * gs
        aq = a * q
        gw = both_ends(a, 1.0)
        gm = both_ends(aq, -1.0) * w.T * -dim
        # a q^2 - a / s, built over the two buffers once gw and gm have read them.
        aq *= q
        a /= s
        aq -= a
        return gw, gm, both_ends(aq, 1.0) * w.T * (0.5 * dim)

    return tape.node("similarity", sim, (weights, means, variances), vjp)


def pcl_loss_t(
    weights: Tensor,
    means: Tensor,
    variances: Tensor,
    labels,
    dim: int,
    cfg: ContrastiveLossConfig,
) -> Tensor:
    """Overlap-weighted contrastive loss over a 2N-view batch.

    For each anchor i with positive set A(i) (overlap >= alpha), adds
    -(1/|A(i)|) * sum_{j in A(i)} D_ij * log softmax over l != i of
    Sim_il / tau.  Anchors with empty positive sets contribute zero.
    """
    logits = similarity_matrix_t(weights, means, variances, dim) / cfg.tau
    b = logits.value.shape[0]
    if b < 2:
        raise InputError("contrastive batches need at least 2 views")
    label_stack = np.asarray(labels)
    if label_stack.ndim != 2 or label_stack.shape[0] != b:
        raise InputError("labels must be a (2N, C) stack matching the batch")
    d = overlap_matrix(label_stack, cfg.measure)
    positive = positive_mask(d, cfg.alpha)
    counts = positive.sum(axis=1)
    coef = np.zeros((b, b))
    rows = counts > 0
    coef[rows] = -(d[rows] * positive[rows]) / counts[rows, None]

    masked = tape.where(~np.eye(b, dtype=bool), logits, tape.constant(-np.inf))
    log_denom = tape.logsumexp(masked, axis=1)
    log_softmax = logits - log_denom
    return tape.tsum(tape.constant(coef) * log_softmax)


def asl_loss_t(
    weight: Tensor, bias: Tensor, embeddings, positive, cfg: AslConfig
) -> Tensor:
    """Asymmetric binary loss (Ridnik et al., 2021) of the linear sigmoid
    head, summed over batch and classes, as one tape op with a
    hand-derived VJP whose only parents are ``weight`` and ``bias``.

    The head gives p = sigmoid(e @ weight + bias) for the (B, H)
    embeddings e, and ``positive`` is the (B, C) boolean label mask y.
    With p_m = max(p - margin, 0), the loss is
    ``-sum [y (1-p)^g+ log p + (1-y) p_m^g- log(1 - p_m)]``.
    VJP, for the output gradient G: first dL/dp, entry by entry,
    ``G (g+ (1-p)^(g+ - 1) log p - (1-p)^g+ / p)`` where y = 1, and
    ``G (-g- p_m^(g- - 1) log(1 - p_m) + p_m^g- / (1 - p_m)) [p > margin]``
    where y = 0; then ``dz = dL/dp * p * (1 - p)``, ``e^T dz`` for the
    weight and ``dz`` itself for the bias, which the reverse pass sums
    over the batch as it does for any broadcast parent.  These are the
    float operations of the matmul, add, sigmoid and loss ops this node
    stands for, in their order.  An exponent of 0 makes its factor the
    constant 1 and drops its derivative term.  At p = 1 the g+ term is
    taken as its limit, 0, which 0 < g+ < 1 would otherwise evaluate as
    0 * inf.  A probability of exactly 0 on a positive (or 1 with margin 0
    on a negative) makes the loss infinite, which the caller or backward()
    reports as a numeric error.
    """
    w, b = weight.value, bias.value
    e = np.asarray(embeddings, dtype=np.float64)
    pos = np.asarray(positive)
    if e.ndim != 2 or w.ndim != 2 or w.shape[0] != e.shape[1] or b.shape != w.shape[1:]:
        raise InputError("the head needs (B, H) embeddings, an (H, C) weight and a (C,) bias")
    if pos.dtype != bool or pos.shape != (e.shape[0], w.shape[1]):
        raise InputError("positive must be a (B, C) boolean label mask")
    p = tape.sigmoid_array(e @ w + b)
    gamma_pos, gamma_neg = float(cfg.gamma_pos), float(cfg.gamma_neg)
    # Each side is evaluated over the whole block with the other side's
    # entries pinned to safe values (p = 0.5, p_m = 0), so a masked entry
    # never takes log(0).
    p_pos = np.where(pos, p, 0.5)
    log_pos = np.log(p_pos)
    shifted = p - cfg.margin
    live = ~pos & (shifted > 0.0)
    p_m = np.where(live, shifted, 0.0)
    q_m = 1.0 - p_m
    log_neg = np.log(q_m)
    focus_pos, term_pos = 1.0, log_pos
    if gamma_pos:
        q_pos = 1.0 - p_pos
        focus_pos = np.power(q_pos, gamma_pos)
        term_pos = focus_pos * log_pos
    focus_neg = np.power(p_m, gamma_neg) if gamma_neg else 1.0
    loss = -np.where(pos, term_pos, focus_neg * log_neg).sum()

    def vjp(g):
        d_pos = -focus_pos / p_pos
        if gamma_pos:
            focus_term = gamma_pos * log_pos * np.power(q_pos, gamma_pos - 1.0)
            d_pos = np.where(q_pos > 0.0, focus_term, 0.0) + d_pos
        d_neg = focus_neg / q_m
        if gamma_neg:
            d_neg = d_neg - gamma_neg * log_neg * np.power(p_m, gamma_neg - 1.0)
        dz = g * np.where(pos, d_pos, np.where(live, d_neg, 0.0)) * p * (1.0 - p)
        return e.T @ dz, dz

    return tape.node("asl", loss, (weight, bias), vjp)
