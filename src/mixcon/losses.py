"""Training losses: mixture NLL, overlap-weighted contrastive, and the
asymmetric classification loss.

Each ``*_t`` function operates on :class:`~mixcon.tape.Tensor` batches of
stacked mixture parameters (or probabilities) and returns a scalar
Tensor, so the model's forward pass chains straight into it and
``tape.backward`` / ``tape.grads_of`` give the gradients.  Stage one
trains on ``nll + lam * pcl``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tape
from .errors import InputError
from .overlap import MEASURES, overlap_matrix, positive_mask
from .tape import Tensor

SIM_BACKENDS = ("correlation",)


@dataclass(frozen=True)
class ContrastiveLossConfig:
    """Contrastive-stage hyperparameters.

    tau: softmax temperature; alpha: overlap threshold for positive sets;
    lam: weight of the contrastive term in the total loss; measure: label
    overlap backend; sim: mixture similarity backend, of which the only one
    is the closed-form correlation coefficient of ``similarity_matrix_t``.
    """

    tau: float = 0.2
    alpha: float = 0.6
    lam: float = 0.3
    measure: str = "jaccard"
    sim: str = "correlation"

    def __post_init__(self):
        if not self.tau > 0.0:
            raise InputError(f"tau must be positive, got {self.tau!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise InputError(f"alpha must lie in [0, 1], got {self.alpha!r}")
        if self.lam < 0.0:
            raise InputError(f"lambda must be >= 0, got {self.lam!r}")
        if self.measure not in MEASURES:
            raise InputError(f"unknown overlap measure {self.measure!r}")
        if self.sim not in SIM_BACKENDS:
            raise InputError(
                f"unsupported similarity backend {self.sim!r}; "
                f"only {SIM_BACKENDS[0]!r} is implemented"
            )


@dataclass(frozen=True)
class AslConfig:
    """Asymmetric-loss hyperparameters (published defaults)."""

    gamma_pos: float = 0.0
    gamma_neg: float = 4.0
    margin: float = 0.05

    def __post_init__(self):
        if self.gamma_pos < 0.0 or self.gamma_neg < 0.0:
            raise InputError("focusing exponents must be >= 0")
        if not 0.0 <= self.margin < 1.0:
            raise InputError(f"margin must lie in [0, 1), got {self.margin!r}")


# -- tensor-level losses ----------------------------------------------------


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
    log(pi_k), whose gradient is undefined at 0.  Softmax outputs always
    satisfy this.
    """
    b, c = _check_param_block(weights, means, variances)
    if targets.value.ndim != 2 or targets.value.shape[0] != b:
        raise InputError("targets must be a (B, n) block matching the batch")
    if np.any(weights.value <= 0.0):
        raise InputError("nll_loss requires strictly positive mixture weights")
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
    A parameter block that needs no gradient gets None.  Both passes
    visit each pair i <= j once: X is symmetric, and the VJP credits each
    pair's terms to both of its ends.
    """
    b, _ = _check_param_block(weights, means, variances)
    w, m, v = weights.value, means.value, variances.value
    # X is symmetric, so each pair p = (i, j) with i <= j is computed once.
    # The (P, C, C) blocks are indexed [p, k, l]: component k of mixture i
    # against component l of mixture j.
    ii, jj = np.triu_indices(b)
    s = v[ii, :, None] + v[jj, None, :]
    q = (m[ii, :, None] - m[jj, None, :]) / s
    pair = np.exp((np.log(s * (2.0 * np.pi)) + q * q * s) * (-0.5 * dim))
    x = np.empty((b, b))
    x[ii, jj] = x[jj, ii] = np.einsum("pk,pl,pkl->p", w[ii], w[jj], pair)
    d = x.diagonal()
    root = np.sqrt(np.outer(d, d))
    sim = x / root

    def vjp(g):
        g_sim = g * sim
        gx = g / root
        gx[np.diag_indices(b)] -= 0.5 * (g_sim.sum(axis=1) + g_sim.sum(axis=0)) / d
        # Gs per pair.  A diagonal pair is one term of the full sum but is
        # credited to both of its ends below, so it is halved.
        h = (gx + gx.T)[ii, jj]
        h[ii == jj] *= 0.5
        hw_i, hw_j = h[:, None] * w[ii], h[:, None] * w[jj]
        # Pairs come in row-major order, so those of one i are contiguous;
        # by_j makes those of one j contiguous.
        by_j = np.argsort(jj, kind="stable")
        starts_i = np.searchsorted(ii, np.arange(b))
        starts_j = np.searchsorted(jj[by_j], np.arange(b))

        def both_ends(factor, parity):
            """(B, C) sum_jl Gs_ij w_jl factor_ijkl over the full grid, from the
            pairs' i ends and, with factor_jilk = parity * factor_ijkl, j ends."""
            at_i = np.einsum("pl,pkl->pk", hw_j, factor)
            at_j = np.einsum("pk,pkl->pl", hw_i, factor)
            return np.add.reduceat(at_i, starts_i) + parity * np.add.reduceat(
                at_j[by_j], starts_j
            )

        gw = both_ends(pair, 1.0) if weights.requires_grad else None
        gm = both_ends(pair * q, -1.0) * w * -dim if means.requires_grad else None
        gv = None
        if variances.requires_grad:
            gv = both_ends(pair * (q * q - 1.0 / s), 1.0) * w * (0.5 * dim)
        return gw, gm, gv

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
    b, _ = _check_param_block(weights, means, variances)
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

    logits = similarity_matrix_t(weights, means, variances, dim) / cfg.tau
    masked = tape.where(~np.eye(b, dtype=bool), logits, tape.constant(-np.inf))
    log_denom = tape.logsumexp(masked, axis=1, keepdims=True)
    log_softmax = logits - log_denom
    return tape.tsum(tape.constant(coef) * log_softmax)


def asl_loss_t(probabilities: Tensor, labels, cfg: AslConfig) -> Tensor:
    """Asymmetric binary loss (Ridnik et al., 2021) summed over batch and
    classes, as one tape op with a hand-derived VJP.

    With p_m = max(p - margin, 0), the loss is
    ``-sum [y (1-p)^g+ log p + (1-y) p_m^g- log(1 - p_m)]``.
    VJP, for the output gradient G, entry by entry:
    ``G (g+ (1-p)^(g+ - 1) log p - (1-p)^g+ / p)`` where y = 1, and
    ``G (-g- p_m^(g- - 1) log(1 - p_m) + p_m^g- / (1 - p_m)) [p > margin]``
    where y = 0.  An exponent of 0 makes its factor the constant 1 and
    drops its derivative term.  A 1-D block is one row.  A probability of
    exactly 0 on a positive (or 1 with margin 0 on a negative) makes the
    loss infinite, which the caller or backward() reports as a numeric
    error.
    """
    p = probabilities.value
    if p.ndim == 1:
        p = p[None, :]
    y = np.asarray(labels)
    if y.ndim == 1:
        y = y[None, :]
    if y.shape != p.shape:
        raise InputError("labels must match the probability block shape")
    if not ((y == 0) | (y == 1)).all():
        raise InputError("label entries must be 0 or 1")
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise InputError("probabilities must lie in [0, 1]")
    gamma_pos, gamma_neg = float(cfg.gamma_pos), float(cfg.gamma_neg)
    pos = y == 1
    # Each side is evaluated over the whole block with the other side's
    # entries pinned to safe values (p = 0.5, p_m = 0), so a masked entry
    # never takes log(0).
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
            d_pos = gamma_pos * log_pos * np.power(q_pos, gamma_pos - 1.0) + d_pos
        d_neg = focus_neg / q_m
        if gamma_neg:
            d_neg = d_neg - gamma_neg * log_neg * np.power(p_m, gamma_neg - 1.0)
        grad = np.where(pos, d_pos, np.where(live, d_neg, 0.0))
        return (g * grad.reshape(probabilities.value.shape),)

    return tape.node("asl", loss, (probabilities,), vjp)
