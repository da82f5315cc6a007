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


def similarity_matrix_t(
    weights: Tensor, means: Tensor, variances: Tensor, dim: int
) -> Tensor:
    """(B, B) correlation-coefficient similarity between all mixture pairs.

    Row i, column j holds cross(i,j) / sqrt(self(i) * self(j)), where
    cross(i,j) is the closed-form integral of the product of mixtures i
    and j (the probability product kernel of Jebara, Kondor and Howard,
    2004): for component means ``mu * ones(dim)`` and covariances
    ``var * I``, each component pair contributes
    ``w w' (2 pi (var + var')) ** (-dim/2) exp(-dim (mu - mu')^2 / (2 (var + var')))``.
    The diagonal is computed like any other entry and is masked by callers.
    """
    b, c = _check_param_block(weights, means, variances)
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
