"""Pairwise overlap of binary label vectors, and the positive sets built on it.

The overlap value D(y_i, y_j) plays two roles in the contrastive stage:
thresholded against alpha it decides membership of the positive set
A(i) = {j != i : D >= alpha}, and it weights each surviving pair's term.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError

MEASURES = ("jaccard", "cosine")


def overlap_matrix(labels, measure: str) -> np.ndarray:
    """Pairwise overlap D for a stack of label vectors, shape (m, m).

    With the Gram matrix G = Y Y^T, jaccard is G_ij / (G_ii + G_jj - G_ij)
    (intersection over union) and cosine is G_ij / sqrt(G_ii G_jj).  A
    zero denominator, from an all-zero label vector, gives 0; the data
    pipeline never emits such vectors, but they are tolerated here.  The
    diagonal holds the self value.
    """
    if measure not in MEASURES:
        raise InputError(f"unknown overlap measure {measure!r}; expected one of {sorted(MEASURES)}")
    stack = np.asarray(labels)
    if stack.ndim != 2 or stack.shape[0] < 1:
        raise InputError("labels must form a nonempty (m, C) array")
    if not ((stack == 0) | (stack == 1)).all():
        raise InputError("label entries must be 0 or 1")
    stack = stack.astype(np.int64)
    gram = (stack @ stack.T).astype(np.float64)
    norms = np.diag(gram).copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        if measure == "jaccard":
            denom = norms[:, None] + norms[None, :] - gram
        else:
            denom = np.sqrt(norms[:, None] * norms[None, :])
        out = np.where(denom > 0, gram / np.where(denom > 0, denom, 1.0), 0.0)
    return out


def positive_mask(overlap: np.ndarray, alpha: float) -> np.ndarray:
    """Membership of A(i) = {j != i : D_ij >= alpha}, as an (m, m) bool mask.

    Takes the overlap matrix rather than labels because the contrastive
    loss needs D again as the pair weights; row i's count is |A(i)|.
    """
    if not 0.0 <= alpha <= 1.0:
        raise InputError(f"alpha must lie in [0, 1], got {alpha!r}")
    d = np.asarray(overlap)
    if d.ndim != 2 or d.shape[0] != d.shape[1] or d.shape[0] < 2:
        raise InputError("positive sets need a square overlap matrix over at least 2 views")
    return ~np.eye(d.shape[0], dtype=bool) & (d >= alpha)


def positive_pair_count(labels, measure: str, alpha: float) -> int:
    """Total size of all positive sets, ``positive_mask(overlap_matrix(labels,
    measure), alpha).sum()``, without the (m, m) arrays.

    D_ij depends only on rows y_i and y_j, so it is taken over the distinct
    rows u (at most 2^C), with multiplicities c.  With A_uv = [D_uv >= alpha]
    the count is c^T A c - sum_u A_uu c_u: every ordered pair of rows,
    less each row paired with itself.
    """
    rows, counts = np.unique(np.asarray(labels), axis=0, return_counts=True)
    hit = overlap_matrix(rows, measure) >= alpha
    return int(counts @ hit @ counts - counts @ hit.diagonal())
