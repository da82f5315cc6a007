"""Binary label-vector overlap measures and positive-set construction.

The overlap value D(y_i, y_j) plays two roles in the contrastive stage:
thresholded against alpha it decides membership of the positive set
A(i) = {j != i : D >= alpha}, and it weights each surviving pair's term.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import InputError


def _as_label_array(a) -> np.ndarray:
    arr = np.asarray(a)
    if arr.ndim != 1:
        raise InputError("label vector must be one-dimensional")
    if not np.isin(arr, (0, 1)).all():
        raise InputError("label entries must be 0 or 1")
    return arr.astype(np.int64)


def _pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    a, b = _as_label_array(a), _as_label_array(b)
    if a.shape != b.shape:
        raise InputError(f"label length mismatch: {a.size} vs {b.size}")
    return a, b


def jaccard(a, b) -> float:
    """Intersection over union in dot-product form: a.b / (|a|^2 + |b|^2 - a.b).

    Both vectors all-zero is defined as 0 (no division by zero); the data
    pipeline never emits such vectors, but they are tolerated here.
    """
    a, b = _pair(a, b)
    inter = int(a @ b)
    union = int(a @ a) + int(b @ b) - inter
    return inter / union if union else 0.0


def cosine(a, b) -> float:
    """a.b / (|a| |b|), with 0 when either vector is all-zero."""
    a, b = _pair(a, b)
    na, nb = int(a @ a), int(b @ b)
    if na == 0 or nb == 0:
        return 0.0
    return int(a @ b) / float(np.sqrt(float(na) * float(nb)))


MEASURES: dict[str, Callable] = {"jaccard": jaccard, "cosine": cosine}


def overlap_matrix(labels, measure: str = "jaccard") -> np.ndarray:
    """Pairwise overlap D for a stack of label vectors, shape (m, m).

    A Gram-matrix form of the named measure; the diagonal holds the self
    value, and entry (i, j) equals ``MEASURES[measure](y_i, y_j)`` bitwise.
    """
    if measure not in MEASURES:
        raise InputError(f"unknown overlap measure {measure!r}; expected one of {sorted(MEASURES)}")
    stack = np.asarray(labels)
    if stack.ndim != 2 or stack.shape[0] < 1:
        raise InputError("labels must form a nonempty (m, C) array")
    if not np.isin(stack, (0, 1)).all():
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
