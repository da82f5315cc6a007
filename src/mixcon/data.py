"""Synthetic multi-label data with controllable pairwise co-occurrence.

Labels are drawn class by class: class c is sampled from a conditional
probability that is linear in the already-drawn classes, with
coefficients solved from the target covariance system.  In expectation
this reproduces the requested marginals and pairwise frequencies as long
as the linear conditionals stay inside [0, 1] (they are clipped
otherwise, which biases extreme configurations; the shipped defaults
stay interior).  Features are sums of per-class prototype vectors plus
Gaussian noise, so label structure is linearly recoverable.

All randomness flows through ``numpy.random.default_rng`` seeded by a
splitmix64 stream discipline: every consumer (prototypes, labels, noise,
each contrastive batch's augmentation, per-epoch shuffles) gets its own
derived seed, so adding a consumer never shifts another's draws.  A
contrastive batch draws all of its views from one generator, so it is
reproducible as a whole from its seed, not view by view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import InputError, NumericError

if TYPE_CHECKING:
    from .config import DataConfig

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Stream indices for derived seeds (documented, never reordered).
STREAM_PROTOTYPES = 0
STREAM_LABELS = 1
STREAM_NOISE = 2
STREAM_BALANCE = 3


def splitmix64(seed: int, stream: int) -> int:
    """Derive an independent 64-bit seed for ``stream`` from ``seed``."""
    x = (int(seed) + _GOLDEN * (int(stream) + 1)) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


@dataclass(frozen=True)
class AugmentConfig:
    """Label-preserving vector perturbations; zero magnitudes = identity."""

    jitter_scale: float = 0.1
    dropout_prob: float = 0.1
    scale_jitter: float = 0.1

    def __post_init__(self):
        if self.jitter_scale < 0.0:
            raise InputError("jitter_scale must be >= 0")
        if not 0.0 <= self.dropout_prob < 1.0:
            raise InputError("dropout_prob must lie in [0, 1)")
        if not 0.0 <= self.scale_jitter < 1.0:
            raise InputError("scale_jitter must lie in [0, 1)")


@dataclass(frozen=True)
class ContrastiveBatch:
    """2N augmented views, rows 2i and 2i+1 from sample i, labels duplicated."""

    views: np.ndarray
    labels: np.ndarray


def conditional_coefficients(matrix: np.ndarray) -> list[tuple[np.ndarray, float]]:
    """Per-class (beta, marginal) of the sequential linear conditional sampler.

    Class c is drawn with probability m_c + beta_c . (y_prev - m_prev),
    where beta_c solves the leading covariance block against the target
    cross-covariances (least squares, tolerant of degenerate classes).
    """
    marginals = np.diag(matrix)
    cov = matrix - np.outer(marginals, marginals)
    np.fill_diagonal(cov, marginals * (1.0 - marginals))
    out = []
    for c in range(matrix.shape[0]):
        if c == 0:
            out.append((np.zeros(0), float(marginals[0])))
            continue
        beta, *_ = np.linalg.lstsq(cov[:c, :c], cov[:c, c], rcond=None)
        out.append((beta, float(marginals[c])))
    return out


def _draw_labels(rng, coeffs, rows: int, num_classes: int) -> np.ndarray:
    labels = np.zeros((rows, num_classes), dtype=np.int64)
    marginals = np.array([m for _, m in coeffs])
    for c, (beta, m_c) in enumerate(coeffs):
        if c == 0:
            p = np.full(rows, m_c)
        else:
            centered = labels[:, :c] - marginals[:c]
            p = np.clip(m_c + centered @ beta, 0.0, 1.0)
        labels[:, c] = rng.random(rows) < p
    return labels


def generate_synthetic(cfg: DataConfig, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Features (N, d) and labels (N, C) drawn deterministically from cfg and seed.

    Post-processing guards: rows that come out all-zero are redrawn
    (which conditions the label law on >= 1 active class), and any class
    absent from the whole sample has one row force-set (a rare O(C/N)
    bias that keeps every class learnable).  The prototypes are drawn as
    one (C, d) block, so they do not depend on ``num_samples``.
    """
    matrix = correlated_cooccurrence(cfg.num_classes, cfg.marginal, cfg.boost)
    rng_labels = np.random.default_rng(splitmix64(seed, STREAM_LABELS))
    coeffs = conditional_coefficients(matrix)
    labels = _draw_labels(rng_labels, coeffs, cfg.num_samples, cfg.num_classes)
    for _ in range(1000):
        zero_rows = np.flatnonzero(labels.sum(axis=1) == 0)
        if zero_rows.size == 0:
            break
        labels[zero_rows] = _draw_labels(rng_labels, coeffs, zero_rows.size, cfg.num_classes)
    else:
        raise InputError("could not draw nonzero label vectors; marginals too small")
    for c in range(cfg.num_classes):
        if labels[:, c].sum() == 0:
            row = splitmix64(seed, STREAM_BALANCE + 10 * c) % cfg.num_samples
            labels[row, c] = 1
    rng_proto = np.random.default_rng(splitmix64(seed, STREAM_PROTOTYPES))
    prototypes = rng_proto.standard_normal((cfg.num_classes, cfg.input_dim))
    prototypes /= np.linalg.norm(prototypes, axis=1, keepdims=True)
    rng_noise = np.random.default_rng(splitmix64(seed, STREAM_NOISE))
    features = labels.astype(np.float64) @ prototypes
    features += cfg.noise_scale * rng_noise.standard_normal(
        (cfg.num_samples, cfg.input_dim)
    )
    return features, labels


def correlated_cooccurrence(num_classes: int, marginal: float = 0.35, boost: float = 0.5) -> np.ndarray:
    """Feasible co-occurrence matrix with correlated consecutive pairs.

    Classes 2k and 2k+1 co-occur more often than independence by the
    ``boost`` interpolation toward the comonotone upper bound; all other
    pairs are independent.
    """
    if not 0.0 < marginal < 1.0:
        raise InputError("marginal must lie in (0, 1)")
    if not 0.0 <= boost <= 1.0:
        raise InputError("boost must lie in [0, 1]")
    m = np.full((num_classes, num_classes), marginal * marginal)
    np.fill_diagonal(m, marginal)
    for k in range(0, num_classes - 1, 2):
        boosted = marginal * marginal + boost * (marginal - marginal * marginal)
        m[k, k + 1] = m[k + 1, k] = boosted
    return m


def make_contrastive_batch(
    features, labels, seed: int, cfg: AugmentConfig = AugmentConfig()
) -> ContrastiveBatch:
    """Two augmented views per sample, labels duplicated.

    Each view adds Gaussian jitter, zeroes a random coordinate subset and
    scales the row by a factor in [1 - scale_jitter, 1 + scale_jitter].
    One generator seeded with ``seed`` draws the jitter, the keep mask and
    the scale column for all 2N views, in that order whatever the
    magnitudes, so disabling one knob never shifts the others' randomness.
    """
    feats = np.asarray(features, dtype=np.float64)
    labs = np.asarray(labels)
    if feats.ndim != 2 or feats.shape[0] < 1:
        raise InputError("need at least one sample")
    if labs.shape[0] != feats.shape[0]:
        raise InputError("features and labels must align")
    if not np.all(np.isfinite(feats)):
        raise NumericError("non-finite feature vector")
    views = np.repeat(feats, 2, axis=0)
    rng = np.random.default_rng(seed)
    views += cfg.jitter_scale * rng.standard_normal(views.shape)
    views *= rng.random(views.shape) >= cfg.dropout_prob
    views *= 1.0 + cfg.scale_jitter * rng.uniform(-1.0, 1.0, (len(views), 1))
    return ContrastiveBatch(views=views, labels=np.repeat(labs, 2, axis=0))
