"""Synthetic multi-label data with correlated class pairs.

Labels are drawn class by class from one generator, with marginal m.
Class 2k is Bernoulli(m) and class 2k+1 is Bernoulli(m + boost (y_2k - m)),
so each pair (2k, 2k+1) co-occurs with probability m^2 + boost m (1 - m)
and every other pair is independent; the last class of an odd C has no
partner.  With 0 <= boost <= 1 the conditional of class 2k+1 lies in
[m (1 - boost), m + boost (1 - m)], inside [0, 1].  Features are sums of
per-class prototype vectors plus Gaussian noise, so label structure is
linearly recoverable.

All randomness flows through ``numpy.random.default_rng`` seeded by a
splitmix64 stream discipline: every consumer (prototypes, labels, noise,
class balance, the split, the initial parameters, each contrastive
batch's augmentation, per-epoch shuffles) gets its own derived seed, so
adding a consumer never shifts another's draws.  A contrastive batch
draws all of its views from one generator, so it is reproducible as a
whole from its seed, not view by view.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import AugmentConfig, DataConfig
from .errors import InputError, NumericError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Every stream id that splitmix64 derives from the experiment seed
# (documented, never reordered); no two consumers share one.  Per-item
# seeds nest under their consumer's stream: class c's balance row under
# STREAM_BALANCE, epoch e's shuffle under its shuffle stream, step t's
# views under STREAM_VIEWS, each as splitmix64(splitmix64(seed, stream), i).
STREAM_PROTOTYPES = 0
STREAM_LABELS = 1
STREAM_NOISE = 2
STREAM_BALANCE = 3
STREAM_SPLIT = 1000
STREAM_INIT = 1001
STREAM_CONTRASTIVE_SHUFFLE = 1002
STREAM_VIEWS = 1003
STREAM_CLASSIFIER_SHUFFLE = 1004


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
class ContrastiveBatch:
    """2N augmented views, rows 2i and 2i+1 from sample i, labels duplicated."""

    views: np.ndarray
    labels: np.ndarray


def _draw_labels(rng, rows: int, num_classes: int, marginal: float, boost: float) -> np.ndarray:
    labels = np.zeros((rows, num_classes), dtype=np.int64)
    for c in range(num_classes):
        p = marginal if c % 2 == 0 else marginal + boost * (labels[:, c - 1] - marginal)
        labels[:, c] = rng.random(rows) < p
    return labels


def generate_synthetic(cfg: DataConfig, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Features (N, d) and labels (N, C) drawn deterministically from cfg and seed.

    Post-processing guards: rows that come out all-zero are redrawn
    (which conditions the label law on >= 1 active class), and any class
    absent from the whole sample has one row force-set (a rare O(C/N)
    bias that keeps every class learnable).  The prototypes are drawn as
    one (C, d) block, so they do not depend on ``num_samples``.  A
    ``noise_scale`` so large that a feature overflows raises NumericError.
    """
    rng_labels = np.random.default_rng(splitmix64(seed, STREAM_LABELS))
    law = (cfg.num_classes, cfg.marginal, cfg.boost)
    labels = _draw_labels(rng_labels, cfg.num_samples, *law)
    for _ in range(1000):
        zero_rows = np.flatnonzero(labels.sum(axis=1) == 0)
        if zero_rows.size == 0:
            break
        labels[zero_rows] = _draw_labels(rng_labels, zero_rows.size, *law)
    else:
        raise InputError("could not draw nonzero label vectors; marginals too small")
    balance = splitmix64(seed, STREAM_BALANCE)
    for c in range(cfg.num_classes):
        if labels[:, c].sum() == 0:
            labels[splitmix64(balance, c) % cfg.num_samples, c] = 1
    rng_proto = np.random.default_rng(splitmix64(seed, STREAM_PROTOTYPES))
    prototypes = rng_proto.standard_normal((cfg.num_classes, cfg.input_dim))
    prototypes /= np.linalg.norm(prototypes, axis=1, keepdims=True)
    rng_noise = np.random.default_rng(splitmix64(seed, STREAM_NOISE))
    features = labels.astype(np.float64) @ prototypes
    with np.errstate(over="ignore"):
        features += cfg.noise_scale * rng_noise.standard_normal(
            (cfg.num_samples, cfg.input_dim)
        )
    if not np.all(np.isfinite(features)):
        raise NumericError(f"non-finite feature vector: noise_scale {cfg.noise_scale!r} overflows")
    return features, labels


def make_contrastive_batch(features, labels, seed: int, cfg: AugmentConfig) -> ContrastiveBatch:
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
