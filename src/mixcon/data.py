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
per-view augmentations, per-epoch shuffles) gets its own derived seed,
so adding a consumer never shifts another's draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError

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
class SyntheticDatasetConfig:
    num_samples: int
    num_classes: int
    input_dim: int
    cooccurrence: np.ndarray
    prototypes: np.ndarray | None = None
    noise_scale: float = 0.25
    seed: int = 0

    def __post_init__(self):
        matrix = np.asarray(self.cooccurrence, dtype=np.float64)
        object.__setattr__(self, "cooccurrence", matrix)
        if self.num_samples < 1 or self.num_classes < 1 or self.input_dim < 1:
            raise InputError("num_samples, num_classes and input_dim must be >= 1")
        c = self.num_classes
        if matrix.shape != (c, c):
            raise InputError(f"cooccurrence must be ({c}, {c})")
        if not np.all(np.isfinite(matrix)):
            raise NumericError("non-finite co-occurrence entries")
        if np.any(matrix < 0.0) or np.any(matrix > 1.0):
            raise InputError("co-occurrence entries must lie in [0, 1]")
        if not np.array_equal(matrix, matrix.T):
            raise InputError("co-occurrence matrix must be symmetric")
        marginals = np.diag(matrix)
        for a in range(c):
            for b in range(a + 1, c):
                if matrix[a, b] > min(marginals[a], marginals[b]) + 1e-12:
                    raise InputError(
                        f"pair probability ({a},{b}) exceeds a marginal: infeasible"
                    )
                if matrix[a, b] < max(0.0, marginals[a] + marginals[b] - 1.0) - 1e-12:
                    raise InputError(
                        f"pair probability ({a},{b}) below the feasible lower bound"
                    )
        if self.noise_scale < 0.0:
            raise InputError("noise_scale must be >= 0")
        if self.prototypes is not None:
            protos = np.asarray(self.prototypes, dtype=np.float64)
            if protos.shape != (c, self.input_dim):
                raise InputError(f"prototypes must be ({c}, {self.input_dim})")
            object.__setattr__(self, "prototypes", protos)


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


def generate_synthetic(cfg: SyntheticDatasetConfig) -> tuple[np.ndarray, np.ndarray]:
    """Features (N, d) and labels (N, C) drawn deterministically from cfg.

    Post-processing guards: rows that come out all-zero are redrawn
    (which conditions the label law on >= 1 active class), and any
    positive-marginal class absent from the whole sample has one row
    force-set (a rare O(C/N) bias that keeps every class learnable).
    """
    rng_labels = np.random.default_rng(splitmix64(cfg.seed, STREAM_LABELS))
    coeffs = conditional_coefficients(cfg.cooccurrence)
    labels = _draw_labels(rng_labels, coeffs, cfg.num_samples, cfg.num_classes)
    for _ in range(1000):
        zero_rows = np.flatnonzero(labels.sum(axis=1) == 0)
        if zero_rows.size == 0:
            break
        labels[zero_rows] = _draw_labels(rng_labels, coeffs, zero_rows.size, cfg.num_classes)
    else:
        raise InputError("could not draw nonzero label vectors; marginals too small")
    marginals = np.diag(cfg.cooccurrence)
    for c in range(cfg.num_classes):
        if marginals[c] > 0.0 and labels[:, c].sum() == 0:
            row = splitmix64(cfg.seed, STREAM_BALANCE + 10 * c) % cfg.num_samples
            labels[row, c] = 1
    if cfg.prototypes is not None:
        prototypes = cfg.prototypes
    else:
        rng_proto = np.random.default_rng(splitmix64(cfg.seed, STREAM_PROTOTYPES))
        prototypes = rng_proto.standard_normal((cfg.num_classes, cfg.input_dim))
        prototypes /= np.linalg.norm(prototypes, axis=1, keepdims=True)
    rng_noise = np.random.default_rng(splitmix64(cfg.seed, STREAM_NOISE))
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


def augment(x, seed: int, cfg: AugmentConfig = AugmentConfig()) -> np.ndarray:
    """One stochastic label-preserving view of a feature vector.

    Composition: add Gaussian jitter, zero a random coordinate subset,
    scale by a factor in [1 - scale_jitter, 1 + scale_jitter].  The three
    draws are always consumed in this order regardless of magnitudes, so
    disabling one knob never shifts the others' randomness.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise InputError("augment expects a single feature vector")
    if not np.all(np.isfinite(arr)):
        raise NumericError("non-finite feature vector")
    rng = np.random.default_rng(seed)
    jitter = cfg.jitter_scale * rng.standard_normal(arr.size)
    keep = rng.random(arr.size) >= cfg.dropout_prob
    scale = 1.0 + cfg.scale_jitter * rng.uniform(-1.0, 1.0)
    return scale * (keep * (arr + jitter))


def make_contrastive_batch(
    features, labels, seed: int, cfg: AugmentConfig = AugmentConfig()
) -> ContrastiveBatch:
    """Two independently augmented views per sample, labels duplicated.

    View 2i uses the derived seed for stream 2i, view 2i+1 the next one,
    so any view's augmentation is reproducible in isolation.
    """
    feats = np.asarray(features, dtype=np.float64)
    labs = np.asarray(labels)
    if feats.ndim != 2 or feats.shape[0] < 1:
        raise InputError("need at least one sample")
    if labs.shape[0] != feats.shape[0]:
        raise InputError("features and labels must align")
    n = feats.shape[0]
    views = np.empty((2 * n, feats.shape[1]))
    for i in range(n):
        views[2 * i] = augment(feats[i], splitmix64(seed, 2 * i), cfg)
        views[2 * i + 1] = augment(feats[i], splitmix64(seed, 2 * i + 1), cfg)
    return ContrastiveBatch(views=views, labels=np.repeat(labs, 2, axis=0))

