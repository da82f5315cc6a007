"""Experiment configuration: one frozen tree, one canonical JSON form.

Every config class of the package is defined here, with the checks its
fields must pass; the other modules only read them.  Every training
artifact embeds the canonical JSON and its SHA-256 hash, so two artifacts
with equal hashes were produced from byte-identical configurations
(including the seed).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass

from .errors import InputError
from .overlap import MEASURES


def _check_ints(what: str, *values) -> None:
    """Raise InputError unless every value is an int; a bool or a float
    with an integral value is not one."""
    for value in values:
        if type(value) is not int:
            raise InputError(f"{what} must be of type int, not {value!r}")


def _check_floats(what: str, *values) -> None:
    """Raise InputError unless every value is a finite real number; a bool,
    which JSON ``true`` and ``false`` load as, is not one, and neither is
    the NaN or infinity that JSON ``NaN`` and ``Infinity`` load as."""
    for value in values:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise InputError(f"{what} must be a number, not {value!r}")
        if not math.isfinite(value):
            raise InputError(f"{what} must be finite, not {value!r}")


@dataclass(frozen=True)
class DataConfig:
    """Recipe for the synthetic dataset: every class has marginal
    ``marginal``, and ``boost`` couples each class pair (2k, 2k+1)."""

    num_samples: int = 2000
    num_classes: int = 6
    input_dim: int = 24
    marginal: float = 0.35
    boost: float = 0.5
    noise_scale: float = 0.25
    holdout_frac: float = 0.25

    def __post_init__(self):
        _check_ints("data sizes", self.num_samples, self.num_classes, self.input_dim)
        _check_floats(
            "data fractions and scales",
            self.marginal,
            self.boost,
            self.noise_scale,
            self.holdout_frac,
        )
        if self.num_samples < 8:
            raise InputError("num_samples must be >= 8")
        if not 0.0 < self.holdout_frac < 1.0:
            raise InputError("holdout_frac must lie in (0, 1)")
        if self.noise_scale < 0.0:
            raise InputError("noise_scale must be >= 0")
        if not 0.0 < self.marginal < 1.0:
            raise InputError("marginal must lie in (0, 1)")
        if not 0.0 <= self.boost <= 1.0:
            raise InputError("boost must lie in [0, 1]")


@dataclass(frozen=True)
class ModelConfig:
    input_dim: int
    encoder_hidden: tuple[int, ...] = (128,)
    embed_dim: int = 32
    mixture_dim: int = 4
    num_classes: int = 6
    mdn_hidden: tuple[int, ...] = (128, 64)

    def __post_init__(self):
        object.__setattr__(self, "encoder_hidden", tuple(self.encoder_hidden))
        object.__setattr__(self, "mdn_hidden", tuple(self.mdn_hidden))
        dims = (
            self.input_dim,
            self.embed_dim,
            self.mixture_dim,
            self.num_classes,
            *self.encoder_hidden,
            *self.mdn_hidden,
        )
        _check_ints("model dimensions", *dims)
        if any(d < 1 for d in dims):
            raise InputError("all model dimensions must be >= 1")


@dataclass(frozen=True)
class ContrastiveLossConfig:
    """Contrastive-stage hyperparameters.

    tau: softmax temperature; alpha: overlap threshold for positive sets;
    lam: weight of the contrastive term in the total loss; measure: label
    overlap backend.
    """

    tau: float = 0.2
    alpha: float = 0.6
    lam: float = 0.3
    measure: str = "jaccard"

    def __post_init__(self):
        _check_floats("tau, alpha and lambda", self.tau, self.alpha, self.lam)
        if not self.tau > 0.0:
            raise InputError(f"tau must be positive, got {self.tau!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise InputError(f"alpha must lie in [0, 1], got {self.alpha!r}")
        if self.lam < 0.0:
            raise InputError(f"lambda must be >= 0, got {self.lam!r}")
        if self.measure not in MEASURES:
            raise InputError(f"unknown overlap measure {self.measure!r}")


@dataclass(frozen=True)
class AslConfig:
    """Asymmetric-loss hyperparameters (published defaults)."""

    gamma_pos: float = 0.0
    gamma_neg: float = 4.0
    margin: float = 0.05

    def __post_init__(self):
        _check_floats("ASL exponents and margin", self.gamma_pos, self.gamma_neg, self.margin)
        if self.gamma_pos < 0.0 or self.gamma_neg < 0.0:
            raise InputError("focusing exponents must be >= 0")
        if not 0.0 <= self.margin < 1.0:
            raise InputError(f"margin must lie in [0, 1), got {self.margin!r}")


@dataclass(frozen=True)
class OptimConfig:
    peak_lr: float = 3e-3
    batch_size: int = 64
    contrastive_epochs: int = 20
    classifier_epochs: int = 10
    warmup_frac: float = 0.3
    final_factor: float = 1e-4
    start_factor: float = 0.04

    def __post_init__(self):
        _check_ints(
            "batch size and epoch counts",
            self.batch_size,
            self.contrastive_epochs,
            self.classifier_epochs,
        )
        _check_floats(
            "learning rate and schedule fractions",
            self.peak_lr,
            self.warmup_frac,
            self.final_factor,
            self.start_factor,
        )
        if self.peak_lr <= 0.0:
            raise InputError("peak_lr must be > 0")
        if self.batch_size < 2:
            raise InputError("batch_size must be >= 2")
        if self.contrastive_epochs < 1 or self.classifier_epochs < 1:
            raise InputError("epoch counts must be >= 1")
        if not 0.0 < self.warmup_frac < 1.0:
            raise InputError("warmup_frac must lie in (0, 1)")
        if not 0.0 < self.final_factor <= 1.0 or not 0.0 < self.start_factor <= 1.0:
            raise InputError("start/final LR factors must lie in (0, 1]")


@dataclass(frozen=True)
class AugmentConfig:
    """Label-preserving vector perturbations; zero magnitudes = identity."""

    jitter_scale: float = 0.1
    dropout_prob: float = 0.1
    scale_jitter: float = 0.1

    def __post_init__(self):
        _check_floats(
            "augmentation magnitudes", self.jitter_scale, self.dropout_prob, self.scale_jitter
        )
        if self.jitter_scale < 0.0:
            raise InputError("jitter_scale must be >= 0")
        if not 0.0 <= self.dropout_prob < 1.0:
            raise InputError("dropout_prob must lie in [0, 1)")
        if not 0.0 <= self.scale_jitter < 1.0:
            raise InputError("scale_jitter must lie in [0, 1)")


@dataclass(frozen=True)
class ExperimentConfig:
    data: DataConfig = DataConfig()
    model: ModelConfig = ModelConfig(input_dim=24)
    loss: ContrastiveLossConfig = ContrastiveLossConfig()
    asl: AslConfig = AslConfig()
    optim: OptimConfig = OptimConfig()
    augment: AugmentConfig = AugmentConfig()
    seed: int = 0
    threshold: float = 0.5

    def __post_init__(self):
        _check_ints("seed", self.seed)
        _check_floats("threshold", self.threshold)
        if self.model.input_dim != self.data.input_dim:
            raise InputError("model.input_dim must equal data.input_dim")
        if self.model.num_classes != self.data.num_classes:
            raise InputError("model.num_classes must equal data.num_classes")
        if not 0.0 < self.threshold < 1.0:
            raise InputError("threshold must lie in (0, 1)")
        holdout = int(round(self.data.num_samples * self.data.holdout_frac))
        if holdout < 1 or self.data.num_samples - holdout < self.optim.batch_size:
            raise InputError("split leaves too few samples for one training batch")


def to_dict(cfg: ExperimentConfig) -> dict:
    return dataclasses.asdict(cfg)


def canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)


def config_json(cfg: ExperimentConfig) -> str:
    return canonical_json(to_dict(cfg))


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(config_json(cfg).encode("utf-8")).hexdigest()


def differing_fields(stored, cfg: ExperimentConfig) -> list[str]:
    """Dotted paths, sorted, at which a config tree loaded from JSON (a
    checkpoint's, say) differs from ``cfg``.

    Leaves are compared as JSON text, the form the hash sees: a tuple and
    the list it loads back as agree, while ``1``, ``1.0`` and ``true`` do
    not.  A key present on one side only differs.
    """
    paths: list[str] = []

    def walk(a, b, path):
        if isinstance(a, dict) and isinstance(b, dict):
            for key in sorted(a.keys() | b.keys()):
                sub = f"{path}.{key}" if path else key
                if key in a and key in b:
                    walk(a[key], b[key], sub)
                else:
                    paths.append(sub)
        elif json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True):
            paths.append(path or "config")

    walk(stored, to_dict(cfg), "")
    return paths


def from_dict(payload: dict) -> ExperimentConfig:
    stray = payload.keys() - {f.name for f in dataclasses.fields(ExperimentConfig)}
    if stray:
        raise InputError(f"malformed experiment config: unknown keys {sorted(stray)}")
    try:
        return ExperimentConfig(
            data=DataConfig(**payload["data"]),
            model=ModelConfig(**payload["model"]),
            loss=ContrastiveLossConfig(**payload["loss"]),
            asl=AslConfig(**payload["asl"]),
            optim=OptimConfig(**payload["optim"]),
            augment=AugmentConfig(**payload["augment"]),
            seed=payload["seed"],
            threshold=payload["threshold"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed experiment config: {exc}") from exc


def from_json(text: str) -> ExperimentConfig:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise InputError("config JSON must be an object")
    return from_dict(payload)


def save_config(path, cfg: ExperimentConfig) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(to_dict(cfg), sort_keys=True, indent=2) + "\n")


def load_config(path) -> ExperimentConfig:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: config is not UTF-8 text: {exc}") from exc
    return from_json(text)
