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


def _bounded(default, interval: str):
    """A field with its default and the interval its value must lie in,
    written as the error message quotes it, e.g. ``"(0, 1]"``; ``inf`` as
    an end leaves that side unbounded.  A tuple field's interval bounds
    each of its elements."""
    return dataclasses.field(default=default, metadata={"interval": interval})


def _check_number(where: str, kind: str, value, interval: str | None) -> None:
    """Raise InputError unless ``value`` is of ``kind`` and in ``interval``.

    An int is an int, not a bool or a float with an integral value.  A
    float is a finite real number: neither a bool, which JSON ``true`` and
    ``false`` load as, nor the NaN or infinity that JSON ``NaN`` and
    ``Infinity`` load as."""
    if kind == "int" and type(value) is not int:
        raise InputError(f"{where} must be of type int, not {value!r}")
    if kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise InputError(f"{where} must be a number, not {value!r}")
        if not math.isfinite(value):
            raise InputError(f"{where} must be finite, not {value!r}")
    if interval is None:
        return
    low, high = (float(end) for end in interval[1:-1].split(","))
    above = low <= value if interval[0] == "[" else low < value
    below = value <= high if interval[-1] == "]" else value < high
    if not (above and below):
        raise InputError(f"{where} must lie in {interval}, got {value!r}")


class _Checked:
    """Base of the config classes: on construction, every ``int``,
    ``float`` and ``tuple[int, ...]`` field is checked against its
    annotation and its declared interval, and a tuple field is stored as a
    tuple."""

    def __post_init__(self):
        for f in dataclasses.fields(self):
            where = f"{type(self).__name__}.{f.name}"
            value = getattr(self, f.name)
            interval = f.metadata.get("interval")
            # This module's annotations are strings (``from __future__``).
            if f.type == "tuple[int, ...]":
                value = tuple(value)
                object.__setattr__(self, f.name, value)
                for i, item in enumerate(value):
                    _check_number(f"{where}[{i}]", "int", item, interval)
            elif f.type in ("int", "float"):
                _check_number(where, f.type, value, interval)


@dataclass(frozen=True)
class DataConfig(_Checked):
    """Recipe for the synthetic dataset: every class has marginal
    ``marginal``, and ``boost`` couples each class pair (2k, 2k+1)."""

    num_samples: int = _bounded(2000, "[8, inf)")
    num_classes: int = _bounded(6, "[1, inf)")
    input_dim: int = _bounded(24, "[1, inf)")
    marginal: float = _bounded(0.35, "(0, 1)")
    boost: float = _bounded(0.5, "[0, 1]")
    noise_scale: float = _bounded(0.25, "[0, inf)")
    holdout_frac: float = _bounded(0.25, "(0, 1)")


@dataclass(frozen=True)
class ModelConfig(_Checked):
    input_dim: int = _bounded(dataclasses.MISSING, "[1, inf)")
    encoder_hidden: tuple[int, ...] = _bounded((128,), "[1, inf)")
    embed_dim: int = _bounded(32, "[1, inf)")
    mixture_dim: int = _bounded(4, "[1, inf)")
    num_classes: int = _bounded(6, "[1, inf)")
    mdn_hidden: tuple[int, ...] = _bounded((128, 64), "[1, inf)")


@dataclass(frozen=True)
class ContrastiveLossConfig(_Checked):
    """Contrastive-stage hyperparameters.

    tau: softmax temperature; alpha: overlap threshold for positive sets;
    lam: weight of the contrastive term in the total loss; measure: label
    overlap backend.
    """

    tau: float = _bounded(0.2, "(0, inf)")
    alpha: float = _bounded(0.6, "[0, 1]")
    lam: float = _bounded(0.3, "[0, inf)")
    measure: str = "jaccard"

    def __post_init__(self):
        super().__post_init__()
        if self.measure not in MEASURES:
            raise InputError(f"unknown overlap measure {self.measure!r}")


@dataclass(frozen=True)
class AslConfig(_Checked):
    """Asymmetric-loss hyperparameters (published defaults)."""

    gamma_pos: float = _bounded(0.0, "[0, inf)")
    gamma_neg: float = _bounded(4.0, "[0, inf)")
    margin: float = _bounded(0.05, "[0, 1)")


@dataclass(frozen=True)
class OptimConfig(_Checked):
    peak_lr: float = _bounded(3e-3, "(0, inf)")
    batch_size: int = _bounded(64, "[2, inf)")
    contrastive_epochs: int = _bounded(20, "[1, inf)")
    classifier_epochs: int = _bounded(10, "[1, inf)")
    warmup_frac: float = _bounded(0.3, "(0, 1)")
    final_factor: float = _bounded(1e-4, "(0, 1]")
    start_factor: float = _bounded(0.04, "(0, 1]")


@dataclass(frozen=True)
class AugmentConfig(_Checked):
    """Label-preserving vector perturbations; zero magnitudes = identity."""

    jitter_scale: float = _bounded(0.1, "[0, inf)")
    dropout_prob: float = _bounded(0.1, "[0, 1)")
    scale_jitter: float = _bounded(0.1, "[0, 1)")


@dataclass(frozen=True)
class ExperimentConfig(_Checked):
    data: DataConfig = DataConfig()
    model: ModelConfig = ModelConfig(input_dim=24)
    loss: ContrastiveLossConfig = ContrastiveLossConfig()
    asl: AslConfig = AslConfig()
    optim: OptimConfig = OptimConfig()
    augment: AugmentConfig = AugmentConfig()
    seed: int = 0
    threshold: float = _bounded(0.5, "(0, 1)")

    def __post_init__(self):
        super().__post_init__()
        if self.model.input_dim != self.data.input_dim:
            raise InputError("model.input_dim must equal data.input_dim")
        if self.model.num_classes != self.data.num_classes:
            raise InputError("model.num_classes must equal data.num_classes")
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
    fields = dataclasses.fields(ExperimentConfig)
    stray = payload.keys() - {f.name for f in fields}
    if stray:
        raise InputError(f"malformed experiment config: unknown keys {sorted(stray)}")
    try:
        return ExperimentConfig(**{
            f.name: type(f.default)(**payload[f.name])
            if dataclasses.is_dataclass(f.default) else payload[f.name]
            for f in fields
        })
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
