"""Encoder MLP, mixture-density head, linear classifier, and checkpoints.

Parameters live in a flat ``dict[str, ndarray]`` keyed by dotted names
(``enc.0.w``, ``mdn.pi.b``, ``cls.w`` ...) in a fixed insertion order.
Forward passes run on the gradient tape; thin array wrappers over the
encoder and classifier serve inference-style calls.

The mixture head emits, for each input, C mixture weights (softmax), C
scalar component means (raw linear), C variances through ELU(raw) + 2 so
the variance floor of 1 is approached smoothly but never reached, and an
n-dimensional projection point used as the density's evaluation target.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import tape
from .errors import InputError, NumericError
from .tape import Tensor

CHECKPOINT_MAGIC = b"MIXCON1"
NORM_GUARD = 1e-12

Params = dict[str, np.ndarray]


@dataclass(frozen=True)
class ModelConfig:
    input_dim: int
    encoder_hidden: tuple[int, ...] = (128,)
    embed_dim: int = 32
    mixture_dim: int = 4
    num_classes: int = 6
    mdn_hidden: tuple[int, ...] = (128, 64)

    def __post_init__(self):
        object.__setattr__(self, "encoder_hidden", tuple(int(h) for h in self.encoder_hidden))
        object.__setattr__(self, "mdn_hidden", tuple(int(h) for h in self.mdn_hidden))
        dims = (
            self.input_dim,
            self.embed_dim,
            self.mixture_dim,
            self.num_classes,
            *self.encoder_hidden,
            *self.mdn_hidden,
        )
        if any(int(d) < 1 for d in dims):
            raise InputError("all model dimensions must be >= 1")


def _layer_sizes(cfg: ModelConfig) -> list[tuple[str, int, int]]:
    """(name, fan_in, fan_out) for every linear layer, in parameter order."""
    layers = []
    prev = cfg.input_dim
    for i, width in enumerate(cfg.encoder_hidden):
        layers.append((f"enc.{i}", prev, width))
        prev = width
    layers.append(("enc.out", prev, cfg.embed_dim))
    prev = cfg.embed_dim
    for i, width in enumerate(cfg.mdn_hidden):
        layers.append((f"mdn.{i}", prev, width))
        prev = width
    for head in ("pi", "mu", "var"):
        layers.append((f"mdn.{head}", prev, cfg.num_classes))
    layers.append(("mdn.z", prev, cfg.mixture_dim))
    layers.append(("cls", cfg.embed_dim, cfg.num_classes))
    return layers


def init_params(cfg: ModelConfig, seed: int) -> Params:
    """Deterministic initialization.

    Every layer draws uniform weights and biases in [-b, b] with
    b = 1/sqrt(fan_in), except the variance head, whose weights and bias
    are set to the constant 1.0 (and consume no random draws).
    """
    rng = np.random.default_rng(seed)
    params: Params = {}
    for name, fan_in, fan_out in _layer_sizes(cfg):
        if name == "mdn.var":
            params[f"{name}.w"] = np.ones((fan_in, fan_out))
            params[f"{name}.b"] = np.ones(fan_out)
            continue
        bound = 1.0 / np.sqrt(fan_in)
        params[f"{name}.w"] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        params[f"{name}.b"] = rng.uniform(-bound, bound, size=fan_out)
    return params


def parameter_count(cfg: ModelConfig) -> int:
    """Analytic count of trainable scalars: sum of (fan_in + 1) * fan_out."""
    return sum((fan_in + 1) * fan_out for _, fan_in, fan_out in _layer_sizes(cfg))


def params_to_tensors(params: Params, trainable_prefixes: tuple[str, ...] = ("",)) -> dict[str, Tensor]:
    """Wrap parameter arrays as tape leaves.

    Only names starting with one of ``trainable_prefixes`` require
    gradients; the rest enter the graph as constants.
    """
    out = {}
    for name, value in params.items():
        trainable = any(name.startswith(p) for p in trainable_prefixes)
        out[name] = tape.leaf(value) if trainable else tape.constant(value)
    return out


def _affine(pt: dict[str, Tensor], name: str, x: Tensor) -> Tensor:
    return tape.matmul(x, pt[f"{name}.w"]) + pt[f"{name}.b"]


def encoder_forward_t(pt: dict[str, Tensor], x: Tensor, cfg: ModelConfig) -> Tensor:
    """(B, input_dim) -> (B, embed_dim) on the unit sphere."""
    h = x
    for i in range(len(cfg.encoder_hidden)):
        h = tape.tanh(_affine(pt, f"enc.{i}", h))
    h = _affine(pt, "enc.out", h)
    sq_norm = tape.tsum(h * h, axis=1, keepdims=True)
    if np.any(sq_norm.value < NORM_GUARD**2):
        raise NumericError("encoder produced a (near-)zero vector; cannot normalize")
    return h / tape.sqrt(sq_norm)


def mdn_forward_t(
    pt: dict[str, Tensor], h: Tensor, cfg: ModelConfig
) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """(B, embed_dim) -> stacked mixture params (B, C) x3 plus targets (B, n)."""
    t = h
    for i in range(len(cfg.mdn_hidden)):
        t = tape.tanh(_affine(pt, f"mdn.{i}", t))
    weights = tape.softmax(_affine(pt, "mdn.pi", t), axis=1)
    means = _affine(pt, "mdn.mu", t)
    variances = tape.elu(_affine(pt, "mdn.var", t)) + 2.0
    targets = _affine(pt, "mdn.z", t)
    return weights, means, variances, targets


def classifier_forward_t(pt: dict[str, Tensor], h: Tensor) -> Tensor:
    """(B, embed_dim) -> per-class probabilities in (0, 1)."""
    return tape.sigmoid(_affine(pt, "cls", h))


def _as_batch(x, dim: int, what: str) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise InputError(f"{what} must have trailing dimension {dim}")
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite {what}")
    return arr, single


def encoder_forward(params: Params, x, cfg: ModelConfig) -> np.ndarray:
    """Array-in, array-out encoder pass ((d,) -> (H,), (B, d) -> (B, H))."""
    arr, single = _as_batch(x, cfg.input_dim, "encoder input")
    pt = params_to_tensors(params, trainable_prefixes=())
    out = encoder_forward_t(pt, tape.constant(arr), cfg).value
    return out[0] if single else out


def classifier_forward(params: Params, h, cfg: ModelConfig) -> np.ndarray:
    arr, single = _as_batch(h, cfg.embed_dim, "embedding")
    pt = params_to_tensors(params, trainable_prefixes=())
    out = classifier_forward_t(pt, tape.constant(arr)).value
    return out[0] if single else out


# -- checkpoint container ------------------------------------------------------


@dataclass(frozen=True)
class Checkpoint:
    params: Params
    kind: str
    seed: int
    config: dict = field(repr=False)
    config_hash: str = ""


def save_checkpoint(
    path, params: Params, *, kind: str, seed: int, config: dict, config_hash: str
) -> None:
    """Write a byte-deterministic container: magic, JSON header, raw f64 data.

    The zip-based numpy containers stamp timestamps into their members,
    which breaks rerun-for-rerun byte identity; this format has no
    time-dependent bytes at all.
    """
    manifest = [
        {"name": name, "shape": list(np.asarray(value).shape)}
        for name, value in params.items()
    ]
    header = {
        "config": config,
        "config_hash": config_hash,
        "dtype": "<f8",
        "kind": kind,
        "seed": int(seed),
        "tensors": manifest,
        "version": 1,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + b"\n")
        fh.write(header_bytes + b"\n")
        for value in params.values():
            fh.write(np.ascontiguousarray(value, dtype="<f8").tobytes())


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        blob = fh.read()
    magic_end = blob.find(b"\n")
    if magic_end < 0 or blob[:magic_end] != CHECKPOINT_MAGIC:
        raise InputError(f"{path}: not a recognized checkpoint file")
    header_end = blob.find(b"\n", magic_end + 1)
    if header_end < 0:
        raise InputError(f"{path}: truncated checkpoint header")
    try:
        header = json.loads(blob[magic_end + 1 : header_end])
    except ValueError as exc:
        raise InputError(f"{path}: corrupt checkpoint header: {exc}") from exc
    if not isinstance(header, dict):
        raise InputError(f"{path}: checkpoint header must be a JSON object")
    if header.get("version") != 1:
        raise InputError(f"{path}: unsupported checkpoint version {header.get('version')!r}")
    try:
        manifest = [
            (str(entry["name"]), tuple(int(d) for d in entry["shape"]))
            for entry in header["tensors"]
        ]
        kind, seed = header["kind"], header["seed"]
        config, digest = header["config"], header["config_hash"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: malformed checkpoint header: {exc!r}") from exc
    params: Params = {}
    offset = header_end + 1
    for name, shape in manifest:
        nbytes = int(np.prod(shape, dtype=np.int64)) * 8 if shape else 8
        chunk = blob[offset : offset + nbytes]
        if len(chunk) != nbytes:
            raise InputError(f"{path}: truncated tensor data for {name!r}")
        params[name] = np.frombuffer(chunk, dtype="<f8").reshape(shape).copy()
        offset += nbytes
    if offset != len(blob):
        raise InputError(f"{path}: trailing bytes after tensor data")
    return Checkpoint(params=params, kind=kind, seed=seed, config=config, config_hash=digest)


def encoder_bytes(params: Params) -> bytes:
    """Concatenated encoder tensor bytes, for frozen-stage integrity checks."""
    return b"".join(
        np.ascontiguousarray(params[k], dtype="<f8").tobytes()
        for k in sorted(params)
        if k.startswith("enc.")
    )
