"""Adam updates and the one-cycle learning-rate schedule.

The schedule warms up with a half-cosine over the first ``warmup_frac`` of
steps (30% by default) and decays with another half-cosine to
``peak_lr * final_factor`` (peak/10^4 by default).  Both segments interpolate
endpoint values directly, so lr(warmup_end) == peak and
lr(total) == peak * final_factor hold exactly, not just approximately.

Adam (Kingma & Ba, 2015) with beta1 = 0.9, beta2 = 0.999 and eps = 1e-8
keeps its own copy of the parameters it trains in one flat buffer, so a
step updates three whole buffers in place however many arrays the model
has.
The caller's parameter dict is left as it was; read the trained values
from ``state.views``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import OptimConfig
from .errors import InputError

Params = dict[str, np.ndarray]

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """Adam over one flat float64 buffer, plus the shared step counter.

    ``views`` maps the trained parameters, in update order, to their
    values: slices of ``flat``, back to back in that order, each reshaped
    to its parameter's shape.  ``m`` and ``v`` are the first and second
    moments, laid out like ``flat``.
    """

    flat: np.ndarray
    views: dict[str, np.ndarray]
    m: np.ndarray
    v: np.ndarray
    step_count: int = 0


def init_adam(params: Params, keys: tuple[str, ...]) -> AdamState:
    """Zeroed moments, and a copy of ``params[k]`` for each of ``keys``.

    The copies go into one contiguous float64 buffer, in the order of
    ``keys``; ``params`` itself is not changed.
    """
    shapes = [np.shape(params[k]) for k in keys]
    flat = np.empty(sum(math.prod(shape) for shape in shapes))
    views = {}
    offset = 0
    for name, shape in zip(keys, shapes):
        size = math.prod(shape)
        views[name] = flat[offset : offset + size].reshape(shape)
        views[name][...] = params[name]
        offset += size
    return AdamState(flat=flat, views=views, m=np.zeros_like(flat), v=np.zeros_like(flat))


def adam_step(state: AdamState, gradients: dict[str, np.ndarray], lr_now: float) -> None:
    """One bias-corrected Adam update of the whole buffer, in place.

    ``gradients`` must name exactly the state's parameters, each with an
    array of its shape; that is how frozen stages, whose state covers the
    trainable parameters alone, keep the rest untouched.  The gradients
    are concatenated in the state's key order and every element takes the
    same operations in the same order as a per-array update would, so the
    bytes do not depend on the layout.
    """
    if not lr_now > 0.0:
        raise InputError(f"learning rate must be positive, got {lr_now!r}")
    if gradients.keys() != state.views.keys():
        raise InputError(f"gradients for {sorted(gradients)} do not match {sorted(state.views)}")
    for name, view in state.views.items():
        if getattr(gradients[name], "shape", None) != view.shape:
            raise InputError(f"gradient for {name!r} is not an array of its parameter's shape")
    state.step_count += 1
    t = state.step_count
    g = np.concatenate([gradients[name].reshape(-1) for name in state.views])
    m, v = state.m, state.v
    m *= BETA1
    m += g * (1.0 - BETA1)
    v *= BETA2
    v += g * g * (1.0 - BETA2)
    state.flat -= m / (1.0 - BETA1**t) * lr_now / (np.sqrt(v / (1.0 - BETA2**t)) + EPS)


def one_cycle_lr(step: int, total_steps: int, optim: OptimConfig) -> float:
    """Learning rate at ``step`` of a cosine warmup / cosine decay cycle.

    Peak, warmup fraction and start/final factors come from ``optim``,
    which has validated them.
    """
    if total_steps < 1:
        raise InputError("total_steps must be >= 1")
    if not 0 <= step <= total_steps:
        raise InputError(f"step {step} outside [0, {total_steps}]")
    peak_lr = optim.peak_lr
    warmup_steps = int(round(optim.warmup_frac * total_steps))
    start_lr = peak_lr * optim.start_factor
    final_lr = peak_lr * optim.final_factor
    if step <= warmup_steps:
        if warmup_steps == 0:
            return peak_lr
        w = 0.5 * (1.0 - math.cos(math.pi * step / warmup_steps))
        return start_lr * (1.0 - w) + peak_lr * w
    u = (step - warmup_steps) / (total_steps - warmup_steps)
    w = 0.5 * (1.0 + math.cos(math.pi * u))
    return final_lr * (1.0 - w) + peak_lr * w

