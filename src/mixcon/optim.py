"""Adam updates and the one-cycle learning-rate schedule.

The schedule warms up with a half-cosine over the first ``warmup_frac`` of
steps (30% by default) and decays with another half-cosine to
``peak_lr * final_factor`` (peak/10^4 by default).  Both segments interpolate
endpoint values directly, so lr(warmup_end) == peak and
lr(total) == peak * final_factor hold exactly, not just approximately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import InputError

if TYPE_CHECKING:
    from .config import OptimConfig

Params = dict[str, np.ndarray]


@dataclass
class AdamState:
    """First/second moment buffers plus the shared step counter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step_count: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def init_adam(params: Params, keys: tuple[str, ...] | None = None) -> AdamState:
    """Zeroed moments for ``keys`` (default: every parameter)."""
    names = list(params) if keys is None else list(keys)
    return AdamState(
        m={k: np.zeros_like(params[k]) for k in names},
        v={k: np.zeros_like(params[k]) for k in names},
    )


def adam_step(state: AdamState, params: Params, gradients: dict[str, np.ndarray], lr_now: float) -> None:
    """One bias-corrected Adam update, in place.

    ``gradients`` must name exactly the state's parameters, each with an
    array of its shape.  Only those move; that is how frozen stages, whose
    state covers the trainable parameters alone, keep the rest untouched.
    Iteration follows the state's key order, so update order (and
    therefore bytes) is reproducible.
    """
    if not lr_now > 0.0:
        raise InputError(f"learning rate must be positive, got {lr_now!r}")
    if gradients.keys() != state.m.keys():
        raise InputError(f"gradients for {sorted(gradients)} do not match {sorted(state.m)}")
    for name, g in gradients.items():
        if getattr(g, "shape", None) != params[name].shape:
            raise InputError(f"gradient for {name!r} is not an array of its parameter's shape")
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    for name in state.m:
        g = gradients[name]
        state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        state.v[name] = b2 * state.v[name] + (1.0 - b2) * (g * g)
        m_hat = state.m[name] / (1.0 - b1**t)
        v_hat = state.v[name] / (1.0 - b2**t)
        params[name] -= lr_now * m_hat / (np.sqrt(v_hat) + state.eps)


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

