"""Adam updates and the one-cycle learning-rate schedule.

The schedule warms up with a half-cosine over the first ``warmup_frac`` of
steps (30% by default) and decays with another half-cosine to
``peak_lr * final_factor`` (peak/10^4 by default).  Both segments interpolate
endpoint values directly, so lr(warmup_end) == peak and
lr(total) == peak * final_factor hold exactly, not just approximately.

Adam keeps the parameters it trains in one flat buffer, so a step is a
fixed handful of whole-buffer numpy operations however many arrays the
model has.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import OptimConfig
from .errors import InputError

Params = dict[str, np.ndarray]


@dataclass
class AdamState:
    """Adam over one flat float64 buffer, plus the shared step counter.

    ``views`` maps the trained parameters, in update order, to their
    values: slices of ``flat``, back to back in that order, each reshaped
    to its parameter's shape.  :func:`init_adam` puts those views into the
    caller's parameter dict.  ``m`` and ``v`` are the first and second
    moments, laid out like ``flat``.
    """

    flat: np.ndarray
    views: dict[str, np.ndarray]
    m: np.ndarray
    v: np.ndarray
    step_count: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def init_adam(params: Params, keys: tuple[str, ...] | None = None) -> AdamState:
    """Zeroed moments for ``keys`` (default: every parameter).

    Copies those parameters into one contiguous float64 buffer and
    replaces each ``params[k]`` by its reshaped view into it, in place, so
    the parameters move with every :func:`adam_step`.  An array taken from
    ``params`` before this call is a stale copy: read the parameters from
    ``params`` (or ``state.views``) afterwards.
    """
    names = tuple(params) if keys is None else tuple(keys)
    shapes = [np.shape(params[k]) for k in names]
    flat = np.empty(sum(math.prod(shape) for shape in shapes))
    views = {}
    offset = 0
    for name, shape in zip(names, shapes):
        size = math.prod(shape)
        view = flat[offset : offset + size].reshape(shape)
        view[...] = params[name]
        params[name] = views[name] = view
        offset += size
    return AdamState(
        flat=flat,
        views=views,
        m=np.zeros_like(flat),
        v=np.zeros_like(flat),
    )


def adam_step(state: AdamState, params: Params, gradients: dict[str, np.ndarray], lr_now: float) -> None:
    """One bias-corrected Adam update of the whole buffer, in place.

    ``gradients`` must name exactly the state's parameters, each with an
    array of its shape, and each ``params[k]`` must still be the view
    :func:`init_adam` put there.  Only those move; that is how frozen
    stages, whose state covers the trainable parameters alone, keep the
    rest untouched.  The gradients are concatenated in the state's key
    order and every element takes the same operations in the same order
    as a per-array update would, so the bytes do not depend on the layout.
    """
    if not lr_now > 0.0:
        raise InputError(f"learning rate must be positive, got {lr_now!r}")
    if gradients.keys() != state.views.keys():
        raise InputError(f"gradients for {sorted(gradients)} do not match {sorted(state.views)}")
    for name, view in state.views.items():
        if params[name] is not view:
            raise InputError(f"parameter {name!r} is not the optimizer's view of it")
        if getattr(gradients[name], "shape", None) != view.shape:
            raise InputError(f"gradient for {name!r} is not an array of its parameter's shape")
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    g, work = np.empty_like(state.flat), np.empty_like(state.flat)
    np.concatenate([gradients[name].reshape(-1) for name in state.views], out=g)
    # m = b1 m + (1 - b1) g and v = b2 v + (1 - b2) g^2, into new arrays
    # kept until the next step.  A training step calls this while its tape
    # graph is alive, so they tend to land above the graph on the heap and
    # keep glibc from handing the freed graph's memory back to the kernel,
    # for the next step to fault in again.  Moments updated in place gave a
    # batch-64 sweep repeat five times the minor faults (140k against 26k).
    np.multiply(g, 1.0 - b1, out=work)
    m = state.m = state.m * b1
    m += work
    np.multiply(g, g, out=g)
    g *= 1.0 - b2
    v = state.v = state.v * b2
    v += g
    # params -= lr m_hat / (sqrt(v_hat) + eps)
    np.divide(m, 1.0 - b1**t, out=work)
    work *= lr_now
    np.divide(v, 1.0 - b2**t, out=g)
    np.sqrt(g, out=g)
    g += state.eps
    work /= g
    state.flat -= work


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

