"""Reverse-mode automatic differentiation over float64 numpy arrays.

A :class:`Tensor` wraps a value array and remembers the operation that
produced it.  Calling :func:`backward` on a scalar result walks the tape
in reverse topological order and accumulates gradients into every leaf
reachable from it.  Graphs are rebuilt per step; nothing is retained
between calls.

A pass is checked once, at its end: if the loss or the gradient of any
reachable leaf is non-finite, :func:`backward` raises
:class:`~mixcon.errors.NumericError`, after a second, checked pass that
finds the op whose contribution went non-finite first.  A non-finite
contribution that never reaches a leaf (for example one that ``where``
masks out) is not an error: nothing downstream consumes it.

Only the operations needed by the losses and the model are provided.
All arithmetic follows numpy broadcasting.  An op's VJP may return a
parent's gradient at the op's output shape; the reverse pass sums it
back over the broadcast axes, so every gradient matches its tensor's
shape.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import InputError, NumericError

Array = np.ndarray

# Maps the output gradient to one gradient per parent (the op's VJP).
_BackwardFn = Callable[[Array], tuple]


class Tensor:
    """Node in the differentiation graph."""

    __slots__ = ("value", "grad", "requires_grad", "op", "_parents", "_backward")

    def __init__(
        self,
        value,
        requires_grad: bool = False,
        *,
        op: str = "leaf",
        parents: tuple["Tensor", ...] = (),
        backward_fn: _BackwardFn | None = None,
    ):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: Array | None = None
        self.requires_grad = requires_grad
        self.op = op
        self._parents = parents
        self._backward = backward_fn

    def __repr__(self) -> str:
        return f"Tensor(op={self.op!r}, shape={self.value.shape})"

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)


def constant(value) -> Tensor:
    """Wrap a value with gradient tracking disabled."""
    return Tensor(value, requires_grad=False, op="const")


def leaf(value) -> Tensor:
    """Wrap a value as a trainable leaf."""
    return Tensor(value, requires_grad=True, op="leaf")


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else constant(x)


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum ``grad`` over the axes numpy broadcast to reach ``grad.shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def node(op: str, value, parents: tuple[Tensor, ...], backward_fn: _BackwardFn) -> Tensor:
    """Record one operation on the tape; every op here and any custom op
    elsewhere is built with it.

    ``op`` names the operation in numeric-error messages.  ``backward_fn``
    maps the gradient of ``value`` to a tuple with one entry per parent,
    in order: that parent's gradient, an array (a numpy scalar counts)
    shaped like the parent's value, or like ``value`` where the op
    broadcast the parent.  Every op returns a gradient for every parent,
    and the reverse pass alone routes, sums and checks these entries:
    :func:`backward` skips the entry of every parent that needs no
    gradient, sums one shaped unlike its parent back over the axes numpy
    broadcast, and raises :class:`NumericError` naming ``op`` for a
    non-finite one that reaches a leaf.  ``backward_fn`` must be a pure
    function of the gradient it is given, which it must not modify: a
    failed pass is repeated to find that op.  When no parent needs a
    gradient the result is a constant and ``backward_fn`` is dropped.
    """
    needs = any(p.requires_grad for p in parents)
    return Tensor(
        value,
        requires_grad=needs,
        op=op,
        parents=parents if needs else (),
        backward_fn=backward_fn if needs else None,
    )


def sigmoid_array(x: Array) -> Array:
    """The logistic function of an array, split by sign so that neither
    branch exponentiates a large positive value.  Every sigmoid in the
    package is this one formula, so the training head and inference give
    the same bytes."""
    t = np.exp(-np.abs(x))
    denom = 1.0 + t
    return np.where(x >= 0, 1.0 / denom, t / denom)


# -- elementwise binary ops ---------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return node("add", a.value + b.value, (a, b), lambda g: (g, g))


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.value - b.value
    return node("sub", out, (a, b), lambda g: (g, -g))


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.value * b.value
    return node("mul", out, (a, b), lambda g: (g * b.value, g * a.value))


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.value / b.value
    return node("div", out, (a, b), lambda g: (g / b.value, -g * a.value / (b.value * b.value)))


# -- elementwise unary ops ----------------------------------------------


def neg(a) -> Tensor:
    a = _as_tensor(a)
    return node("neg", -a.value, (a,), lambda g: (-g,))


def exp(a) -> Tensor:
    a = _as_tensor(a)
    out = np.exp(a.value)
    return node("exp", out, (a,), lambda g: (g * out,))


def log(a) -> Tensor:
    a = _as_tensor(a)
    return node("log", np.log(a.value), (a,), lambda g: (g / a.value,))


def sqrt(a) -> Tensor:
    a = _as_tensor(a)
    out = np.sqrt(a.value)
    return node("sqrt", out, (a,), lambda g: (g * 0.5 / out,))


def tanh(a) -> Tensor:
    a = _as_tensor(a)
    out = np.tanh(a.value)
    return node("tanh", out, (a,), lambda g: (g * (1.0 - out * out),))


def elu(a) -> Tensor:
    a = _as_tensor(a)
    mask = a.value > 0
    out = np.where(mask, a.value, np.expm1(np.minimum(a.value, 0.0)))

    def bw(g):
        return (g * np.where(mask, 1.0, np.exp(np.minimum(a.value, 0.0))),)

    return node("elu", out, (a,), bw)


def where(condition, a, b) -> Tensor:
    """Elementwise select with a constant boolean mask.

    The mask is data, not a differentiable input; gradients flow only
    into the branch each element selected.
    """
    cond = np.asarray(condition, dtype=bool)
    a, b = _as_tensor(a), _as_tensor(b)
    out = np.where(cond, a.value, b.value)
    return node("where", out, (a, b), lambda g: (np.where(cond, g, 0.0), np.where(cond, 0.0, g)))


# -- shape ops -----------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    out = a.value.reshape(shape)
    return node("reshape", out, (a,), lambda g: (g.reshape(a.value.shape),))


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    """Sum over an axis, a tuple of axes, or everything (axis=None)."""
    a = _as_tensor(a)
    out = a.value.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.value.shape).copy(),)

    return node("sum", out, (a,), bw)


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise InputError("matmul expects two rank-2 arrays")
    out = a.value @ b.value
    return node("matmul", out, (a, b), lambda g: (g @ b.value.T, a.value.T @ g))


# -- composed numerically stable reductions ------------------------------


def logsumexp(a: Tensor, axis: int) -> Tensor:
    """log(sum(exp(a))) along ``axis`` with a detached max shift; the
    reduced axis is kept with size 1."""
    shift = np.max(a.value, axis=axis, keepdims=True)
    summed = tsum(exp(a - constant(shift)), axis=axis, keepdims=True)
    return log(summed) + constant(shift)


def softmax(a: Tensor, axis: int) -> Tensor:
    """Softmax along ``axis``; gradient follows from the composition."""
    shift = np.max(a.value, axis=axis, keepdims=True)
    e = exp(a - constant(shift))
    return e / tsum(e, axis=axis, keepdims=True)


# -- reverse pass ---------------------------------------------------------


def _toposort(root: Tensor) -> list[Tensor]:
    # Tensors hash by identity, so the set holds the nodes themselves.
    order: list[Tensor] = []
    seen: set[Tensor] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for parent in node._parents:
            if parent not in seen:
                stack.append((parent, False))
    return order


def _walk(loss: Tensor, order: list[Tensor], checked: bool) -> None:
    """One reverse pass from ``loss`` over ``order``, after resetting every
    gradient in it.  A contribution shaped unlike its parent is summed over
    the broadcast axes before it is checked and added.  With ``checked``, a
    non-finite contribution raises :class:`NumericError` naming the op
    that produced it."""
    for node in order:
        node.grad = None
    loss.grad = np.ones_like(loss.value)
    for node in reversed(order):
        if node._backward is None or node.grad is None:
            continue
        contributions = node._backward(node.grad)
        for parent, contribution in zip(node._parents, contributions):
            if not parent.requires_grad:
                continue
            if contribution.shape != parent.value.shape:
                contribution = _unbroadcast(contribution, parent.value.shape)
            if checked and not np.all(np.isfinite(contribution)):
                raise NumericError(f"non-finite gradient produced by op '{node.op}'")
            if parent.grad is None:
                # No copy: gradients are never updated in place, so sharing
                # an array with a child's gradient is safe.
                parent.grad = np.asarray(contribution, dtype=np.float64)
            else:
                parent.grad = parent.grad + contribution


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into ``.grad`` of every reachable tensor.

    Gradient buffers of the reachable graph are reset first, so each call
    reports exactly one backward pass.  Raises :class:`NumericError` if the
    loss is non-finite, or if a reachable leaf's gradient is.  In the
    second case the pass is repeated with every op's contribution checked
    (the VJPs are pure functions of the output gradient, so it repeats the
    first), and the error names the first op, walking back from the loss,
    whose contribution is non-finite.  A non-finite contribution that no
    leaf receives, such as one that ``where`` masks out on its way down,
    raises nothing.
    """
    if loss.value.size != 1:
        raise InputError("backward requires a scalar loss")
    if not np.isfinite(loss.value):
        raise NumericError("loss is non-finite")
    order = _toposort(loss)
    # Non-finite gradients are raised as errors below, so numpy's own
    # warnings for the producing division are redundant.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        _walk(loss, order, checked=False)
        if all(
            np.isfinite(node.grad).all()
            for node in order
            if node._backward is None and node.grad is not None
        ):
            return
        _walk(loss, order, checked=True)
    # Every contribution was finite, so a sum of them overflowed.
    raise NumericError("non-finite gradient accumulated into a leaf")
