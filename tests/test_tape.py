"""Differentiation engine checks against central finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixcon import tape
from mixcon.errors import InputError, NumericError

from reference import grads_of, pow_const, relu, sigmoid


def central_diff(fn, arrays, step=1e-6):
    """Numeric gradient of a scalar-valued fn of a list of arrays."""
    grads = []
    for target in range(len(arrays)):
        g = np.zeros_like(arrays[target])
        flat = g.ravel()
        for idx in range(flat.size):
            bumped = [a.copy() for a in arrays]
            bumped[target].ravel()[idx] += step
            hi = fn([tape.constant(a) for a in bumped]).value.item()
            bumped[target].ravel()[idx] -= 2 * step
            lo = fn([tape.constant(a) for a in bumped]).value.item()
            flat[idx] = (hi - lo) / (2 * step)
        grads.append(g)
    return grads


def analytic(fn, arrays):
    leaves = [tape.leaf(a) for a in arrays]
    loss = fn(leaves)
    return grads_of(loss, leaves)


def assert_matches_fd(fn, arrays, tol=5e-6):
    num = central_diff(fn, arrays)
    ana = analytic(fn, arrays)
    for a, n in zip(ana, num):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
        assert np.max(np.abs(a - n) / denom) < tol


RNG = np.random.default_rng(7)


@pytest.mark.parametrize(
    "build",
    [
        lambda ts: tape.tsum(ts[0] + ts[1]),
        lambda ts: tape.tsum(ts[0] - ts[1]),
        lambda ts: tape.tsum(ts[0] * ts[1]),
        lambda ts: tape.tsum(ts[0] / (ts[1] * ts[1] + 2.0)),
        lambda ts: tape.tsum(-ts[0] + tape.exp(ts[1] * 0.3)),
        lambda ts: tape.tsum(tape.tanh(ts[0]) * sigmoid(ts[1])),
        lambda ts: tape.tsum(tape.log(ts[0] * ts[0] + 1.5)),
        lambda ts: tape.tsum(tape.sqrt(ts[0] * ts[0] + 2.0) * ts[1]),
        lambda ts: tape.tsum(tape.elu(ts[0] * 3.0) + relu(ts[1] - 0.2)),
        lambda ts: tape.tsum(pow_const(ts[0] * ts[0] + 1.0, -1.5)),
    ],
)
def test_elementwise_ops_match_finite_differences(build):
    arrays = [RNG.normal(size=(3, 4)), RNG.normal(size=(3, 4))]
    assert_matches_fd(build, arrays)


def test_broadcast_gradients_sum_over_expanded_axes():
    def fn(ts):
        return tape.tsum(ts[0] * ts[1])  # (3,4) * (4,)

    assert_matches_fd(fn, [RNG.normal(size=(3, 4)), RNG.normal(size=4)])
    x = np.ones((3, 4))
    b = np.zeros(4)
    leaves = [tape.leaf(x), tape.leaf(b)]
    loss = tape.tsum(leaves[0] + leaves[1])
    ga, gb = grads_of(loss, leaves)
    assert ga.shape == (3, 4) and gb.shape == (4,)
    np.testing.assert_array_equal(gb, np.full(4, 3.0))


def test_matmul_matches_finite_differences():
    def fn(ts):
        return tape.tsum(tape.tanh(tape.matmul(ts[0], ts[1])))

    assert_matches_fd(fn, [RNG.normal(size=(3, 4)), RNG.normal(size=(4, 2))])
    with pytest.raises(InputError):
        tape.matmul(tape.constant(np.ones(3)), tape.constant(np.ones((3, 2))))


def test_sum_axis_and_reshape():
    def fn(ts):
        s = tape.tsum(ts[0], axis=1, keepdims=True)
        return tape.tsum(tape.reshape(s * s, (3,)))

    assert_matches_fd(fn, [RNG.normal(size=(3, 2))])


def test_reused_node_accumulates_both_paths():
    x = tape.leaf(np.array([1.5, -0.5]))
    loss = tape.tsum(x * x + x)
    (g,) = grads_of(loss, [x])
    np.testing.assert_allclose(g, 2 * x.value + 1, rtol=0, atol=0)


def test_quadratic_gradient_is_exact():
    v = RNG.normal(size=5)
    x = tape.leaf(v)
    (g,) = grads_of(tape.tsum(x * x) * 0.5, [x])
    np.testing.assert_array_equal(g, v)


def test_constant_branch_gets_no_gradient():
    x = tape.leaf(np.ones(3))
    c = tape.constant(np.ones(3))
    loss = tape.tsum(x * c)
    tape.backward(loss)
    assert c.grad is None and x.grad is not None


def test_where_routes_gradient_by_mask():
    mask = np.array([True, False, True])

    def fn(ts):
        return tape.tsum(tape.where(mask, ts[0] * 2.0, ts[1] * ts[1]))

    assert_matches_fd(fn, [RNG.normal(size=3), RNG.normal(size=3) + 2.0])


def test_pow_zero_exponent_is_constant_one():
    x = tape.leaf(np.array([0.0, 0.7, 2.0]))
    out = pow_const(x, 0.0)
    np.testing.assert_array_equal(out.value, np.ones(3))
    (g,) = grads_of(tape.tsum(out), [x])
    np.testing.assert_array_equal(g, np.zeros(3))


def test_relu_subgradient_at_zero_is_zero():
    x = tape.leaf(np.array([0.0]))
    (g,) = grads_of(tape.tsum(relu(x)), [x])
    assert g[0] == 0.0


def test_elu_is_continuous_at_zero():
    x = tape.leaf(np.array([-1e-12, 0.0, 1e-12]))
    (g,) = grads_of(tape.tsum(tape.elu(x)), [x])
    np.testing.assert_allclose(g, np.ones(3), atol=1e-9)


def test_logsumexp_matches_direct_formula_and_fd():
    a = RNG.normal(size=(4, 3)) * 5
    out = tape.logsumexp(tape.constant(a), axis=1)
    expected = np.log(np.exp(a).sum(axis=1, keepdims=True))
    assert out.value.shape == expected.shape == (4, 1)
    np.testing.assert_allclose(out.value, expected, rtol=1e-12)

    def fn(ts):
        return tape.tsum(tape.logsumexp(ts[0], axis=1))

    assert_matches_fd(fn, [RNG.normal(size=(4, 3))])


def test_logsumexp_survives_extreme_inputs():
    a = np.array([[1000.0, -1000.0], [-1000.0, -1001.0]])
    out = tape.logsumexp(tape.constant(a), axis=1)
    assert np.all(np.isfinite(out.value))


def test_softmax_rows_normalize_and_match_fd():
    a = RNG.normal(size=(3, 4)) * 4
    sm = tape.softmax(tape.constant(a), axis=1)
    np.testing.assert_allclose(sm.value.sum(axis=1), np.ones(3), rtol=1e-12)
    coeff = RNG.normal(size=(3, 4))

    def fn(ts):
        return tape.tsum(tape.softmax(ts[0], axis=1) * coeff)

    assert_matches_fd(fn, [RNG.normal(size=(3, 4))])


def test_backward_rejects_nonscalar_and_nonfinite():
    x = tape.leaf(np.ones(3))
    with pytest.raises(InputError):
        tape.backward(x * 2.0)
    with np.errstate(invalid="ignore"):
        bad = tape.log(tape.constant(np.array(-1.0)) * tape.leaf(np.array(1.0)))
    with pytest.raises(NumericError):
        tape.backward(bad)


def test_nonfinite_gradient_names_the_op():
    x = tape.leaf(np.array([0.0]))
    loss = tape.tsum(tape.sqrt(x))
    with pytest.raises(NumericError, match="sqrt"):
        tape.backward(loss)


def _two_parent_op(a, b, grad_a, grad_b):
    """A custom op built with ``tape.node``: sum(a * b), whose VJP returns
    the given fixed gradients; a None stands for 'no gradient needed'."""
    return tape.node(
        "custom_dot", np.sum(a.value * b.value), (a, b), lambda g: (grad_a, grad_b)
    )


def test_custom_op_with_nonfinite_contribution_names_its_op():
    a, b = tape.leaf(np.ones(2)), tape.leaf(np.ones(2))
    out = _two_parent_op(a, b, np.ones(2), np.array([1.0, np.nan]))
    with pytest.raises(NumericError, match="custom_dot"):
        tape.backward(out)


def test_of_two_nonfinite_ops_the_one_nearer_the_loss_is_named():
    # sqrt at 0 sends an infinite gradient to x; the custom op above it
    # already sends a NaN to the sqrt.  The walk from the loss meets the
    # custom op first.
    x = tape.leaf(np.array([0.0, 4.0]))
    inner = tape.sqrt(x)
    outer = tape.node(
        "outer_op", inner.value * 3.0, (inner,), lambda g: (np.array([np.nan, 3.0]) * g,)
    )
    with pytest.raises(NumericError) as info:
        tape.backward(tape.tsum(outer))
    assert str(info.value) == "non-finite gradient produced by op 'outer_op'"


def test_nonfinite_contribution_masked_before_the_leaves_is_not_an_error():
    # sqrt sends an infinite gradient to its masked-out entry, and where
    # passes the leaf a zero there instead.
    x = tape.leaf(np.array([4.0, 0.0]))
    masked = tape.where(np.array([True, False]), x, tape.constant(0.0))
    tape.backward(tape.tsum(tape.sqrt(masked)))
    np.testing.assert_array_equal(x.grad, [0.25, 0.0])


def test_finite_contributions_that_overflow_in_a_leaf_raise():
    x = tape.leaf(np.array([0.0]))
    big = np.array([1e308])
    with pytest.raises(NumericError, match="accumulated into a leaf"):
        tape.backward(tape.tsum(x * big + x * big))


def test_custom_op_skips_parents_that_need_no_gradient():
    a, b = tape.leaf(np.array([2.0, 3.0])), tape.constant(np.ones(2))
    # The constant parent's entry is never looked at, finite or not.
    for grad_b in (None, np.array([np.inf, np.nan])):
        out = _two_parent_op(a, b, np.array([5.0, 7.0]), grad_b)
        (ga,) = grads_of(out, [a])
        np.testing.assert_array_equal(ga, [5.0, 7.0])
        assert b.grad is None
    constant_only = _two_parent_op(b, b, None, None)
    assert not constant_only.requires_grad and constant_only._backward is None


@pytest.mark.parametrize(
    "shape, reduce",
    [
        ((4,), dict(axis=0)),
        ((1, 4), dict(axis=0, keepdims=True)),
        ((5, 1), dict(axis=1, keepdims=True)),
    ],
    ids=["dropped-axis", "kept-row", "kept-column"],
)
def test_walk_sums_a_broadcast_contribution_back_to_its_parent(shape, reduce):
    # A custom op that broadcast its parent over a (5, 4) block may return
    # the parent's gradient at that block's shape; the reverse pass sums it.
    block = np.random.default_rng(4).normal(size=(5, 4))
    parent = tape.leaf(np.zeros(shape))
    out = tape.node(
        "custom_broadcast", np.sum(parent.value + block), (parent,), lambda g: (g * block,)
    )
    tape.backward(out)
    assert parent.grad.shape == shape
    np.testing.assert_array_equal(parent.grad, block.sum(**reduce))


def test_backward_rezeroes_buffers_between_calls():
    x = tape.leaf(np.array([2.0]))
    loss = tape.tsum(x * x)
    tape.backward(loss)
    first = x.grad.copy()
    tape.backward(loss)
    np.testing.assert_array_equal(x.grad, first)


def test_gradients_are_deterministic():
    def run():
        rng = np.random.default_rng(123)
        x = tape.leaf(rng.normal(size=(5, 3)))
        w = tape.leaf(rng.normal(size=(3, 2)))
        t = tape.tanh(tape.matmul(x, w))
        loss = tape.tsum(t * t)
        return grads_of(loss, [x, w])

    a1, b1 = run()
    a2, b2 = run()
    assert a1.tobytes() == a2.tobytes() and b1.tobytes() == b2.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-3, 3), min_size=2, max_size=6),
    st.floats(-2, 2),
    st.floats(-2, 2),
)
def test_linearity_of_gradient(values, ca, cb):
    """grad of (ca*f + cb*f) equals ca*grad(f) + cb*grad(f)."""
    v = np.asarray(values)
    x = tape.leaf(v)
    f = tape.tsum(tape.tanh(x))
    combined = f * ca + f * cb
    (g,) = grads_of(combined, [x])
    x2 = tape.leaf(v)
    (gf,) = grads_of(tape.tsum(tape.tanh(x2)), [x2])
    np.testing.assert_allclose(g, (ca + cb) * gf, rtol=1e-12, atol=1e-12)
