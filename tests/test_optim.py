"""Optimizer arithmetic, schedule shape, and the gradient checker itself."""

import math

import numpy as np
import pytest

from mixcon import tape
from mixcon.config import ContrastiveLossConfig, ModelConfig, OptimConfig
from mixcon.errors import InputError
from mixcon.losses import nll_loss_t, pcl_loss_t
from mixcon.model import encoder_forward_t, init_params, mdn_forward_t
from mixcon.optim import adam_step, init_adam, one_cycle_lr

from reference import PerArrayAdam, finite_diff_check


def test_adam_zero_gradients_leave_fresh_params_unchanged():
    state = init_adam({"w": np.array([1.0, -2.0])}, ("w",))
    adam_step(state, {"w": np.zeros(2)}, lr_now=0.1)
    np.testing.assert_array_equal(state.views["w"], np.array([1.0, -2.0]))
    assert state.step_count == 1


def test_adam_first_step_is_normalized_gradient():
    g = np.array([0.3])
    state = init_adam({"w": np.array([0.5])}, ("w",))
    adam_step(state, {"w": g}, lr_now=0.01)
    # Bias correction cancels the (1 - beta) factors on the first step,
    # so the update is -lr * g / (|g| + eps).
    expected = 0.5 - 0.01 * g / (np.abs(g) + 1e-8)
    np.testing.assert_allclose(state.views["w"], expected, rtol=1e-12)


def test_adam_hand_computed_second_step():
    state = init_adam({"w": np.array([1.0])}, ("w",))
    g1, g2 = np.array([0.2]), np.array([-0.4])
    lr = 0.05
    adam_step(state, {"w": g1}, lr_now=lr)
    adam_step(state, {"w": g2}, lr_now=lr)
    m = 0.9 * (0.1 * 0.2) + 0.1 * (-0.4)
    v = 0.999 * (0.001 * 0.2**2) + 0.001 * 0.4**2
    m_hat = m / (1 - 0.9**2)
    v_hat = v / (1 - 0.999**2)
    w1 = 1.0 - lr * 0.2 / (0.2 + 1e-8)
    expected = w1 - lr * m_hat / (math.sqrt(v_hat) + 1e-8)
    np.testing.assert_allclose(state.views["w"], np.array([expected]), rtol=1e-10)


def test_adam_updates_only_supplied_gradients():
    params = {"a": np.ones(2), "b": np.ones(2)}
    state = init_adam(params, ("a",))
    adam_step(state, {"a": np.full(2, 0.5)}, lr_now=0.1)
    assert not np.array_equal(state.views["a"], np.ones(2))
    assert list(state.views) == ["a"]
    np.testing.assert_array_equal(params["b"], np.ones(2))
    with pytest.raises(InputError):
        adam_step(state, {"b": np.zeros(2)}, lr_now=0.1)


def test_adam_rejects_a_missing_gradient():
    # A parameter in the state with no gradient would keep moving on its
    # momentum; the step refuses it instead, before anything moves.
    state = init_adam({"a": np.ones(2), "b": np.ones(2)}, ("a", "b"))
    adam_step(state, {"a": np.full(2, 0.5), "b": np.full(2, 0.5)}, lr_now=0.1)
    before = state.flat.copy()
    for gradients in ({"a": np.zeros(2)}, {"a": np.zeros(2), "b": None}):
        with pytest.raises(InputError):
            adam_step(state, gradients, lr_now=0.1)
    assert state.step_count == 1
    assert state.flat.tobytes() == before.tobytes()


def test_adam_validation():
    state = init_adam({"w": np.ones(2)}, ("w",))
    with pytest.raises(InputError):
        adam_step(state, {"w": np.ones(3)}, lr_now=0.1)
    with pytest.raises(InputError):
        adam_step(state, {"w": np.ones(2)}, lr_now=0.0)
    assert state.step_count == 0


def test_init_adam_moves_the_trained_parameters_into_one_buffer():
    rng = np.random.default_rng(2)
    params = {"a": rng.normal(size=(2, 3)), "frozen": rng.normal(size=4), "b": rng.normal(size=5)}
    before = {k: v.copy() for k, v in params.items()}
    frozen = params["frozen"]
    state = init_adam(params, ("b", "a"))
    assert tuple(state.views) == ("b", "a")
    assert state.flat.shape == state.m.shape == state.v.shape == (11,)
    np.testing.assert_array_equal(state.flat, np.concatenate([before["b"], before["a"].ravel()]))
    for k in ("a", "b"):
        assert np.shares_memory(state.views[k], state.flat)
        np.testing.assert_array_equal(state.views[k], before[k])
    assert params["frozen"] is frozen


def test_init_adam_leaves_the_callers_dict_alone():
    # Writing the trained values back is _fit's job; see
    # TestPipeline::test_fit_wraps_the_leaves_after_adam_owns_the_parameters.
    rng = np.random.default_rng(4)
    params = {"w": rng.normal(size=(2, 3)), "frozen": rng.normal(size=4)}
    before = {k: (v, v.tobytes()) for k, v in params.items()}
    state = init_adam(params, ("w",))
    adam_step(state, {"w": np.ones((2, 3))}, lr_now=0.1)
    assert params.keys() == before.keys()
    for k, (array, data) in before.items():
        assert params[k] is array and array.tobytes() == data
        assert not np.shares_memory(array, state.flat)


def test_flat_adam_matches_the_per_array_update_bit_for_bit():
    rng = np.random.default_rng(11)
    shapes = {"w1": (4, 3), "frozen": (3,), "b1": (3,), "w2": (3, 2, 2), "one": (1,), "b2": (2,)}
    params = {k: rng.normal(size=s) for k, s in shapes.items()}
    oracle_params = {k: v.copy() for k, v in params.items()}
    keys = ("w2", "b1", "one", "w1", "b2")  # a subset, not in dict order
    state = init_adam(params, keys)
    oracle = PerArrayAdam(oracle_params, keys)
    frozen = params["frozen"].copy()
    optim = OptimConfig(peak_lr=0.05)
    for step in range(60):
        # Magnitudes from 1e-9 to 1e3, with exact zeros mixed in.
        grads = {
            k: rng.normal(size=shapes[k]) * 10.0 ** rng.integers(-9, 4)
            * (rng.random(shapes[k]) > 0.2)
            for k in keys
        }
        lr = one_cycle_lr(step, 60, optim)
        adam_step(state, grads, lr)
        oracle.step(oracle_params, grads, lr)
        for k in keys:
            assert state.views[k].tobytes() == oracle_params[k].tobytes(), (step, k)
        assert state.m.tobytes() == np.concatenate([oracle.m[k].ravel() for k in keys]).tobytes()
        assert state.v.tobytes() == np.concatenate([oracle.v[k].ravel() for k in keys]).tobytes()
    assert state.step_count == oracle.step_count == 60
    assert params["frozen"].tobytes() == frozen.tobytes()


def test_adam_trajectories_are_deterministic():
    def run():
        rng = np.random.default_rng(5)
        state = init_adam({"w": rng.normal(size=4)}, ("w",))
        for i in range(20):
            g = np.sin(state.views["w"] + i)
            adam_step(state, {"w": g}, lr_now=0.01)
        return state.views["w"]

    assert run().tobytes() == run().tobytes()


# -- one-cycle schedule ---------------------------------------------------------


def peak(lr):
    return OptimConfig(peak_lr=lr)


def test_one_cycle_endpoints_are_exact():
    assert one_cycle_lr(3, 10, peak(1.0)) == 1.0  # 30% of 10 steps
    assert one_cycle_lr(10, 10, peak(1.0)) == 1.0e-4
    assert one_cycle_lr(0, 10, peak(2.0)) == 2.0 * 0.04
    assert one_cycle_lr(30, 100, peak(0.5)) == 0.5


def test_one_cycle_reads_every_knob_from_the_config():
    optim = OptimConfig(peak_lr=2.0, warmup_frac=0.5, final_factor=0.25, start_factor=0.5)
    assert one_cycle_lr(0, 10, optim) == 1.0
    assert one_cycle_lr(5, 10, optim) == 2.0
    assert one_cycle_lr(10, 10, optim) == 0.5


def test_one_cycle_monotone_up_then_down():
    total = 50
    values = [one_cycle_lr(s, total, peak(1.0)) for s in range(total + 1)]
    peak_step = int(round(0.3 * total))
    for s in range(peak_step):
        assert values[s] <= values[s + 1] + 1e-15
    for s in range(peak_step, total):
        assert values[s] >= values[s + 1] - 1e-15
    assert max(values) == values[peak_step] == 1.0


def test_one_cycle_is_continuous_at_the_peak():
    total = 1000
    peak_step = 300
    before = one_cycle_lr(peak_step - 1, total, peak(1.0))
    after = one_cycle_lr(peak_step + 1, total, peak(1.0))
    assert abs(before - 1.0) < 1e-4 and abs(after - 1.0) < 1e-4


def test_one_cycle_validation():
    with pytest.raises(InputError):
        one_cycle_lr(-1, 10, peak(1.0))
    with pytest.raises(InputError):
        one_cycle_lr(11, 10, peak(1.0))
    with pytest.raises(InputError):
        one_cycle_lr(0, 0, peak(1.0))
    with pytest.raises(InputError):
        one_cycle_lr(0, 10, peak(0.0))


# -- finite-difference checker ----------------------------------------------------


def test_finite_diff_exact_for_linear_losses():
    rng = np.random.default_rng(7)
    coeff = np.where(rng.random((3, 2)) < 0.5, -1.0, 1.0)
    params = {"w": rng.normal(size=(3, 2))}

    def loss_fn(pt):
        return tape.tsum(pt["w"] * coeff)

    for step in (1e-3, 1e-5):
        assert finite_diff_check(params, loss_fn, step=step) < 1e-10


def test_finite_diff_quadratic_within_second_order_tolerance():
    rng = np.random.default_rng(9)
    params = {"w": rng.uniform(2.0, 3.0, size=5)}

    def loss_fn(pt):
        shifted = pt["w"] - 1.0
        return tape.tsum(shifted * shifted)

    assert finite_diff_check(params, loss_fn, step=1e-5) < 1e-8


def test_finite_diff_flags_wrong_gradients():
    params = {"w": np.array([1.3, -0.4])}

    def loss_fn(pt):
        t = pt["w"]
        # Hand-built node: value is sum(w^2) but backward reports w
        # instead of 2w, so the checker must report ~50% relative error.
        return tape.Tensor(
            (t.value**2).sum(),
            requires_grad=t.requires_grad,
            op="bad_square",
            parents=(t,),
            backward_fn=lambda g: (g * t.value,),
        )

    assert finite_diff_check(params, loss_fn, step=1e-5) > 0.4


def test_finite_diff_step_validation():
    with pytest.raises(InputError):
        finite_diff_check({"w": np.ones(1)}, lambda pt: tape.tsum(pt["w"]), step=0.0)


# -- the smoke property: training reduces the combined loss ----------------------


def _toy_total_loss(pt, cfg, batch, labels):
    h = encoder_forward_t(pt, tape.constant(batch), cfg)
    w, m, v, z = mdn_forward_t(pt, h, cfg)
    nll = nll_loss_t(w, m, v, z)
    pcl = pcl_loss_t(w, m, v, labels, cfg.mixture_dim, ContrastiveLossConfig())
    return nll + pcl * 0.3


def test_fifty_adam_steps_cut_identical_batch_loss():
    cfg = ModelConfig(
        input_dim=5, encoder_hidden=(8,), embed_dim=6, mixture_dim=2,
        num_classes=3, mdn_hidden=(8,),
    )
    params = init_params(cfg, seed=21)
    batch = np.tile(np.random.default_rng(3).normal(size=5), (4, 1))
    labels = np.tile(np.array([1, 0, 1]), (4, 1))
    # The toy loss never reaches the classifier head, so it is frozen.
    state = init_adam(params, tuple(k for k in params if not k.startswith("cls.")))

    def loss_value():
        pt = {k: tape.leaf(v) for k, v in {**params, **state.views}.items()}
        return _toy_total_loss(pt, cfg, batch, labels), pt

    initial, _ = loss_value()
    for _ in range(50):
        loss, pt = loss_value()
        tape.backward(loss)
        grads = {k: pt[k].grad for k in state.views}
        adam_step(state, grads, lr_now=0.01)
    final, _ = loss_value()
    assert float(final.value) <= 0.9 * float(initial.value)