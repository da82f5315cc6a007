"""Model forward passes, initialization scheme, and checkpoint round trips."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixcon import tape
from mixcon.config import ModelConfig
from mixcon.errors import InputError, NumericError
from mixcon.model import (
    Checkpoint,
    classifier_forward,
    encoder_bytes,
    encoder_forward,
    init_params,
    load_checkpoint,
    mdn_forward_t,
    params_to_tensors,
    save_checkpoint,
)

from reference import classifier_forward_t

CFG = ModelConfig(
    input_dim=6, encoder_hidden=(8,), embed_dim=5, mixture_dim=3, num_classes=4,
    mdn_hidden=(7, 6),
)


def test_config_validation():
    with pytest.raises(InputError):
        ModelConfig(input_dim=0)
    with pytest.raises(InputError):
        ModelConfig(input_dim=3, encoder_hidden=(0,))


def test_init_is_deterministic_and_respects_bounds():
    a = init_params(CFG, seed=5)
    b = init_params(CFG, seed=5)
    assert set(a) == set(b)
    for k in a:
        np.testing.assert_array_equal(a[k], b[k])
    c = init_params(CFG, seed=6)
    assert any(not np.array_equal(a[k], c[k]) for k in a if not k.startswith("mdn.var"))
    # Uniform bound 1/sqrt(fan_in) per layer.
    assert np.max(np.abs(a["enc.0.w"])) <= 1.0 / math.sqrt(CFG.input_dim)
    assert np.max(np.abs(a["enc.out.w"])) <= 1.0 / math.sqrt(8)
    assert np.max(np.abs(a["cls.w"])) <= 1.0 / math.sqrt(CFG.embed_dim)


def test_variance_pathway_is_exactly_one():
    params = init_params(CFG, seed=0)
    np.testing.assert_array_equal(params["mdn.var.w"], np.ones((6, 4)))
    np.testing.assert_array_equal(params["mdn.var.b"], np.ones(4))


def test_parameter_count_matches_analytic_formula():
    params = init_params(CFG, seed=1)
    expected = (
        (6 + 1) * 8          # enc.0
        + (8 + 1) * 5        # enc.out
        + (5 + 1) * 7        # mdn.0
        + (7 + 1) * 6        # mdn.1
        + 3 * (6 + 1) * 4    # pi / mu / var heads
        + (6 + 1) * 3        # z projection
        + (5 + 1) * 4        # classifier
    )
    assert sum(value.size for value in params.values()) == expected


def test_encoder_output_is_unit_norm_and_deterministic():
    params = init_params(CFG, seed=2)
    x = np.random.default_rng(0).normal(size=(9, 6))
    h = encoder_forward(params, x, CFG)
    np.testing.assert_allclose(np.linalg.norm(h, axis=1), np.ones(9), atol=1e-9)
    h2 = encoder_forward(params, x, CFG)
    assert h.tobytes() == h2.tobytes()
    # One-row and batched blocks agree numerically (BLAS may pick
    # different kernels per shape, so bit equality is not promised here).
    single = encoder_forward(params, x[:1], CFG)
    np.testing.assert_allclose(single[0], h[0], rtol=1e-12, atol=1e-14)


def test_identity_encoder_passes_unit_vector_through():
    cfg = ModelConfig(
        input_dim=4, encoder_hidden=(), embed_dim=4, mixture_dim=2, num_classes=3,
        mdn_hidden=(4,),
    )
    params = init_params(cfg, seed=3)
    params["enc.out.w"] = np.eye(4)
    params["enc.out.b"] = np.zeros(4)
    x = np.array([[0.0, 1.0, 0.0, 0.0]])
    np.testing.assert_array_equal(encoder_forward(params, x, cfg), x)


def test_encoder_zero_vector_raises_numeric_error():
    cfg = ModelConfig(
        input_dim=3, encoder_hidden=(), embed_dim=2, mixture_dim=2, num_classes=2,
        mdn_hidden=(3,),
    )
    params = init_params(cfg, seed=4)
    params["enc.out.w"] = np.zeros((3, 2))
    params["enc.out.b"] = np.zeros(2)
    with pytest.raises(NumericError):
        encoder_forward(params, np.ones((1, 3)), cfg)


def test_encoder_input_validation():
    params = init_params(CFG, seed=2)
    with pytest.raises(InputError):
        encoder_forward(params, np.zeros((1, 5)), CFG)
    with pytest.raises(NumericError):
        encoder_forward(params, np.full((1, 6), np.nan), CFG)


def test_one_dimensional_inputs_raise_input_error():
    params = init_params(CFG, seed=2)
    with pytest.raises(InputError):
        encoder_forward(params, np.zeros(6), CFG)
    with pytest.raises(InputError):
        classifier_forward(params, np.zeros(5), CFG)


def test_mdn_outputs_valid_mixture():
    params = init_params(CFG, seed=7)
    rng = np.random.default_rng(1)
    h = encoder_forward(params, rng.normal(size=(5, 6)), CFG)
    pt = params_to_tensors(params, trainable_prefixes=())
    w, m, v, targets = (t.value for t in mdn_forward_t(pt, tape.constant(h), CFG))
    assert targets.shape == (5, 3)
    assert w.shape == m.shape == v.shape == (5, 4)
    assert np.all(w > 0.0) and np.all(np.abs(w.sum(axis=1) - 1.0) <= 1e-9)
    assert np.all(np.isfinite(m)) and np.all(v > 1.0)
    single_w, _, _, single_z = (t.value for t in mdn_forward_t(pt, tape.constant(h[:1]), CFG))
    np.testing.assert_allclose(single_z[0], targets[0], rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(single_w[0], w[0], rtol=1e-12)


def test_mdn_uniform_weights_and_floor_variance_at_zero_activations():
    params = init_params(CFG, seed=8)
    # Zeroing a head's weights pins its raw outputs at the bias.
    params["mdn.pi.w"] = np.zeros_like(params["mdn.pi.w"])
    params["mdn.pi.b"] = np.zeros_like(params["mdn.pi.b"])
    params["mdn.var.w"] = np.zeros_like(params["mdn.var.w"])
    params["mdn.var.b"] = np.zeros_like(params["mdn.var.b"])
    h = encoder_forward(params, np.random.default_rng(2).normal(size=(1, 6)), CFG)
    pt = params_to_tensors(params, trainable_prefixes=())
    w, _, v, _ = (t.value for t in mdn_forward_t(pt, tape.constant(h), CFG))
    np.testing.assert_allclose(w, np.full((1, 4), 0.25), rtol=1e-12)
    # ELU(0) = 0, so the variance sits exactly at 2.
    np.testing.assert_array_equal(v, np.full((1, 4), 2.0))


def test_mdn_variance_approaches_floor_from_above():
    params = init_params(CFG, seed=9)
    params["mdn.var.w"] = np.zeros_like(params["mdn.var.w"])
    params["mdn.var.b"] = np.full_like(params["mdn.var.b"], -30.0)
    h = encoder_forward(params, np.ones((1, 6)), CFG)
    pt = params_to_tensors(params, trainable_prefixes=())
    _, _, v, _ = (t.value for t in mdn_forward_t(pt, tape.constant(h), CFG))
    assert np.all(v >= 1.0)
    np.testing.assert_allclose(v, np.ones((1, 4)), atol=1e-12)


def test_classifier_matches_hand_sigmoid():
    params = init_params(CFG, seed=10)
    rng = np.random.default_rng(3)
    h = rng.normal(size=(4, 5))
    probs = classifier_forward(params, h, CFG)
    hand = 1.0 / (1.0 + np.exp(-(h @ params["cls.w"] + params["cls.b"])))
    np.testing.assert_allclose(probs, hand, rtol=1e-12)
    # The same bytes as the head's matmul, add and sigmoid tape ops.
    weight, bias = tape.constant(params["cls.w"]), tape.constant(params["cls.b"])
    np.testing.assert_array_equal(probs, classifier_forward_t(weight, bias, h).value)
    assert np.all((probs > 0) & (probs < 1))


def test_classifier_zero_params_give_half():
    params = init_params(CFG, seed=11)
    params["cls.w"] = np.zeros_like(params["cls.w"])
    params["cls.b"] = np.zeros_like(params["cls.b"])
    probs = classifier_forward(params, np.ones((1, 5)), CFG)
    np.testing.assert_array_equal(probs, np.full((1, 4), 0.5))


def test_classifier_monotone_in_logit():
    params = init_params(CFG, seed=12)
    params["cls.w"] = np.zeros((5, 4))
    params["cls.w"][0, 0] = 1.0
    params["cls.b"] = np.zeros(4)
    h = np.zeros((3, 5))
    h[:, 0] = [-5.0, 0.0, 5.0]
    probs = classifier_forward(params, h, CFG)[:, 0]
    assert probs[0] < probs[1] < probs[2]
    assert probs[2] > 0.99


def test_frozen_prefixes_exclude_gradients():
    params = init_params(CFG, seed=13)
    pt = params_to_tensors(params, trainable_prefixes=("cls.",))
    assert pt["cls.w"].requires_grad and not pt["enc.0.w"].requires_grad
    x = tape.constant(np.random.default_rng(4).normal(size=(3, 5)))
    loss = tape.tsum(tape.tanh(tape.matmul(x, pt["cls.w"]) + pt["cls.b"]))
    tape.backward(loss)
    assert pt["cls.w"].grad is not None
    assert pt["enc.0.w"].grad is None


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    params = init_params(CFG, seed=14)
    path = tmp_path / "model.ckpt"
    save_checkpoint(
        path, params, kind="contrastive", seed=14,
        config={"note": "fixture", "value": 1.5}, config_hash="abc123",
    )
    loaded = load_checkpoint(path)
    assert isinstance(loaded, Checkpoint)
    assert loaded.kind == "contrastive" and loaded.seed == 14
    assert loaded.config == {"note": "fixture", "value": 1.5}
    assert loaded.config_hash == "abc123"
    assert list(loaded.params) == list(params)
    for k in params:
        assert loaded.params[k].tobytes() == params[k].tobytes()


def test_checkpoint_writes_identical_bytes_across_runs(tmp_path):
    params = init_params(CFG, seed=15)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    for p in (p1, p2):
        save_checkpoint(p, params, kind="contrastive", seed=15, config={}, config_hash="h")
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_corrupt_files(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTMAGIC\n{}\n")
    with pytest.raises(InputError):
        load_checkpoint(path)
    params = init_params(CFG, seed=16)
    good = tmp_path / "good.ckpt"
    save_checkpoint(good, params, kind="k", seed=0, config={}, config_hash="h")
    blob = good.read_bytes()
    (tmp_path / "cut.ckpt").write_bytes(blob[:-9])
    with pytest.raises(InputError):
        load_checkpoint(tmp_path / "cut.ckpt")
    with pytest.raises(FileNotFoundError):
        load_checkpoint(tmp_path / "missing.ckpt")


def _rewrite_header(src, dst, mutate):
    """Copy a checkpoint with its JSON header line changed by ``mutate``."""
    magic, header, data = src.read_bytes().split(b"\n", 2)
    payload = json.loads(header)
    mutate(payload)
    dst.write_bytes(magic + b"\n" + json.dumps(payload).encode() + b"\n" + data)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda h: h.pop("tensors"),
        lambda h: h.pop("kind"),
        lambda h: h.pop("seed"),
        lambda h: h.pop("config"),
        lambda h: h.pop("config_hash"),
        lambda h: h["tensors"][0].pop("name"),
        lambda h: h["tensors"][0].pop("shape"),
        lambda h: h["tensors"][0].update(shape=["x"]),
        lambda h: h["tensors"][0].update(shape=3),
        lambda h: h.update(tensors=[1, 2]),
        lambda h: h.update(tensors=None),
        lambda h: h.update(dtype="<f4"),
    ],
    ids=[
        "no-tensors", "no-kind", "no-seed", "no-config", "no-config-hash",
        "entry-no-name", "entry-no-shape", "entry-bad-dim", "entry-scalar-shape",
        "entry-not-object", "tensors-null", "dtype-f4",
    ],
)
def test_checkpoint_with_malformed_header_raises_input_error(tmp_path, mutate):
    good = tmp_path / "good.ckpt"
    save_checkpoint(good, init_params(CFG, seed=16), kind="k", seed=0, config={}, config_hash="h")
    bad = tmp_path / "bad.ckpt"
    _rewrite_header(good, bad, mutate)
    with pytest.raises(InputError):
        load_checkpoint(bad)


@pytest.mark.parametrize(
    "shape",
    ["[1e400]", "[-2, -3]", "[1099511627776, 1099511627776]", "[6, 8.5]"],
    ids=["overflowing", "negative", "huge", "fractional"],
)
def test_checkpoint_shape_must_hold_non_negative_integers(tmp_path, shape):
    good = tmp_path / "good.ckpt"
    save_checkpoint(good, init_params(CFG, seed=16), kind="k", seed=0, config={}, config_hash="h")
    magic, header, data = good.read_bytes().split(b"\n", 2)
    header = header.replace(b'"shape":[6,8]', b'"shape":' + shape.encode(), 1)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(magic + b"\n" + header + b"\n" + data)
    with pytest.raises(InputError):
        load_checkpoint(bad)


def test_checkpoint_header_must_be_a_json_object(tmp_path):
    path = tmp_path / "list.ckpt"
    path.write_bytes(b"MIXCON1\n[1, 2]\n")
    with pytest.raises(InputError):
        load_checkpoint(path)
    path.write_bytes(b"MIXCON1\n{\"version\": 1, \xff}\n")
    with pytest.raises(InputError):
        load_checkpoint(path)


def test_encoder_bytes_tracks_only_encoder_tensors():
    params = init_params(CFG, seed=17)
    before = encoder_bytes(params)
    params["cls.w"] = params["cls.w"] + 1.0
    assert encoder_bytes(params) == before
    params["enc.0.w"] = params["enc.0.w"] + 1.0
    assert encoder_bytes(params) != before


def _checkpoint_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        save_checkpoint(
            path, init_params(CFG, seed=18), kind="contrastive", seed=18,
            config={"note": "fixture"}, config_hash="h",
        )
        return path.read_bytes()


CHECKPOINT_BYTES = _checkpoint_bytes()
HEADER_END = CHECKPOINT_BYTES.index(b"\n", len(b"MIXCON1\n"))
# Half the edits land in the magic line or the JSON header, where the
# parser lives; the rest anywhere, tensor data included.
POSITIONS = st.one_of(st.integers(0, HEADER_END), st.integers(0, len(CHECKPOINT_BYTES) - 1))


@settings(max_examples=300, deadline=None)
@given(
    cut=st.one_of(st.just(len(CHECKPOINT_BYTES)), st.integers(0, len(CHECKPOINT_BYTES))),
    edits=st.lists(st.tuples(POSITIONS, st.integers(0, 255)), max_size=3),
)
def test_mutated_checkpoint_loads_or_raises_input_error(tmp_path_factory, cut, edits):
    # A truncated or byte-mutated file may still load, possibly with other
    # values; any failure must be an InputError.
    blob = bytearray(CHECKPOINT_BYTES)
    for pos, byte in edits:
        blob[pos] = byte
    path = tmp_path_factory.getbasetemp() / "mutated.ckpt"
    path.write_bytes(bytes(blob[:cut]))
    try:
        load_checkpoint(path)
    except InputError:
        pass
