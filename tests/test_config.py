"""Experiment config serialization, hashing, and validation."""

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixcon.config import (
    DataConfig,
    ExperimentConfig,
    ModelConfig,
    OptimConfig,
    config_hash,
    config_json,
    differing_fields,
    from_json,
    load_config,
    save_config,
    to_dict,
)
from mixcon.errors import InputError


def test_round_trip_preserves_everything():
    cfg = ExperimentConfig(
        data=DataConfig(num_samples=500, num_classes=4, input_dim=16),
        model=ModelConfig(input_dim=16, num_classes=4, encoder_hidden=(64, 32)),
        seed=17,
    )
    again = from_json(config_json(cfg))
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)


def test_hash_covers_seed_and_nested_fields():
    base = ExperimentConfig()
    assert config_hash(dataclasses.replace(base, seed=1)) != config_hash(base)
    tweaked = dataclasses.replace(
        base, loss=dataclasses.replace(base.loss, tau=0.21)
    )
    assert config_hash(tweaked) != config_hash(base)
    assert config_hash(ExperimentConfig()) == config_hash(base)


def test_default_config_hash_is_pinned():
    # Checkpoints written by earlier versions carry this hash; a change to
    # the default config or its JSON form would orphan them.
    assert config_hash(ExperimentConfig()) == (
        "c101df145341212478aaeb7b6db79f1651b4f235cd8ff3800c64a39b7472de56"
    )


def test_differing_fields_names_dotted_paths_in_json_form():
    base = ExperimentConfig()
    other = dataclasses.replace(base, seed=3, loss=dataclasses.replace(base.loss, lam=0.5))
    # A checkpoint holds the config as loaded JSON: tuples come back as lists.
    stored = json.loads(config_json(other))
    assert differing_fields(stored, base) == ["loss.lam", "seed"]
    assert differing_fields(json.loads(config_json(base)), base) == []
    stored = json.loads(config_json(base))
    stored["asl"]["gamma_pos"] = False
    stored["optim"]["batch_size"] = 64.0
    del stored["augment"]
    stored["extra"] = 1
    assert differing_fields(stored, base) == [
        "asl.gamma_pos", "augment", "extra", "optim.batch_size",
    ]
    assert differing_fields([1], base) == ["config"]


def test_file_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    cfg = ExperimentConfig(seed=3)
    save_config(path, cfg)
    assert load_config(path) == cfg


def test_cross_field_validation():
    with pytest.raises(InputError):
        ExperimentConfig(data=DataConfig(input_dim=10), model=ModelConfig(input_dim=24))
    with pytest.raises(InputError):
        ExperimentConfig(
            data=DataConfig(num_classes=4), model=ModelConfig(input_dim=24, num_classes=6)
        )
    with pytest.raises(InputError):
        ExperimentConfig(
            data=DataConfig(num_samples=64),
            optim=OptimConfig(batch_size=64),
        )
    with pytest.raises(InputError):
        ExperimentConfig(threshold=1.0)


def test_malformed_json_rejected():
    with pytest.raises(InputError):
        from_json("{not json")
    with pytest.raises(InputError):
        from_json("[1, 2]")
    payload = to_dict(ExperimentConfig())
    del payload["loss"]
    with pytest.raises(InputError):
        from_json(json.dumps(payload))
    payload = to_dict(ExperimentConfig())
    payload["optim"]["bogus_knob"] = 1
    with pytest.raises(InputError):
        from_json(json.dumps(payload))
    payload = to_dict(ExperimentConfig())
    payload["peak_lr"] = 0.5  # belongs under "optim"
    with pytest.raises(InputError, match="peak_lr"):
        from_json(json.dumps(payload))


def test_optim_validation():
    with pytest.raises(InputError):
        OptimConfig(peak_lr=0.0)
    with pytest.raises(InputError):
        OptimConfig(batch_size=1)
    with pytest.raises(InputError):
        OptimConfig(warmup_frac=1.0)
    with pytest.raises(InputError):
        DataConfig(holdout_frac=0.0)


def test_data_sizes_are_checked_without_the_model():
    with pytest.raises(InputError, match=r"DataConfig.num_classes must lie in \[1, inf\)"):
        DataConfig(num_classes=0)
    with pytest.raises(InputError, match=r"DataConfig.input_dim must lie in \[1, inf\)"):
        DataConfig(input_dim=0)


# Every finite end of every numeric interval in the tree, written out here
# independently of the declarations in config.py: (section, field, end,
# side, closed), where side +1 means the interval lies above the end.
INTERVAL_ENDS = [
    ("data", "num_samples", 8, +1, True),
    ("data", "marginal", 0.0, +1, False),
    ("data", "marginal", 1.0, -1, False),
    ("data", "boost", 0.0, +1, True),
    ("data", "boost", 1.0, -1, True),
    ("data", "noise_scale", 0.0, +1, True),
    ("data", "holdout_frac", 0.0, +1, False),
    ("data", "holdout_frac", 1.0, -1, False),
    ("model", "input_dim", 1, +1, True),
    ("model", "embed_dim", 1, +1, True),
    ("model", "mixture_dim", 1, +1, True),
    ("model", "num_classes", 1, +1, True),
    ("loss", "tau", 0.0, +1, False),
    ("loss", "alpha", 0.0, +1, True),
    ("loss", "alpha", 1.0, -1, True),
    ("loss", "lam", 0.0, +1, True),
    ("asl", "gamma_pos", 0.0, +1, True),
    ("asl", "gamma_neg", 0.0, +1, True),
    ("asl", "margin", 0.0, +1, True),
    ("asl", "margin", 1.0, -1, False),
    ("optim", "peak_lr", 0.0, +1, False),
    ("optim", "batch_size", 2, +1, True),
    ("optim", "contrastive_epochs", 1, +1, True),
    ("optim", "classifier_epochs", 1, +1, True),
    ("optim", "warmup_frac", 0.0, +1, False),
    ("optim", "warmup_frac", 1.0, -1, False),
    ("optim", "final_factor", 0.0, +1, False),
    ("optim", "final_factor", 1.0, -1, True),
    ("optim", "start_factor", 0.0, +1, False),
    ("optim", "start_factor", 1.0, -1, True),
    ("augment", "jitter_scale", 0.0, +1, True),
    ("augment", "dropout_prob", 0.0, +1, True),
    ("augment", "dropout_prob", 1.0, -1, False),
    ("augment", "scale_jitter", 0.0, +1, True),
    ("augment", "scale_jitter", 1.0, -1, False),
    (None, "threshold", 0.0, +1, False),
    (None, "threshold", 1.0, -1, False),
]


def interval_end_cases():
    """The end itself, the nearest value inside and the nearest outside."""
    for section, key, end, side, closed in INTERVAL_ENDS:
        if isinstance(end, int):
            inside, outside = end + side, end - side
        else:
            inside, outside = math.nextafter(end, end + side), math.nextafter(end, end - side)
        for value, accepted in ((end, closed), (inside, True), (outside, False)):
            yield pytest.param(
                section, key, value, accepted, id=f"{section or 'top'}.{key}={value!r}"
            )


@pytest.mark.parametrize("section, key, value, accepted", interval_end_cases())
def test_each_interval_end_is_open_or_closed_as_declared(section, key, value, accepted):
    base = ExperimentConfig()
    target = base if section is None else getattr(base, section)
    if accepted:
        assert getattr(dataclasses.replace(target, **{key: value}), key) == value
    else:
        with pytest.raises(InputError):
            dataclasses.replace(target, **{key: value})


@pytest.mark.parametrize(
    "section, key, value",
    [
        (None, "seed", "abc"),
        (None, "threshold", "high"),
        ("model", "embed_dim", "wide"),
        ("model", "encoder_hidden", ["x"]),
        ("loss", "measure", ["jaccard"]),
        ("data", "num_samples", "many"),
        ("data", "noise_scale", -1.0),
        ("loss", "sim", "correlation"),
        ("data", "num_samples", 100.5),
        ("optim", "batch_size", 16.5),
        ("model", "embed_dim", 8.5),
        ("optim", "contrastive_epochs", 1.5),
        ("model", "encoder_hidden", [128.7]),
        (None, "seed", True),
        ("data", "input_dim", 24.0),
        # JSON booleans are not numbers, though Python would do arithmetic
        # with them as 1.0 and 0.0.
        ("data", "noise_scale", True),
        ("optim", "peak_lr", True),
        ("augment", "jitter_scale", True),
        ("loss", "tau", True),
        ("asl", "margin", False),
        (None, "threshold", "0.5"),
        (None, "threshold", True),
        # JSON NaN and Infinity load as floats that pass a bound check such
        # as lam < 0, and no config holding them can be hashed.
        ("loss", "lam", float("nan")),
        ("optim", "peak_lr", float("inf")),
        ("data", "noise_scale", float("nan")),
        ("asl", "gamma_neg", float("inf")),
        ("augment", "jitter_scale", float("inf")),
    ],
)
def test_bad_values_in_a_config_file_raise_input_error(tmp_path, section, key, value):
    payload = to_dict(ExperimentConfig())
    (payload if section is None else payload[section])[key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(InputError):
        load_config(path)


def test_non_utf8_config_file_raises_input_error(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_bytes(b'{"seed": "\xff"}')
    with pytest.raises(InputError):
        load_config(path)


CONFIG_BYTES = (json.dumps(to_dict(ExperimentConfig()), sort_keys=True, indent=2) + "\n").encode()


@settings(max_examples=300, deadline=None)
@given(
    cut=st.one_of(st.just(len(CONFIG_BYTES)), st.integers(0, len(CONFIG_BYTES))),
    edits=st.lists(
        st.tuples(st.integers(0, len(CONFIG_BYTES) - 1), st.integers(0, 255)), max_size=3
    ),
)
def test_mutated_config_file_loads_or_raises_input_error(tmp_path_factory, cut, edits):
    # A truncated or byte-mutated file may still load, possibly as another
    # valid config; any failure must be an InputError.
    blob = bytearray(CONFIG_BYTES)
    for pos, byte in edits:
        blob[pos] = byte
    path = tmp_path_factory.getbasetemp() / "mutated_config.json"
    path.write_bytes(bytes(blob[:cut]))
    try:
        load_config(path)
    except InputError:
        pass
