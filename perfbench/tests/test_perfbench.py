"""The benchmark's checks accept the program's output and reject wrong output.

Each check is run on artifacts of a tiny two-stage run and a tiny sweep,
then on a copy with one thing made wrong: a metric or a score, an encoder
byte, a sweep row, a loss value, an artifact byte.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

import checks
import run as bench
import tracing
import workloads
from mixcon import losses, model, pipeline
from mixcon.config import DataConfig, ExperimentConfig, OptimConfig, config_hash
from mixcon.model import ModelConfig

SWEEP_VALUES = ("0", "0.3")


def tiny_config(seed=3) -> ExperimentConfig:
    return ExperimentConfig(
        data=DataConfig(num_samples=160, num_classes=4, input_dim=10),
        model=ModelConfig(
            input_dim=10, encoder_hidden=(16,), embed_dim=8,
            mixture_dim=3, num_classes=4, mdn_hidden=(16, 8),
        ),
        optim=OptimConfig(batch_size=16, contrastive_epochs=2, classifier_epochs=30),
        seed=seed,
    )


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    cfg = tiny_config()
    out = tmp_path_factory.mktemp("run")
    stage_one = pipeline.train_contrastive(cfg, out)
    stage_two = pipeline.train_classifier(cfg, stage_one.checkpoint, out)
    pipeline.evaluate(cfg, stage_two.checkpoint, out / "eval_holdout.json", "holdout")
    sweep = tmp_path_factory.mktemp("sweep")
    pipeline.ablate(cfg, "lambda", SWEEP_VALUES, sweep)
    return cfg, out, sweep, pipeline.dataset_split(cfg)


@pytest.fixture
def copy(run, tmp_path):
    """A private copy of the run's artifacts that a test may damage."""
    cfg, out, sweep, dataset = run
    shutil.copytree(out, tmp_path / "run")
    shutil.copytree(sweep, tmp_path / "sweep")
    return cfg, tmp_path / "run", tmp_path / "sweep", dataset


def check_holdout_report(cfg, out, dataset, report="holdout_metrics.json"):
    features, labels, _, hold_idx = dataset
    checks.check_report(
        out / report, out / "classifier.ckpt", features, labels, hold_idx,
        split="holdout", cfg_hash=config_hash(cfg),
    )


def check_losses(cfg, out, dataset):
    features, labels, train_idx, _ = dataset
    params = checks.checkpoint_arrays(out / "contrastive.ckpt")[1]
    checks.check_losses(cfg, params, features[train_idx], labels[train_idx])


def check_sweep(cfg, sweep, dataset):
    _, labels, train_idx, _ = dataset
    checks.check_sweep(sweep / "sweep.csv", SWEEP_VALUES, labels[train_idx], cfg.loss.alpha)


def rewrite(path, old, new):
    text = Path(path).read_text()
    assert old in text
    Path(path).write_text(text.replace(old, new, 1))


def test_checks_accept_the_program_output(run):
    cfg, out, sweep, dataset = run
    check_holdout_report(cfg, out, dataset)
    check_holdout_report(cfg, out, dataset, "eval_holdout.json")
    checks.check_frozen_encoder(out / "contrastive.ckpt", out / "classifier.ckpt")
    check_losses(cfg, out, dataset)
    check_sweep(cfg, sweep, dataset)
    report = json.loads((out / "holdout_metrics.json").read_text())
    checks.check_above_prevalence(report["metrics"]["map"], dataset[1][dataset[3]])


def test_report_check_rejects_a_perturbed_metric(copy):
    cfg, out, _, dataset = copy
    path = out / "holdout_metrics.json"
    report = json.loads(path.read_text())
    report["per_class"][1]["ap"] += 1e-6
    path.write_text(json.dumps(report))
    with pytest.raises(checks.CheckError, match="class 1 ap"):
        check_holdout_report(cfg, out, dataset)


def test_report_check_rejects_perturbed_scores(copy):
    cfg, out, _, dataset = copy
    ckpt = model.load_checkpoint(out / "classifier.ckpt")
    params = dict(ckpt.params)
    params["cls.b"] = params["cls.b"] + np.array([0.0, 0.3, 0.0, 0.0])
    model.save_checkpoint(
        out / "classifier.ckpt", params, kind=ckpt.kind, seed=ckpt.seed,
        config=ckpt.config, config_hash=ckpt.config_hash,
    )
    with pytest.raises(checks.CheckError):
        check_holdout_report(cfg, out, dataset)


def test_frozen_encoder_check_rejects_a_flipped_encoder_byte(copy):
    _, out, _, _ = copy
    header, raw = checks.read_checkpoint(out / "classifier.ckpt")
    offset = 0
    for entry in header["tensors"]:
        if entry["name"] == "enc.0.w":
            break
        offset += len(raw[entry["name"]])
    blob = bytearray((out / "classifier.ckpt").read_bytes())
    data_start = len(blob) - sum(len(v) for v in raw.values())
    blob[data_start + offset] ^= 0x01
    (out / "classifier.ckpt").write_bytes(bytes(blob))
    with pytest.raises(checks.CheckError, match="enc.0.w"):
        checks.check_frozen_encoder(out / "contrastive.ckpt", out / "classifier.ckpt")


def test_sweep_check_rejects_a_failed_row(copy):
    cfg, _, sweep, dataset = copy
    rows = (sweep / "sweep.csv").read_text().splitlines()
    last = rows[-1].split(",")
    rows[-1] = ",".join([last[0], last[1], *[""] * 8, "failed:NumericError"])
    (sweep / "sweep.csv").write_text("\n".join(rows) + "\n")
    with pytest.raises(checks.CheckError, match="failed:NumericError"):
        check_sweep(cfg, sweep, dataset)


def test_sweep_check_rejects_a_wrong_positive_set_size(copy):
    cfg, _, sweep, dataset = copy
    row = checks.read_sweep(sweep / "sweep.csv")[0]
    size = row["mean_positive_set_size"]
    rewrite(sweep / "sweep.csv", f",{size},ok", f",{float(size) + 0.5!r},ok")
    with pytest.raises(checks.CheckError, match="mean_positive_set_size"):
        check_sweep(cfg, sweep, dataset)


def test_sweep_check_rejects_a_row_that_disagrees_with_its_report(copy):
    cfg, _, sweep, dataset = copy
    report = sweep / "lambda=0.3" / "holdout_metrics.json"
    blob = json.loads(report.read_text())
    blob["metrics"]["op"] = blob["metrics"]["op"] / 2
    report.write_text(json.dumps(blob))
    with pytest.raises(checks.CheckError, match="op differs"):
        check_sweep(cfg, sweep, dataset)


@pytest.mark.parametrize("name", ["nll_loss_t", "pcl_loss_t"])
def test_loss_check_rejects_a_perturbed_loss(run, monkeypatch, name):
    cfg, out, _, dataset = run
    original = getattr(losses, name)
    monkeypatch.setattr(losses, name, lambda *a: original(*a) * (1.0 + 1e-6))
    with pytest.raises(checks.CheckError, match=name):
        check_losses(cfg, out, dataset)


def test_loss_check_accepts_rounding_differences(run, monkeypatch):
    cfg, out, _, dataset = run
    original = losses.pcl_loss_t
    monkeypatch.setattr(losses, "pcl_loss_t", lambda *a: original(*a) * (1.0 + 1e-14))
    check_losses(cfg, out, dataset)


def test_identical_check_rejects_a_changed_artifact(copy, tmp_path):
    _, out, _, _ = copy
    twin = tmp_path / "twin"
    shutil.copytree(out, twin)
    checks.check_identical([out, twin])
    rewrite(twin / "contrastive_loss.csv", "0,", "1,")
    with pytest.raises(checks.CheckError, match="differs"):
        checks.check_identical([out, twin])


def test_prevalence_check_rejects_an_uninformed_classifier():
    labels = np.array([[1, 0], [0, 1], [1, 1], [0, 0]])
    checks.check_above_prevalence(0.9, labels)
    with pytest.raises(checks.CheckError):
        checks.check_above_prevalence(0.5, labels)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_the_seed_decides_the_inputs(name):
    first = pipeline.dataset_split(workloads.config(name, 1))
    again = pipeline.dataset_split(workloads.config(name, 1))
    other = pipeline.dataset_split(workloads.config(name, 2))
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert not np.array_equal(first[0], other[0])
    assert not np.array_equal(first[1], other[1])


def test_tracer_counts_steps_and_restores_the_program(tmp_path, monkeypatch):
    cfg = tiny_config()
    monkeypatch.setitem(tracing.WRAPPED, "optim", ("adam_step", "one_cycle_lr", "no_such_fn"))
    originals = (pipeline.train_contrastive, pipeline.make_contrastive_batch, losses.similarity_matrix_t)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        pipeline.train_contrastive(cfg, tmp_path)
    finally:
        tracer.uninstall()
    assert (pipeline.train_contrastive, pipeline.make_contrastive_batch,
            losses.similarity_matrix_t) == originals
    layers, counts = tracing.layer_metrics(tracer.spans, repeats=1)
    steps = cfg.optim.contrastive_epochs * (120 // cfg.optim.batch_size)
    assert counts == {"stage1_steps": steps, "stage2_steps": 0}
    assert layers["losses.similarity_matrix_t_ms"] > 0.0
    assert layers["tape.tensors_per_step"] > 0
    assert set(layers) | {"trace.wall_s", "trace.overhead_s"} == set(tracing.UNITS)


def test_the_runner_knows_every_workload():
    assert bench.WORKLOADS == workloads.NAMES
