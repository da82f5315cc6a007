"""Two-stage training pipeline and ablation sweeps.

Stage one trains the encoder and mixture head on the combined density
plus weighted-contrastive objective over augmented view pairs.  Stage
two freezes everything but the linear classifier head and trains it
with the asymmetric loss on raw (un-augmented) features, then reports
held-out metrics.

Every derived random stream gets its own splitmix64 namespace, so the
dataset, split, init, per-epoch shuffles and per-batch view seeds are
all independent functions of the single experiment seed.  Artifacts
(checkpoints, loss CSVs, metric reports) embed the config hash and seed
and are byte-identical across reruns of the same config.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tape
from .config import ExperimentConfig, OptimConfig, config_hash, config_json, to_dict
from .data import generate_synthetic, make_contrastive_batch, splitmix64
from .errors import InputError, NumericError
from .losses import asl_loss_t, nll_loss_t, pcl_loss_t
from .metrics import MetricsReport, PredictionSet, pr_f1_report, report_to_json
from .model import (
    classifier_forward,
    classifier_forward_t,
    encoder_bytes,
    encoder_forward,
    encoder_forward_t,
    init_params,
    load_checkpoint,
    mdn_forward_t,
    params_to_tensors,
    save_checkpoint,
)
from .optim import adam_step, init_adam, one_cycle_lr
from .overlap import positive_pair_count

STREAM_SPLIT = 1000
STREAM_INIT = 1001
STREAM_CONTRASTIVE_SHUFFLE = 1002
STREAM_VIEWS = 1003
STREAM_CLASSIFIER_SHUFFLE = 1004

SWEEP_PARAMS = ("tau", "alpha", "lambda", "measure")


@dataclass(frozen=True)
class ContrastiveResult:
    checkpoint: Path
    curve: Path
    first_epoch_total: float
    last_epoch_total: float


@dataclass(frozen=True)
class ClassifierResult:
    checkpoint: Path
    curve: Path
    report_path: Path
    report: MetricsReport


@dataclass(frozen=True)
class SweepResult:
    table: Path
    rows: tuple
    failed: bool


def dataset_split(cfg: ExperimentConfig):
    """Features, labels, and the deterministic train/holdout index split."""
    features, labels = generate_synthetic(cfg.data.synthetic_config(cfg.seed))
    rng = np.random.default_rng(splitmix64(cfg.seed, STREAM_SPLIT))
    perm = rng.permutation(cfg.data.num_samples)
    holdout = int(round(cfg.data.num_samples * cfg.data.holdout_frac))
    hold_idx = np.sort(perm[:holdout])
    train_idx = np.sort(perm[holdout:])
    return features, labels, train_idx, hold_idx


def _write_csv(path: Path, cfg: ExperimentConfig, header: str, rows) -> None:
    lines = [
        f"# config_hash={config_hash(cfg)} seed={cfg.seed}",
        f"# config={config_json(cfg)}",
        header,
    ]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _fit(
    params,
    optim: OptimConfig,
    *,
    trainable: tuple[str, ...],
    epochs: int,
    num_samples: int,
    drop_last: bool,
    shuffle_seed: int,
    make_batch,
    batch_loss,
    objective: str,
) -> list[tuple]:
    """The epoch loop both stages share; updates ``params`` in place.

    Each epoch walks a fresh permutation of the ``num_samples`` training
    rows, drawn from ``shuffle_seed``, in ``batch_size`` slices.  A step
    builds its batch with ``make_batch(idx, step)``, wraps the parameters
    named under ``trainable`` as tape leaves, and calls
    ``batch_loss(pt, batch)``, which reads only those and returns the
    Tensors the stage logs with the optimized ``objective`` last.  A
    numeric failure in the forward or backward pass is re-raised with the
    objective, epoch and step appended.  Returns one row per epoch: the
    epoch, the per-step mean of every logged Tensor, and the last lr.
    """
    keys = [k for k in params if k.startswith(trainable)]
    leaves = {k: params[k] for k in keys}
    state = init_adam(params, keys=keys)
    batch = optim.batch_size
    steps_per_epoch = num_samples // batch if drop_last else math.ceil(num_samples / batch)
    total_steps = epochs * steps_per_epoch
    rows = []
    step = 0
    for epoch in range(epochs):
        order = np.random.default_rng(splitmix64(shuffle_seed, epoch)).permutation(num_samples)
        logged = []
        for b in range(steps_per_epoch):
            data = make_batch(order[b * batch : (b + 1) * batch], step)
            pt = params_to_tensors(leaves)
            try:
                parts = batch_loss(pt, data)
                if not np.isfinite(parts[-1].value):
                    raise NumericError("loss is non-finite")
                tape.backward(parts[-1])
            except NumericError as exc:
                raise NumericError(
                    f"{exc} ({objective} objective, epoch {epoch}, step {step})"
                ) from exc
            lr = one_cycle_lr(step, total_steps, optim)
            adam_step(state, params, {k: pt[k].grad for k in keys}, lr)
            logged.append([float(part.value) for part in parts])
            # Free this step's graph now, not when the next forward rebinds
            # the names, so a step never holds two graphs at once.
            del parts, pt
            step += 1
        rows.append((epoch, *(math.fsum(c) / steps_per_epoch for c in zip(*logged)), lr))
    return rows


def train_contrastive(cfg: ExperimentConfig, out_dir) -> ContrastiveResult:
    """Stage one: fit encoder + mixture head, emit checkpoint and loss curve.

    Each epoch shuffles the training split and walks full-size batches
    (a trailing partial batch is skipped so every step sees a uniform
    2N-view contrastive problem).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    features, labels, train_idx, _ = dataset_split(cfg)
    x_train, y_train = features[train_idx], labels[train_idx]
    params = init_params(cfg.model, seed=splitmix64(cfg.seed, STREAM_INIT))
    view_base = splitmix64(cfg.seed, STREAM_VIEWS)

    def make_batch(idx, step):
        return make_contrastive_batch(
            x_train[idx], y_train[idx], splitmix64(view_base, step), cfg.augment
        )

    def batch_loss(pt, views):
        h = encoder_forward_t(pt, tape.constant(views.views), cfg.model)
        w, m, v, z = mdn_forward_t(pt, h, cfg.model)
        nll = nll_loss_t(w, m, v, z)
        if cfg.loss.lam == 0.0:
            # A zero weight gives the contrastive term an all-zero gradient:
            # compute it off the tape, for the loss curve only.
            w, m, v = (tape.constant(t.value) for t in (w, m, v))
        pcl = pcl_loss_t(w, m, v, views.labels, cfg.model.mixture_dim, cfg.loss)
        return nll, pcl, nll + pcl * cfg.loss.lam

    rows = _fit(
        params,
        cfg.optim,
        trainable=("enc.", "mdn."),
        epochs=cfg.optim.contrastive_epochs,
        num_samples=len(x_train),
        drop_last=True,
        shuffle_seed=splitmix64(cfg.seed, STREAM_CONTRASTIVE_SHUFFLE),
        make_batch=make_batch,
        batch_loss=batch_loss,
        objective="total",
    )
    curve = out / "contrastive_loss.csv"
    _write_csv(curve, cfg, "epoch,nll,pcl,total,lr", rows)
    ckpt = out / "contrastive.ckpt"
    save_checkpoint(
        ckpt,
        params,
        kind="contrastive",
        seed=cfg.seed,
        config=to_dict(cfg),
        config_hash=config_hash(cfg),
    )
    return ContrastiveResult(
        checkpoint=ckpt,
        curve=curve,
        first_epoch_total=rows[0][3],
        last_epoch_total=rows[-1][3],
    )


def _load_matching_checkpoint(cfg: ExperimentConfig, path, expected_kind: str):
    ckpt = load_checkpoint(path)
    if ckpt.kind != expected_kind:
        raise InputError(f"{path}: expected a {expected_kind} checkpoint, got {ckpt.kind}")
    if ckpt.config_hash != config_hash(cfg):
        raise InputError(f"{path}: checkpoint config hash does not match this config")
    return ckpt


def train_classifier(cfg: ExperimentConfig, contrastive_checkpoint, out_dir) -> ClassifierResult:
    """Stage two: train only the linear head; the encoder must not move.

    Embeddings are precomputed once (the encoder is frozen), the head is
    trained with the asymmetric loss on every batch including a trailing
    partial one, and the encoder bytes are compared before and after as
    a hard guarantee.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ckpt = _load_matching_checkpoint(cfg, contrastive_checkpoint, "contrastive")
    params = {name: value.copy() for name, value in ckpt.params.items()}
    features, labels, train_idx, hold_idx = dataset_split(cfg)
    frozen_before = encoder_bytes(params)
    embeddings = encoder_forward(params, features[train_idx], cfg.model)
    y_train = labels[train_idx]

    def batch_loss(pt, idx):
        probs = classifier_forward_t(pt, tape.constant(embeddings[idx]))
        return (asl_loss_t(probs, y_train[idx], cfg.asl),)

    rows = _fit(
        params,
        cfg.optim,
        trainable=("cls.",),
        epochs=cfg.optim.classifier_epochs,
        num_samples=len(embeddings),
        drop_last=False,
        shuffle_seed=splitmix64(cfg.seed, STREAM_CLASSIFIER_SHUFFLE),
        make_batch=lambda idx, step: idx,
        batch_loss=batch_loss,
        objective="classifier",
    )
    if encoder_bytes(params) != frozen_before:
        raise RuntimeError("frozen encoder changed during classifier training")
    curve = out / "classifier_loss.csv"
    _write_csv(curve, cfg, "epoch,asl,lr", rows)
    report = _split_report(cfg, params, features, labels, hold_idx)
    report_path = out / "holdout_metrics.json"
    _write_report(report_path, cfg, report, split="holdout")
    ckpt_path = out / "classifier.ckpt"
    save_checkpoint(
        ckpt_path,
        params,
        kind="classifier",
        seed=cfg.seed,
        config=to_dict(cfg),
        config_hash=config_hash(cfg),
    )
    return ClassifierResult(
        checkpoint=ckpt_path, curve=curve, report_path=report_path, report=report
    )


def _split_report(cfg, params, features, labels, idx) -> MetricsReport:
    h = encoder_forward(params, features[idx], cfg.model)
    probs = classifier_forward(params, h, cfg.model)
    return pr_f1_report(PredictionSet(probs, labels[idx]), cfg.threshold)


def _write_report(path: Path, cfg: ExperimentConfig, report: MetricsReport, *, split: str) -> None:
    blob = report_to_json(
        report, config_hash=config_hash(cfg), seed=cfg.seed, split=split
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(blob + "\n")


def evaluate(cfg: ExperimentConfig, classifier_checkpoint, out_path, split: str = "holdout") -> MetricsReport:
    """Inference at the configured threshold on either split; writes JSON."""
    if split not in ("train", "holdout"):
        raise InputError("split must be 'train' or 'holdout'")
    ckpt = _load_matching_checkpoint(cfg, classifier_checkpoint, "classifier")
    features, labels, train_idx, hold_idx = dataset_split(cfg)
    idx = train_idx if split == "train" else hold_idx
    report = _split_report(cfg, ckpt.params, features, labels, idx)
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_report(out, cfg, report, split=split)
    return report


def _sweep_config(cfg: ExperimentConfig, param: str, value) -> ExperimentConfig:
    if param == "measure":
        loss = dataclasses.replace(cfg.loss, measure=str(value))
    else:
        field = {"tau": "tau", "alpha": "alpha", "lambda": "lam"}[param]
        try:
            number = float(value)
        except (TypeError, ValueError) as exc:
            raise InputError(f"sweep value {value!r} for {param} is not a number") from exc
        loss = dataclasses.replace(cfg.loss, **{field: number})
    return dataclasses.replace(cfg, loss=loss)


def ablate(cfg: ExperimentConfig, param: str, values, out_dir) -> SweepResult:
    """Full two-stage run per value with shared seeds; one CSV row each.

    A failing value marks its row "failed" and the sweep continues; the
    caller turns ``failed`` into a nonzero exit at the end.
    """
    if param not in SWEEP_PARAMS:
        raise InputError(f"param must be one of {SWEEP_PARAMS}")
    values = list(values)
    if len(values) < 2:
        raise InputError("need at least two values to sweep")
    run_cfgs = [_sweep_config(cfg, param, v) for v in values]
    # Every swept field lives in cfg.loss, so one split serves all values.
    _, labels, train_idx, _ = dataset_split(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    failed = False
    for value, run_cfg in zip(values, run_cfgs):
        sub = out / f"{param}={value}"
        try:
            stage_one = train_contrastive(run_cfg, sub)
            stage_two = train_classifier(run_cfg, stage_one.checkpoint, sub)
            positives = positive_pair_count(
                labels[train_idx], run_cfg.loss.measure, run_cfg.loss.alpha
            )
            r = stage_two.report
            rows.append(
                (
                    param,
                    value,
                    r.map,
                    r.cp,
                    r.cr,
                    r.cf1,
                    r.op,
                    r.or_,
                    r.of1,
                    positives / len(train_idx),
                    "ok",
                )
            )
        except (InputError, NumericError, OSError) as exc:
            failed = True
            rows.append((param, value, "", "", "", "", "", "", "", "", f"failed:{type(exc).__name__}"))
    table = out / "sweep.csv"
    _write_csv(
        table,
        cfg,
        "param,value,map,cp,cr,cf1,op,or,of1,mean_positive_set_size,status",
        rows,
    )
    return SweepResult(table=table, rows=tuple(rows), failed=failed)
