"""Two-stage training pipeline and ablation sweeps.

Stage one trains the encoder and mixture head on the combined density
plus weighted-contrastive objective over augmented view pairs.  Stage
two freezes everything but the linear classifier head and trains it
with the asymmetric loss on raw (un-augmented) features, then reports
held-out metrics.

Every derived random stream gets its own splitmix64 namespace, named in
the one stream table in ``data.py``, so the dataset, split, init,
per-epoch shuffles and the augmentation seed of each stage-one step are
all independent functions of the single experiment seed; a step's whole
batch of views is reproducible from (seed, step).  Artifacts
(checkpoints, loss CSVs, metric reports) embed the config hash and seed
and are byte-identical across reruns of the same config.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tape
from .config import (
    ExperimentConfig,
    OptimConfig,
    config_hash,
    config_json,
    differing_fields,
    to_dict,
)
from .data import (
    STREAM_CLASSIFIER_SHUFFLE,
    STREAM_CONTRASTIVE_SHUFFLE,
    STREAM_INIT,
    STREAM_SPLIT,
    STREAM_VIEWS,
    generate_synthetic,
    make_contrastive_batch,
    splitmix64,
)
from .errors import InputError, NumericError
from .losses import asl_loss_t, nll_loss_t, pcl_loss_t
from .metrics import HEADLINE, MetricsReport, PredictionSet, pr_f1_report, report_to_json
from .model import (
    classifier_forward,
    encoder_bytes,
    encoder_forward,
    encoder_forward_t,
    init_params,
    load_checkpoint,
    mdn_forward_t,
    param_layout,
    params_to_tensors,
    save_checkpoint,
)
from .optim import adam_step, init_adam, one_cycle_lr
from .overlap import positive_pair_count

SWEEP_PARAMS = ("tau", "alpha", "lambda", "measure")
SPLITS = ("train", "holdout")


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
    features, labels = generate_synthetic(cfg.data, cfg.seed)
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
        # float() first: a np.float64 is a float whose repr names its type.
        lines.append(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _save_checkpoint(cfg: ExperimentConfig, out: Path, params, kind: str) -> Path:
    """Write ``out/{kind}.ckpt`` stamped with the config's seed, tree and hash."""
    path = out / f"{kind}.ckpt"
    save_checkpoint(
        path, params, kind=kind, seed=cfg.seed, config=to_dict(cfg), config_hash=config_hash(cfg)
    )
    return path


@functools.cache
def _keep_freed_heap_mapped() -> None:
    """Tell glibc to keep freed memory mapped for the rest of the process.

    A training step frees its whole tape graph, and by default glibc
    serves the (R, B, B) similarity blocks from their own mappings and
    trims the freed top of the heap, so the next step faults every page
    back in.  Where the C library has no ``mallopt`` this does nothing.
    Allocation placement moves no output byte.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    # M_MMAP_THRESHOLD: blocks below this come from the heap, not from a
    # mapping of their own; 32 MiB is glibc's ceiling on 64-bit systems.
    mallopt(-3, 32 << 20)
    # M_TRIM_THRESHOLD: free space at the top of the heap is handed back
    # to the kernel only once it exceeds this.
    mallopt(-1, 256 << 20)


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
    """The epoch loop both stages share; writes the trained entries back
    into ``params`` after the last epoch.

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
    _keep_freed_heap_mapped()
    state = init_adam(params, keys=tuple(k for k in params if k.startswith(trainable)))
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
            pt = params_to_tensors(state.views)
            try:
                parts = batch_loss(pt, data)
                tape.backward(parts[-1])
            except NumericError as exc:
                raise NumericError(
                    f"{exc} ({objective} objective, epoch {epoch}, step {step})"
                ) from exc
            lr = one_cycle_lr(step, total_steps, optim)
            adam_step(state, {k: pt[k].grad for k in state.views}, lr)
            logged.append([float(part.value) for part in parts])
            # Free this step's graph now, not when the next forward rebinds
            # the names, so a step never holds two graphs at once.
            del parts, pt
            step += 1
        rows.append((epoch, *(math.fsum(c) / steps_per_epoch for c in zip(*logged)), lr))
    params.update(state.views)
    return rows


def train_contrastive(cfg: ExperimentConfig, out_dir) -> ContrastiveResult:
    """Stage one: fit encoder + mixture head, emit checkpoint and loss curve.

    Each epoch shuffles the training split and walks full-size batches
    (a trailing partial batch is skipped so every step sees a uniform
    2N-view contrastive problem).
    """
    features, labels, train_idx, _ = dataset_split(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
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
    return ContrastiveResult(
        checkpoint=_save_checkpoint(cfg, out, params, "contrastive"),
        curve=curve,
        first_epoch_total=rows[0][3],
        last_epoch_total=rows[-1][3],
    )


def _load_matching_checkpoint(cfg: ExperimentConfig, path, expected_kind: str):
    ckpt = load_checkpoint(path)
    if ckpt.kind != expected_kind:
        raise InputError(f"{path}: expected a {expected_kind} checkpoint, got {ckpt.kind}")
    fields = differing_fields(ckpt.config, cfg)
    if ckpt.config_hash != config_hash(cfg):
        raise InputError(
            f"{path}: checkpoint config hash does not match this config"
            + (f"; fields that differ: {', '.join(fields)}" if fields else "")
        )
    # The hash alone does not vouch for the rest of the header, which an
    # edit can change without it.
    if type(ckpt.seed) is not int or ckpt.seed != cfg.seed:
        fields.append("header seed")
    if fields:
        raise InputError(
            f"{path}: checkpoint header disagrees with its config hash; "
            f"fields that differ: {', '.join(fields)}"
        )
    found = [(name, value.shape) for name, value in ckpt.params.items()]
    for want, got in itertools.zip_longest(param_layout(cfg.model), found):
        if want != got:
            want, got = (f"{t[0]!r} of shape {t[1]}" if t else "no tensor" for t in (want, got))
            raise InputError(
                f"{path}: checkpoint tensors do not fit the model: expected {want}, found {got}"
            )
    return ckpt


def train_classifier(cfg: ExperimentConfig, contrastive_checkpoint, out_dir) -> ClassifierResult:
    """Stage two: train only the linear head; the encoder must not move.

    Embeddings are precomputed once (the encoder is frozen) and the
    labels are checked to be 0 or 1 once.  The head is trained with the
    asymmetric loss on every batch including a trailing partial one; each
    step's tape holds the two head leaves and the one fused loss node.
    The encoder bytes are compared before and after as a hard guarantee.
    """
    ckpt = _load_matching_checkpoint(cfg, contrastive_checkpoint, "contrastive")
    params = ckpt.params
    features, labels, train_idx, hold_idx = dataset_split(cfg)
    y_train = labels[train_idx]
    if not ((y_train == 0) | (y_train == 1)).all():
        raise InputError("label entries must be 0 or 1")
    positive = y_train == 1
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    frozen_before = encoder_bytes(params)
    embeddings = encoder_forward(params, features[train_idx], cfg.model)

    def batch_loss(pt, idx):
        return (asl_loss_t(pt["cls.w"], pt["cls.b"], embeddings[idx], positive[idx], cfg.asl),)

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
    ckpt_path = _save_checkpoint(cfg, out, params, "classifier")
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
    if split not in SPLITS:
        raise InputError(f"split must be one of {SPLITS}")
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
    # Two spellings of one value, such as 0.3 and 0.30, would train the
    # same config twice.
    repeated = [v for i, v in enumerate(values) if run_cfgs[i] in run_cfgs[:i]]
    if repeated:
        raise InputError(f"sweep value {str(repeated[0])!r} for {param} is repeated")
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
            metrics = (*stage_two.report.headline().values(), positives / len(train_idx))
            rows.append((param, value, *metrics, "ok"))
        except (InputError, NumericError, OSError) as exc:
            failed = True
            blanks = [""] * (len(HEADLINE) + 1)
            rows.append((param, value, *blanks, f"failed:{type(exc).__name__}"))
    table = out / "sweep.csv"
    header = ("param", "value", *HEADLINE, "mean_positive_set_size", "status")
    _write_csv(table, cfg, ",".join(header), rows)
    return SweepResult(table=table, rows=tuple(rows), failed=failed)
