"""The benchmark's four workloads: config, set-up, and one timed repeat.

Each workload drives the public API of ``mixcon.pipeline``.  A repeat is
a fixed list of top-level pipeline calls (the workload's operations),
written into a fresh output directory.  Every input is a function of the
workload seed alone, so two repeats of one run write the same bytes.
"""

from __future__ import annotations

import dataclasses
import statistics
from dataclasses import dataclass
from pathlib import Path

from mixcon import model, pipeline
from mixcon.config import DataConfig, ExperimentConfig, OptimConfig, config_hash, to_dict

NAMES = ("train-b64", "train-b8", "sweep-lambda", "classify-large")
SWEEP_VALUES = ("0", "0.3")
LARGE_SAMPLES = 40000


@dataclass(frozen=True)
class RepeatResult:
    """What one repeat did: operations that completed, and the first error."""

    ops: int
    done: int
    holdout_map: float | None
    error: str | None

    @property
    def failed(self) -> int:
        return self.ops - self.done


def config(name: str, seed: int) -> ExperimentConfig:
    """The benchmark config of workload ``name`` for ``seed``.

    Model and data stay at their defaults except the large set.  Epoch
    counts are cut so one repeat takes seconds; stage two gets more epochs
    than the default so holdout mAP varies little from seed to seed.
    """
    if name == "train-b64":
        optim = OptimConfig(batch_size=64, contrastive_epochs=2, classifier_epochs=80)
        return ExperimentConfig(optim=optim, seed=seed)
    if name == "train-b8":
        optim = OptimConfig(batch_size=8, contrastive_epochs=3, classifier_epochs=10)
        return ExperimentConfig(optim=optim, seed=seed)
    if name == "sweep-lambda":
        optim = OptimConfig(batch_size=64, contrastive_epochs=1, classifier_epochs=40)
        return ExperimentConfig(optim=optim, seed=seed)
    if name == "classify-large":
        optim = OptimConfig(batch_size=64, contrastive_epochs=1, classifier_epochs=10)
        return ExperimentConfig(
            data=DataConfig(num_samples=LARGE_SAMPLES), optim=optim, seed=seed
        )
    raise ValueError(f"unknown workload {name!r}")


def ops_per_repeat(name: str) -> int:
    return len(SWEEP_VALUES) if name == "sweep-lambda" else 3


def start_checkpoint(run_dir: Path) -> Path:
    return Path(run_dir) / "start" / "contrastive.ckpt"


def prepare(name: str, cfg: ExperimentConfig, run_dir: Path) -> None:
    """Set-up beyond imports and the dataset: the stage-one checkpoint that
    ``classify-large`` starts from.

    The class prototypes depend on the seed and not on ``num_samples``, so
    a stage one on the default-size set of the same seed is saved under
    the large config.
    """
    if name != "classify-large":
        return
    small = dataclasses.replace(cfg, data=DataConfig())
    stage_one = pipeline.train_contrastive(small, Path(run_dir) / "start" / "small")
    params = model.load_checkpoint(stage_one.checkpoint).params
    model.save_checkpoint(
        start_checkpoint(run_dir),
        params,
        kind="contrastive",
        seed=cfg.seed,
        config=to_dict(cfg),
        config_hash=config_hash(cfg),
    )


def run_repeat(name: str, cfg: ExperimentConfig, run_dir: Path, out: Path) -> RepeatResult:
    """Run the workload's operations once, into ``out``.

    An operation fails if it raises or writes a ``failed:`` sweep row; an
    exception also fails every operation after it in the repeat.
    """
    ops = ops_per_repeat(name)
    done = 0
    holdout_map = None
    try:
        if name == "sweep-lambda":
            sweep = pipeline.ablate(cfg, "lambda", SWEEP_VALUES, out)
            ok = [row for row in sweep.rows if row[-1] == "ok"]
            done = len(ok)
            if done == ops:
                holdout_map = statistics.fmean(row[2] for row in ok)
            return RepeatResult(ops, done, holdout_map, None if done == ops else "failed sweep row")
        if name == "classify-large":
            checkpoint = start_checkpoint(run_dir)
        else:
            checkpoint = pipeline.train_contrastive(cfg, out).checkpoint
            done += 1
        stage_two = pipeline.train_classifier(cfg, checkpoint, out)
        done += 1
        holdout_map = stage_two.report.map
        splits = ("train", "holdout") if name == "classify-large" else ("holdout",)
        for split in splits:
            pipeline.evaluate(cfg, stage_two.checkpoint, out / f"eval_{split}.json", split)
            done += 1
    except Exception as exc:  # a failed operation is counted, not fatal
        return RepeatResult(ops, done, None, f"{type(exc).__name__}: {exc}")
    return RepeatResult(ops, done, holdout_map, None)
