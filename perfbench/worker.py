"""One benchmark process: set up a workload, time its repeats, check outputs.

Started by ``run.py``, never by hand.  With ``--setup-only`` it does the
set-up (imports, config, dataset, and the checkpoint the workload starts
from) and reports how long that took since the parent spawned it.
Otherwise it times whole repeats of the workload for about ``--seconds``,
then runs the correctness checks on what the repeats wrote.  With
``--trace 1`` it alternates untraced and traced repeats, so one process
also gives the tracing overhead.  The last stdout line is a JSON object.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import statistics
import sys
import time
from functools import partial
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from mixcon import pipeline  # noqa: E402
from mixcon.config import config_hash  # noqa: E402


class Repeat(NamedTuple):
    out: Path
    wall: float
    traced: bool
    result: workloads.RepeatResult


def _timed_repeats(name, cfg, run_dir, seconds, tracer) -> list[Repeat]:
    """Whole repeats until about ``seconds`` have passed, and at least two.
    With a tracer, untraced and traced repeats alternate in pairs."""
    group = 2 if tracer else 1
    repeats = []
    begin = time.perf_counter()
    while True:
        traced = tracer is not None and len(repeats) % 2 == 1
        out = run_dir / f"rep{len(repeats)}"
        if traced:
            tracer.install()
        start = time.perf_counter()
        try:
            result = workloads.run_repeat(name, cfg, run_dir, out)
            wall = time.perf_counter() - start
        finally:
            if traced:
                tracer.uninstall()
        repeats.append(Repeat(out, wall, traced, result))
        if result.error:
            print(f"{name} repeat {len(repeats) - 1}: {result.error}", file=sys.stderr)
        done = len(repeats)
        if done % group or done < 2:
            continue
        elapsed = time.perf_counter() - begin
        # Stop when another group would end more than half a group late.
        if elapsed + 0.5 * elapsed * group / done > seconds:
            return repeats


def _checks(name, cfg, run_dir, repeats, dataset) -> list:
    """Every check of the workload, as calls on the first repeat's artifacts."""
    features, labels, train_idx, hold_idx = dataset
    first = repeats[0].out
    todo = []

    def stage_checks(run_cfg, out, stage_one, eval_splits, losses=True):
        classifier = out / "classifier.ckpt"
        reports = [("holdout_metrics.json", "holdout")]
        reports += [(f"eval_{split}.json", split) for split in eval_splits]
        for filename, split in reports:
            idx = hold_idx if split == "holdout" else train_idx
            todo.append(partial(
                checks.check_report, out / filename, classifier, features, labels, idx,
                split=split, cfg_hash=config_hash(run_cfg),
            ))
        todo.append(partial(checks.check_frozen_encoder, stage_one, classifier))
        if losses:
            todo.append(partial(
                _check_losses, run_cfg, stage_one, features[train_idx], labels[train_idx]
            ))

    if name == "sweep-lambda":
        todo.append(partial(
            checks.check_sweep, first / "sweep.csv", workloads.SWEEP_VALUES,
            labels[train_idx], cfg.loss.alpha,
        ))
        for value in workloads.SWEEP_VALUES:
            run_cfg = dataclasses.replace(cfg, loss=dataclasses.replace(cfg.loss, lam=float(value)))
            out = first / f"lambda={value}"
            stage_checks(run_cfg, out, out / "contrastive.ckpt", ())
    elif name == "classify-large":
        stage_checks(cfg, first, workloads.start_checkpoint(run_dir), ("train", "holdout"), False)
    else:
        stage_checks(cfg, first, first / "contrastive.ckpt", ("holdout",))
    todo.append(partial(checks.check_identical, [r.out for r in repeats]))
    todo.append(partial(_check_prevalence, repeats[0].result.holdout_map, labels[hold_idx]))
    return todo


def _check_losses(cfg, stage_one, features, labels):
    checks.check_losses(cfg, checks.checkpoint_arrays(stage_one)[1], features, labels)


def _check_prevalence(holdout_map, holdout_labels):
    if holdout_map is None:
        raise checks.CheckError("no holdout mAP: the first repeat failed")
    checks.check_above_prevalence(holdout_map, holdout_labels)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    name = args.workload

    cfg = workloads.config(name, args.seed)
    dataset = pipeline.dataset_split(cfg)
    if args.setup_only:
        workloads.prepare(name, cfg, args.run_dir)
        print(json.dumps({"setup_s": time.monotonic() - args.spawned_at}))
        return 0
    if name == "classify-large" and not workloads.start_checkpoint(args.run_dir).is_file():
        raise SystemExit("no start checkpoint: run the set-up first")

    tracer = tracing.Tracer() if args.trace else None
    repeats = _timed_repeats(name, cfg, args.run_dir, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    todo = _checks(name, cfg, args.run_dir, repeats, dataset)
    check_errors = []
    for check in todo:
        try:
            check()
        except Exception as exc:  # every failed check is reported; none stops the rest
            check_errors.append(f"{check.func.__name__}: {type(exc).__name__}: {exc}")
    untraced = [r.wall for r in repeats if not r.traced]
    result = {
        "attempted": sum(r.result.ops for r in repeats) + len(todo),
        "failed": sum(r.result.failed for r in repeats) + len(check_errors),
        "errors": [r.result.error for r in repeats if r.result.error] + check_errors,
        "wall_s": untraced,
        "peak_rss_mb": peak_rss_mb,
        "holdout_map": repeats[0].result.holdout_map,
    }
    if tracer:
        traced = [r.wall for r in repeats if r.traced]
        layers, counts = tracing.layer_metrics(tracer.spans, len(traced))
        layers["trace.wall_s"] = statistics.median(traced)
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        result["per_layer"] = layers
        result["counts"] = counts
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
