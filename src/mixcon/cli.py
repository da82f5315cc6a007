"""Command-line entry points for the two-stage pipeline.

Exit codes, which the scripts under ``scripts/`` share through
:func:`exit_code_of`:
  0  success
  1  ablation sweep finished but at least one value failed
  2  configuration or argument problem (also used by argparse itself)
  3  I/O problem (missing or unwritable files)
  4  numeric failure (non-finite loss or values)
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Callable

from .config import ExperimentConfig, load_config, save_config
from .errors import InputError, NumericError
from .pipeline import SPLITS, SWEEP_PARAMS, ablate, evaluate, train_classifier, train_contrastive

EXIT_OK = 0
EXIT_SWEEP_PARTIAL = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixcon",
        description="Two-stage probabilistic contrastive training on synthetic multi-label data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, checkpoint=False):
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        if checkpoint:
            p.add_argument("--checkpoint", required=True, help="input checkpoint path")

    p = sub.add_parser("train-contrastive", help="stage one: encoder + mixture head")
    common(p)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("train-classifier", help="stage two: frozen encoder, linear head")
    common(p, checkpoint=True)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("evaluate", help="write a metrics report for a trained classifier")
    common(p, checkpoint=True)
    p.add_argument("--out", required=True, help="output report path (JSON)")
    p.add_argument("--split", choices=SPLITS, default="holdout")

    p = sub.add_parser("ablate", help="two-stage sweep over one loss hyperparameter")
    common(p)
    p.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    p.add_argument("--values", required=True, help="comma-separated sweep values")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("write-config", help="write the default experiment config")
    p.add_argument("--out", required=True, help="output config path")
    return parser


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _run(args) -> int:
    if args.command == "write-config":
        save_config(args.out, ExperimentConfig())
        print(f"wrote default config to {args.out}")
        return EXIT_OK
    cfg = _load(args)
    if args.command == "train-contrastive":
        result = train_contrastive(cfg, args.out)
        print(
            f"stage one done: epoch total {result.first_epoch_total:.4f} -> "
            f"{result.last_epoch_total:.4f}; checkpoint {result.checkpoint}"
        )
        return EXIT_OK
    if args.command == "train-classifier":
        result = train_classifier(cfg, args.checkpoint, args.out)
        print(
            f"stage two done: holdout mAP {result.report.map:.4f}; "
            f"report {result.report_path}"
        )
        return EXIT_OK
    if args.command == "evaluate":
        report = evaluate(cfg, args.checkpoint, args.out, split=args.split)
        print(f"{args.split} mAP {report.map:.4f}; report {args.out}")
        return EXIT_OK
    # ablate: argparse's required subparsers admit no other command.
    values = [s.strip() for s in args.values.split(",")]
    result = ablate(cfg, args.param, values, args.out)
    for failure in result.failures:
        print(failure, file=sys.stderr)
    status = "with failures" if result.failed else "ok"
    print(f"sweep {status}: {result.table}")
    return EXIT_SWEEP_PARTIAL if result.failed else EXIT_OK


def exit_code_of(body: Callable[[], int], prog: str | None = None) -> int:
    """Run ``body`` and return its exit code.  A package failure becomes one
    stderr line, prefixed with ``prog`` when one is given, and the exit
    code of its family: :class:`InputError` 2, :class:`OSError` 3 and
    :class:`NumericError` 4."""
    prefix = f"{prog}: " if prog else ""
    try:
        return body()
    except InputError as exc:
        print(f"{prefix}error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"{prefix}i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericError as exc:
        print(f"{prefix}numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return exit_code_of(lambda: _run(args))


if __name__ == "__main__":
    sys.exit(main())
