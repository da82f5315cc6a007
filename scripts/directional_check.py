"""Paired-seed comparison: does the contrastive term help held-out mAP?

For each seed, runs ``pipeline.ablate`` over lambda from the config
(default 0.3) and lambda 0, then prints per-seed holdout mAP and the paired
mean difference.  A seed whose sweep has a failed row ends the script with
exit status 1, naming the seed and why each failed value failed.  As the
``mixcon`` command does (both map failures with ``cli.exit_code_of``), a
config the package rejects or a ``--seeds`` list that is not distinct
integers ends it with exit status 2 and one ``error:`` line, a file that
cannot be read or written (a missing config, an ``--out`` that is a file)
with exit status 3 and one ``i/o error:`` line, and a drawn dataset that
overflows with exit status 4 and one ``numeric error:`` line.

Usage: python scripts/directional_check.py [--config cfg.json] [--seeds 0,1,2,3,4]
"""

import argparse
import dataclasses
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mixcon.cli import EXIT_OK, exit_code_of
from mixcon.config import ExperimentConfig, load_config
from mixcon.pipeline import ablate


def seed_list(text):
    """``--seeds``: comma-separated integers, none repeated, since a repeat
    would count one seed twice in the paired mean."""
    try:
        seeds = [int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}")
    if len(set(seeds)) < len(seeds):
        raise argparse.ArgumentTypeError(f"a seed is repeated: {text!r}")
    return seeds


def compare(args):
    base = load_config(args.config) if args.config else ExperimentConfig()
    with_pcl, without_pcl = [], []
    for seed in args.seeds:
        cfg = dataclasses.replace(base, seed=seed)
        sweep = ablate(cfg, "lambda", [repr(cfg.loss.lam), "0"], Path(args.out) / f"seed{seed}")
        if sweep.failed:
            sys.exit(f"seed {seed}: {'; '.join(sweep.failures)}")
        (_, _, m_on, *_), (_, _, m_off, *_) = sweep.rows
        with_pcl.append(m_on)
        without_pcl.append(m_off)
        print(f"seed {seed}: mAP with contrastive {m_on:.4f}, without {m_off:.4f}, diff {m_on - m_off:+.4f}")
    mean_on = math.fsum(with_pcl) / len(args.seeds)
    mean_off = math.fsum(without_pcl) / len(args.seeds)
    print(f"mean with {mean_on:.4f}  mean without {mean_off:.4f}  margin {mean_on - mean_off:+.4f}")
    return EXIT_OK


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=None)
    parser.add_argument("--seeds", type=seed_list, default="0,1,2,3,4")
    parser.add_argument("--out", default="runs/directional")
    args = parser.parse_args()
    sys.exit(exit_code_of(lambda: compare(args), parser.prog))


if __name__ == "__main__":
    main()
