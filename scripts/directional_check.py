"""Paired-seed comparison: does the contrastive term help held-out mAP?

For each seed, runs ``pipeline.ablate`` over lambda from the config
(default 0.3) and lambda 0, then prints per-seed holdout mAP and the paired
mean difference.  A seed whose sweep has a failed row ends the script with
exit status 1, naming the seed.  A config the package rejects, or one that
cannot be read, ends it with exit status 2 and one ``error:`` line, as the
``mixcon`` command does.

Usage: python scripts/directional_check.py [--config cfg.json] [--seeds 0,1,2,3,4]
"""

import argparse
import dataclasses
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mixcon.config import ExperimentConfig, load_config
from mixcon.errors import InputError
from mixcon.pipeline import ablate


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=None)
    parser.add_argument("--seeds", default="0,1,2,3,4")
    parser.add_argument("--out", default="runs/directional")
    args = parser.parse_args()
    try:
        base = load_config(args.config) if args.config else ExperimentConfig()
    except (InputError, OSError) as exc:
        parser.error(str(exc))
    seeds = [int(s) for s in args.seeds.split(",")]
    with_pcl, without_pcl = [], []
    for seed in seeds:
        cfg = dataclasses.replace(base, seed=seed)
        try:
            sweep = ablate(cfg, "lambda", [repr(cfg.loss.lam), "0"], Path(args.out) / f"seed{seed}")
        except InputError as exc:
            parser.error(str(exc))
        if sweep.failed:
            statuses = ", ".join(f"lambda={row[1]}: {row[-1]}" for row in sweep.rows)
            sys.exit(f"seed {seed}: {statuses}")
        (_, _, m_on, *_), (_, _, m_off, *_) = sweep.rows
        with_pcl.append(m_on)
        without_pcl.append(m_off)
        print(f"seed {seed}: mAP with contrastive {m_on:.4f}, without {m_off:.4f}, diff {m_on - m_off:+.4f}")
    mean_on = math.fsum(with_pcl) / len(seeds)
    mean_off = math.fsum(without_pcl) / len(seeds)
    print(f"mean with {mean_on:.4f}  mean without {mean_off:.4f}  margin {mean_on - mean_off:+.4f}")


if __name__ == "__main__":
    main()
