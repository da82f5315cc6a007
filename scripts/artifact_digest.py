"""Run a fixed small config through every command and print artifact digests.

The config is the default one with 240 samples, batch size 16, three
contrastive and three classifier epochs, and seed 5.  It goes through
train-contrastive, train-classifier, evaluate on both splits, and two
ablate sweeps: lambda over 0 and 0.3, and measure over jaccard and cosine.
Every file written under --out is then listed as one ``sha256  path`` line,
with paths relative to --out and sorted.  Two checkouts that print the same
lines wrote byte-identical artifacts, so a change meant not to move the
math can be checked by running this at both and comparing the output.

A failed command ends the script with that command's exit code, and a
file that cannot be written (an ``--out`` under a regular file, say) with
exit status 3 and one ``i/o error:`` line, as the ``mixcon`` command does.

Usage: python scripts/artifact_digest.py --out DIR   (DIR must be an empty directory or absent)
"""

import argparse
import contextlib
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mixcon.cli import EXIT_OK, exit_code_of
from mixcon.cli import main as mixcon
from mixcon.config import DataConfig, ExperimentConfig, OptimConfig, save_config

CONFIG = ExperimentConfig(
    data=DataConfig(num_samples=240),
    optim=OptimConfig(batch_size=16, contrastive_epochs=3, classifier_epochs=3),
    seed=5,
)


def commands(cfg_path: Path, out: Path) -> list[list[str]]:
    run = out / "run"
    cfg = ["--config", str(cfg_path)]
    return [
        ["train-contrastive", *cfg, "--out", str(run)],
        ["train-classifier", *cfg, "--checkpoint", str(run / "contrastive.ckpt"), "--out", str(run)],
        *(
            ["evaluate", *cfg, "--checkpoint", str(run / "classifier.ckpt"),
             "--out", str(run / f"eval_{split}.json"), "--split", split]
            for split in ("train", "holdout")
        ),
        ["ablate", *cfg, "--param", "lambda", "--values", "0,0.3", "--out", str(out / "sweep_lambda")],
        ["ablate", *cfg, "--param", "measure", "--values", "jaccard,cosine",
         "--out", str(out / "sweep_measure")],
    ]


def digest(out: Path, prog: str) -> int:
    out.mkdir(parents=True, exist_ok=True)
    cfg_path = out / "config.json"
    save_config(cfg_path, CONFIG)
    for argv in commands(cfg_path, out):
        # The commands' progress lines go to stderr; stdout holds digests only.
        with contextlib.redirect_stdout(sys.stderr):
            code = mixcon(argv)
        if code != EXIT_OK:
            print(f"{prog}: mixcon {argv[0]} exited with code {code}", file=sys.stderr)
            return code
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        sha = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{sha}  {path.relative_to(out).as_posix()}")
    return EXIT_OK


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, help="output directory, empty or absent")
    args = parser.parse_args()
    out = Path(args.out)
    if out.exists() and (not out.is_dir() or any(out.iterdir())):
        parser.error(f"{out} is not an empty directory")
    sys.exit(exit_code_of(lambda: digest(out, parser.prog), parser.prog))


if __name__ == "__main__":
    main()
