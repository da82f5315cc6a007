"""Benchmark of mixcon: four workloads, timed end to end, outputs checked.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

For each workload the benchmark starts fresh worker processes (see
``worker.py``) with single-threaded BLAS: several that only set up, for
``setup_s``, then one that times whole repeats for about ``--seconds``
and checks what they wrote.  With ``--trace 0`` it prints the end-to-end
metrics; with ``--trace 1`` the per-layer metrics of a traced run and the
tracing overhead.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every operation and check passed, 1 when one failed, and 2 when
the benchmark itself could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train-b64", "train-b8", "sweep-lambda", "classify-large")
DEFAULT_SEED = 0
DEFAULT_SECONDS = 20
TIME_LIMIT_S = 170.0
# Set-ups per run; classify-large's trains a stage one, so it gets fewer.
SETUP_RUNS = {"classify-large": 3}
DEFAULT_SETUP_RUNS = 7
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "holdout_map": "ratio"}
BLAS_THREADS = "1"


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _spawn(args: list[str], deadline: float) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    started = time.monotonic()
    command = [sys.executable, str(HERE / "worker.py"), *args, "--spawned-at", repr(started)]
    try:
        proc = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker passed the time limit: {' '.join(args)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload, print its metrics, and return its result object."""
    deadline = time.monotonic() + TIME_LIMIT_S
    run_dir = HERE / "_runs" / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    common = [
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--run-dir", str(run_dir),
    ]
    setup_runs = 1 if trace else SETUP_RUNS.get(name, DEFAULT_SETUP_RUNS)
    setups = [_spawn([*common, "--setup-only"], deadline)["setup_s"] for _ in range(setup_runs)]
    result = _spawn(common, deadline)
    for error in result["errors"]:
        print(f"{name}: FAILED {error}", file=sys.stderr)
    if not result["errors"]:
        shutil.rmtree(run_dir)
    if trace:
        values = result["per_layer"]
        units = tracing.UNITS
        notes = {"stage-one steps": result["counts"]["stage1_steps"],
                 "stage-two steps": result["counts"]["stage2_steps"]}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(result["wall_s"]),
            "peak_rss_mb": result["peak_rss_mb"],
            "holdout_map": result["holdout_map"] or 0.0,
        }
        units = END_TO_END_UNITS
        notes = {"set-ups": len(setups), "untraced repeats": len(result["wall_s"])}
    print(f"== {name}  seed {seed}  seconds {seconds:g}  trace {trace}")
    for metric, value in values.items():
        print(f"  {metric:32s} {value:14.6f} {units[metric]}")
    print("  " + "  ".join(f"{k} {v}" for k, v in notes.items()))
    print(f"  attempted {result['attempted']}  failed {result['failed']}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mixcon" / "__init__.py").is_file():
        print(f"error: no mixcon sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {n: run_workload(n, args.seed, args.seconds, args.trace) for n in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        (summary,) = results.values()
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
