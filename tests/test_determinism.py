"""Artifacts and encoder outputs do not depend on the BLAS thread count.

The suite itself pins one BLAS thread (see conftest.py).  These tests run
child processes whose environment alone sets one or two threads, and
compare what they write byte for byte: the small-config artifacts of
``scripts/artifact_digest.py``, and ``model.encoder_forward`` on a
40,000-row block (the ``classify-large`` evaluation shape), large enough
for OpenBLAS to split one matrix product across its threads.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ENCODER_PROBE = """
import ctypes, glob, hashlib, os
import numpy as np
from mixcon.config import ExperimentConfig
from mixcon.model import encoder_forward, init_params

cfg = ExperimentConfig()
params = init_params(cfg.model, seed=0)
x = np.random.default_rng(0).normal(size=(40000, cfg.model.input_dim))
print(hashlib.sha256(encoder_forward(params, x, cfg.model).tobytes()).hexdigest())
# The thread count OpenBLAS took from the environment, where it can be read.
libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
getter = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_num_threads64_", None) if libs else None
if getter is not None:
    getter.argtypes, getter.restype = [], ctypes.c_int
print(getter() if getter is not None else "unknown")
"""


def run_child(args, threads: int) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    done = subprocess.run(
        [sys.executable, *args], env=env, cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_artifacts_match_under_one_and_two_blas_threads(tmp_path):
    script = str(ROOT / "scripts" / "artifact_digest.py")
    one = run_child([script, "--out", str(tmp_path / "one")], threads=1)
    two = run_child([script, "--out", str(tmp_path / "two")], threads=2)
    assert len(one.splitlines()) == 30
    assert one == two


def test_large_encoder_forward_matches_under_one_and_two_blas_threads():
    one = run_child(["-c", ENCODER_PROBE], threads=1).split()
    two = run_child(["-c", ENCODER_PROBE], threads=2).split()
    assert one[0] == two[0]
    assert (one[1], two[1]) in (("1", "2"), ("unknown", "unknown"))
