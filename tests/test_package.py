"""Stale-import guard: the public namespace and every script still load,
and importing the package pulls in no test-only dependency."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mixcon

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_every_public_name_resolves():
    missing = [name for name in mixcon.__all__ if not hasattr(mixcon, name)]
    assert missing == []
    assert len(set(mixcon.__all__)) == len(mixcon.__all__)


def test_import_loads_no_test_dependency():
    # numpy is the only runtime dependency; scipy, hypothesis and pytest
    # serve the tests alone.
    probe = (
        "import sys, mixcon; "
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'hypothesis', 'pytest'}))"
    )
    src = str(ROOT / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_scripts_exist():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help_exits_cleanly(script):
    done = subprocess.run(
        [sys.executable, str(script), "--help"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "usage" in done.stdout.lower()
