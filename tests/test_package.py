"""Stale-import guard: the public namespace and every script still load."""

import subprocess
import sys
from pathlib import Path

import pytest

import mixcon

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


def test_every_public_name_resolves():
    missing = [name for name in mixcon.__all__ if not hasattr(mixcon, name)]
    assert missing == []
    assert len(set(mixcon.__all__)) == len(mixcon.__all__)


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
