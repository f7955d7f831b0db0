"""Shared fixtures."""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def child_env() -> dict:
    """Environment for a child interpreter: this checkout's src directory
    ahead of any PYTHONPATH, so the child imports the dyadlab under test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return env
