"""Test-session set-up: processes the tests start import pvckit from this
checkout's ``src/``, as the tests themselves do through ``pythonpath`` in
``pyproject.toml``."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def pytest_configure(config):
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC] + [p for p in paths if p])
