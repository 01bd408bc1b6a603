"""Shared fixtures."""

import os
from pathlib import Path

import pytest

import folnerlab


@pytest.fixture()
def child_env():
    """Environment builder for a child `python -m folnerlab`.

    The child may run in another working directory, so the directory this
    package was imported from goes first on its PYTHONPATH as an absolute
    path; a relative entry inherited from the parent would not resolve there.
    """
    source = str(Path(folnerlab.__file__).resolve().parents[1])

    def make(**overrides: str) -> dict[str, str]:
        env = dict(os.environ)
        inherited = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        env["PYTHONPATH"] = os.pathsep.join([source] + inherited)
        env.update(overrides)
        return env

    return make
