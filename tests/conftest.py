"""Shared test set-up.

``pyproject.toml`` puts ``src`` on this process's import path; tests that
start ``python -m cfoptics`` in a child process need it there as well, so
plain ``pytest`` works from a source checkout without installing.
"""

import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture(autouse=True, scope="session")
def child_processes_import_the_source_tree():
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", SRC, prepend=os.pathsep)
        yield
