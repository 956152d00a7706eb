"""Shared test set-up.

``pyproject.toml`` puts ``src`` on this process's import path; tests that
start ``python -m cfoptics`` in a child process need it there as well, so
plain ``pytest`` works from a source checkout without installing.

Hypothesis imports ``hypothesis.extra._patching`` when a property fails.
Where libcst is installed that import can raise a ``DeprecationWarning``,
which ``filterwarnings = ["error"]`` turns into an INTERNALERROR that ends
the session with no report of the failure.  Importing the module here once,
with that warning ignored, leaves the failure hook nothing to import.
"""

import os
import warnings

import pytest

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture(autouse=True, scope="session")
def child_processes_import_the_source_tree():
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", SRC, prepend=os.pathsep)
        yield
