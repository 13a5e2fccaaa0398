"""Shared fixtures for the test suite."""
from pathlib import Path

import pytest

import ltgsim

# The directory holding the ``ltgsim`` package this test process imported, so
# child ``python -m ltgsim`` runs execute the same checkout as the in-process
# tests, whether or not (and wherever) the package is installed.
PACKAGE_ROOT = str(Path(ltgsim.__file__).resolve().parents[1])


@pytest.fixture(scope="session")
def child_env():
    """Return a builder of minimal environments for ``python -m ltgsim`` runs.

    ``child_env(OMP_NUM_THREADS="4", ...)`` gives the given variables plus a
    fixed ``PATH`` and ``PYTHONPATH`` set to :data:`PACKAGE_ROOT`; nothing else
    of the parent environment is passed on.
    """

    def make(**variables):
        return {**variables, "PATH": "/usr/bin:/bin", "PYTHONPATH": PACKAGE_ROOT}

    return make
