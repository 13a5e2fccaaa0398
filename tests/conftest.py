"""Shared fixtures for the test suite."""
from pathlib import Path

import pytest

import ltgsim

# The directory holding the ``ltgsim`` package this test process imported, so
# child ``python -m ltgsim`` runs execute the same checkout as the in-process
# tests, whether or not (and wherever) the package is installed.
PACKAGE_ROOT = str(Path(ltgsim.__file__).resolve().parents[1])


@pytest.fixture(scope="session")
def child_env(tmp_path_factory):
    """Return a builder of minimal environments for ``python -m ltgsim`` runs.

    ``child_env(OMP_NUM_THREADS="4", ...)`` gives the given variables plus a
    fixed ``PATH``, ``PYTHONPATH`` set to :data:`PACKAGE_ROOT` and
    ``PYTHONPYCACHEPREFIX`` set to one directory of the session, so children
    write no bytecode into the checkout; nothing else of the parent
    environment is passed on.
    """
    cache = str(tmp_path_factory.mktemp("pycache"))

    def make(**variables):
        return {**variables, "PATH": "/usr/bin:/bin", "PYTHONPATH": PACKAGE_ROOT,
                "PYTHONPYCACHEPREFIX": cache}

    return make
