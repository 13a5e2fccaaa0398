"""Shared fixtures for the test suite."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

import ltgsim
from ltgsim.cli import data_section

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


# Configs of the thread-count children beside the presets: mc-moment at
# gamma = 1 on the default 400-point grid, so the reduction sweeps several row
# chunks and a partial one; at gamma = 100 a row holds ~630 jumps, so the
# direct pass runs instead, over chunks of about 60 rows; and the optics table.
THREAD_CONFIGS = {
    **{f"mc-moment-{mode}": {"command": "mc-moment", "rtn": {"gamma": gamma},
                             "mc": {"order": order, "n_real": n_real, "antithetic": mode == "antithetic"}}
       for mode, gamma, order, n_real in (("antithetic", 1.0, 4, 3000), ("plain", 1.0, 2, 3000),
                                          ("dense", 100.0, 2, 1000))},
    "optics-table": {"command": "optics-table", "optics": {"widths_nm": [1.0, 40.0]}},
}
THREAD_SOURCES = ("fig3-left", "fig4-left", "fig4-right", "figS-calibration", *THREAD_CONFIGS)

# Runs ``cli.main`` on each argv list in one fresh interpreter and prints, as
# its last line, whether scipy was loaded after the import and after each run.
_MAIN_PROBE = """
import json, sys
import ltgsim.cli as cli
loaded = ["scipy" in sys.modules]
for argv in json.loads(sys.argv[1]):
    if cli.main(argv) != 0:
        sys.exit(3)
    loaded.append("scipy" in sys.modules)
print(json.dumps(loaded))
"""


@pytest.fixture(params=THREAD_SOURCES)
def thread_source(request):
    """Each name of THREAD_SOURCES in turn."""
    return request.param


@pytest.fixture(scope="session")
def thread_count_outputs(tmp_path_factory, child_env):
    """One child interpreter per thread budget (1, 4 and 8) runs every source
    of THREAD_SOURCES; per child, each source's CSV data sections by file
    name, and whether scipy was loaded after the import and after each run."""
    tmp = tmp_path_factory.mktemp("threads")
    sources = {}
    for name in THREAD_SOURCES:
        if name in THREAD_CONFIGS:
            path = tmp / f"{name}.json"
            path.write_text(json.dumps(THREAD_CONFIGS[name]))
            sources[name] = ["--config", str(path)]
        else:
            sources[name] = ["--preset", name]
    outs = []
    for threads in ("1", "4", "8"):
        root = tmp / f"t{threads}"
        argvs = [[*source, "--out", str(root / name)] for name, source in sources.items()]
        proc = subprocess.run(
            [sys.executable, "-c", _MAIN_PROBE, json.dumps(argvs)], capture_output=True, text=True,
            env=child_env(OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads))
        assert proc.returncode == 0, f"probe exited {proc.returncode}:\n{proc.stderr}"
        outs.append(({name: {p.name: data_section(p.read_text()) for p in sorted((root / name).glob("*.csv"))}
                      for name in sources}, json.loads(proc.stdout.strip().splitlines()[-1])))
    return outs
