"""Regenerate the reference data in refs/ for the sweeps and the calibration.

    python3 perfbench/make_refs.py            # seeds 0-24 and 12345

Run it from the root of a source checkout, on the numpy build the
references should describe; the build is recorded in each file.  Values
are kept to 12 significant digits, far below workloads.REF_ATOL.  A
regeneration changes the references, so it belongs in its own change,
with the reason stated.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import run  # noqa: E402
from workloads import (  # noqa: E402
    DELTA_FILES, REF_ROWS, REFS, SPECTRAL_FILES, WORKLOADS,
    calibration_values, sweep_values,
)

SEEDS = list(range(25)) + [12345]


def _digits(values) -> list[float]:
    return [float(f"{v:.12g}") for v in np.atleast_1d(values)]


def extract(name: str, run_dir: Path) -> dict:
    if name == "calibration":
        got = calibration_values(run_dir)
        return {"v": _digits(got["v"]), "vis": _digits(got["vis"]),
                "w_cp_estimate": _digits(got["w_cp_estimate"])[0]}
    files = DELTA_FILES if name == "delta-sweep" else SPECTRAL_FILES
    ref = {}
    for f in files:
        re, im = sweep_values(run_dir / f)
        ref[f] = {"re": _digits(re[REF_ROWS]), "im": _digits(im[REF_ROWS])}
    return ref


def main() -> int:
    ltgsim = run.import_ltgsim()
    REFS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for name in ("delta-sweep", "spectral-sweep", "calibration"):
            workload = WORKLOADS[name]
            seeds = {}
            for seed in SEEDS:
                out_dir = Path(tmp) / name / str(seed)
                with contextlib.redirect_stdout(io.StringIO()):
                    rcs = [ltgsim.cli.main(argv) for argv in workload.argvs(seed, out_dir)]
                if any(rcs):
                    raise SystemExit(f"{name} seed {seed}: exit codes {rcs}")
                seeds[str(seed)] = extract(name, out_dir / "run")
                print(f"{name} seed {seed}", flush=True)
            doc = {"workload": name, "numpy": np.__version__, "seeds": seeds}
            (REFS / f"{name}.json").write_text(json.dumps(doc) + "\n")
            # The fresh references must pass every check, seed-independent ones included.
            for seed in SEEDS:
                error = run.check_output(workload, seed, Path(tmp) / name / str(seed))
                if error:
                    raise SystemExit(f"{name} seed {seed}: {error}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
