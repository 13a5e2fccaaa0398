"""The committed out/ directory is golden data.

Every preset, the optics table and the Monte Carlo pair of out/mc/ are
re-run and their data sections compared, column by column, with the
committed files, and so are the calibration results of the
``# calibration`` line.  Regenerate out/ with
scripts/regenerate_out.py when a change is meant to move these numbers.
The outputs that hold bit for bit across numpy's dispatch levels are also
re-run at the AVX2 and SSE4.2 levels and compared with this process's run.
"""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.lib._utils_impl import _opt_info

from ltgsim.cli import PRESETS, data_section, run_config

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "out"


def load_regenerate_out():
    """scripts/regenerate_out.py as a module, loaded by path."""
    spec = importlib.util.spec_from_file_location("regenerate_out", ROOT / "scripts" / "regenerate_out.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The mc-moment runs the script writes to out/mc/.
MC_RUNS = load_regenerate_out().MC_RUNS

# Gamma series and calibration data.  Kernel sums run in a fixed order, so
# on one numpy build they repeat bit for bit; across builds they move by
# ~1e-15.  The fig4-right series also go through the width fits, which stop
# once a step moves the parameters by less than 1e-9 of their norm or
# would lower the cost by less than its last bit: a ~1e-14 relative change
# in the joint profile moves the widths by up to ~2e-8 (the earlier scipy
# curve_fit, stopping sooner, by up to ~6e-6).
# 1e-5 leaves room for that, while a 1 % change of w_cp moves Gamma by
# >= 1.7e-3.  The Monte Carlo pair repeats bit for bit for one seed on one
# build; a change to the draw or its stream moves the means by about one
# standard error (up to 0.017 at 2000 realizations), far above 1e-5.
SERIES_ATOL = 1e-5

# wcp_table columns.  The inputs and the chosen fit order must match
# exactly.  w_cp and w_tilde move with the fit stopping point, as above.
# w_p is a Gaussian fit to a sinc^2 marginal: the misfit leaves the
# objective flat along the width, and w_p alone moved by 5.3e-4 between
# numpy 2.2.6 and 2.4.6; 1e-2 is 0.05 % of the 20-px beam width.
TABLE_ATOL = {"spectral_width_nm": 0.0, "order": 0.0, "w_cp": 1e-5, "w_tilde": 1e-5, "w_p": 1e-2}


# The # calibration values (vis_of_v, vis_uncertainty, w_cp_estimate,
# w_cp_uncertainty).  They follow from V(h) and the contrast curve by
# closed-form steps only (one least-squares fit for all sines, a cubic
# polynomial fit, linear interpolation on a fixed grid), with no iterative
# stopping point, so they move by rounding alone: reordering the kernel
# contraction moved w_cp_estimate by 4.4e-16 relative.  1e-10 relative leaves
# ~1e5 times that for other builds and the cancellation in the residuals,
# while a 1 % change of the true w_cp moves w_cp_estimate by 1.2 % and
# vis_of_v by 0.9 %.
CALIBRATION_RTOL = 1e-10


def _calibration(text: str) -> dict:
    prefix = "# calibration = "
    return next(json.loads(line[len(prefix):]) for line in text.splitlines()
                if line.startswith(prefix))


def _columns(text: str) -> tuple[list[str], np.ndarray]:
    rows = [line.split(",") for line in data_section(text).splitlines()]
    return rows[0], np.array(rows[1:], dtype=float)


def _assert_matches(text: str, committed: Path, atol: dict) -> None:
    head, got = _columns(text)
    want_head, want = _columns(committed.read_text())
    assert head == want_head and got.shape == want.shape, committed.name
    for i, name in enumerate(head):
        np.testing.assert_allclose(
            got[:, i], want[:, i], rtol=0.0, atol=atol.get(name, SERIES_ATOL),
            err_msg=f"{committed.name}: column {name}",
        )


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_preset_matches_committed_out(preset):
    files = run_config({"preset": preset})
    committed = OUT / "figures" / preset
    assert sorted(files) == sorted(p.name for p in committed.glob("*.csv"))
    for name, text in files.items():
        _assert_matches(text, committed / name, {})
        if PRESETS[preset]["command"] == "calibrate-wcp":
            got, want = _calibration(text), _calibration((committed / name).read_text())
            assert got.keys() == want.keys()
            for key in want:
                np.testing.assert_allclose(got[key], want[key], rtol=CALIBRATION_RTOL, atol=0.0,
                                           err_msg=f"{name}: # calibration {key}")


@pytest.mark.parametrize("label", sorted(MC_RUNS))
def test_mc_moment_matches_committed_out(label):
    committed = OUT / "mc" / label / "mc_moment.csv"
    _assert_matches(run_config(MC_RUNS[label])["mc_moment.csv"], committed, {})


def test_optics_table_matches_committed_out():
    files = run_config({"command": "optics-table"})
    _assert_matches(files["wcp_table.csv"], OUT / "wcp_table.csv", TABLE_ATOL)


# The outputs whose data sections hold bit for bit across numpy's x86-64
# dispatch levels on one build, and the configs that write them.  Every other
# output's data section moves in its last bits at the SSE4.2 level, most at
# the AVX2 level too.
LEVEL_FREE = {"wcp_table.csv": {"command": "optics-table"},
              "calibration_vh.csv": {"preset": "figS-calibration"},
              "mc_moment.csv": MC_RUNS["order4"]}

# numpy's dispatch levels below AVX-512, by the features a child disables.
_AVX512 = ("X86_V4", "AVX512_ICL", "AVX512_SPR")
LEVELS = {"V3": _AVX512, "V2": (*_AVX512, "X86_V3")}

# Prints, as one JSON line, numpy's dispatch line (``*`` marks a dispatched
# feature, ``?`` a disabled one) and the data sections of the given configs'
# outputs by file name.
_LEVEL_PROBE = """
import json, sys
from numpy.lib._utils_impl import _opt_info
from ltgsim.cli import data_section, run_config
files = {}
for config in json.loads(sys.argv[1]):
    files.update(run_config(config))
print(json.dumps([_opt_info(), {name: data_section(text) for name, text in files.items()}]))
"""


def test_level_free_outputs_hold_across_dispatch_levels(child_env):
    # The fits stop before a step the cost cannot resolve, so no accept
    # decision hangs on a last-bit tie that AVX-512 and AVX2 exp round apart.
    native = _opt_info().split()
    if "X86_V3*" not in native and "X86_V4*" not in native:
        pytest.skip(f"numpy dispatches neither AVX2 nor AVX-512 here ({' '.join(native)})")
    configs = list(LEVEL_FREE.values())
    want = {}
    for config in configs:
        want.update(run_config(config))
    for level, disabled in LEVELS.items():
        proc = subprocess.run(
            [sys.executable, "-c", _LEVEL_PROBE, json.dumps(configs)],
            env=child_env(NPY_DISABLE_CPU_FEATURES=" ".join(disabled)),
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, f"{level} probe exited {proc.returncode}:\n{proc.stderr}"
        info, got = json.loads(proc.stdout)
        dispatched = {f for f in info.split() if f.endswith("*")}
        assert dispatched == {f for f in native if f.endswith("*")} - {f"{f}*" for f in disabled}, info
        for name in LEVEL_FREE:
            assert got[name] == data_section(want[name]), f"{name} differs at {level} ({info})"
