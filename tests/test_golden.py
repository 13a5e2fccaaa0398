"""The committed out/ directory is golden data.

Every preset, the optics table and the Monte Carlo pair of out/mc/ are
re-run and their data sections compared, column by column, with the
committed files, and so are the calibration results of the
``# calibration`` line.  Regenerate out/ with
scripts/regenerate_out.py when a change is meant to move these numbers.
"""
import json
from pathlib import Path

import numpy as np
import pytest

from ltgsim.cli import PRESETS, data_section, run_config

OUT = Path(__file__).resolve().parents[1] / "out"

# Gamma series and calibration data.  Kernel sums run in a fixed order, so
# on one numpy build they repeat bit for bit; across builds they move by
# ~1e-15.  The fig4-right series also go through the width fits, which stop
# once a step moves the parameters by less than 1e-9 of their norm: a
# ~1e-14 relative change in the joint profile moves the widths by up to
# ~2e-8 (the earlier scipy curve_fit, stopping sooner, by up to ~6e-6).
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


# The runs of scripts/regenerate_out.py's MC_RUNS.
MC_RUNS = {
    "order2": {"command": "mc-moment", "rtn": {"gamma": 1.0},
               "mc": {"order": 2, "n_real": 2000, "antithetic": False}},
    "order4": {"command": "mc-moment", "rtn": {"gamma": 1.0},
               "mc": {"order": 4, "n_real": 2000, "antithetic": True}},
}


@pytest.mark.parametrize("label", sorted(MC_RUNS))
def test_mc_moment_matches_committed_out(label):
    committed = OUT / "mc" / label / "mc_moment.csv"
    _assert_matches(run_config(MC_RUNS[label])["mc_moment.csv"], committed, {})


def test_optics_table_matches_committed_out():
    files = run_config({"command": "optics-table"})
    _assert_matches(files["wcp_table.csv"], OUT / "wcp_table.csv", TABLE_ATOL)
