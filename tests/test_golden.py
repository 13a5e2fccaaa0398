"""The committed out/ directory is golden data.

Every preset and the optics table are re-run and their data sections
compared, column by column, with the committed files.  Regenerate out/
with scripts/regenerate_out.py when a change is meant to move these
numbers.
"""
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
# >= 1.7e-3.
SERIES_ATOL = 1e-5

# wcp_table columns.  The inputs and the chosen fit order must match
# exactly.  w_cp and w_tilde move with the fit stopping point, as above.
# w_p is a Gaussian fit to a sinc^2 marginal: the misfit leaves the
# objective flat along the width, and w_p alone moved by 5.3e-4 between
# numpy 2.2.6 and 2.4.6; 1e-2 is 0.05 % of the 20-px beam width.
TABLE_ATOL = {"spectral_width_nm": 0.0, "order": 0.0, "w_cp": 1e-5, "w_tilde": 1e-5, "w_p": 1e-2}


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


def test_optics_table_matches_committed_out():
    files = run_config({"command": "optics-table"})
    _assert_matches(files["wcp_table.csv"], OUT / "wcp_table.csv", TABLE_ATOL)
