#!/usr/bin/env python3
"""Regenerate the committed out/ directory: every preset and the w_cp table.

Writes out/figures/<preset>/ for each built-in preset (the shift sweep at
zero switching rate, both endpoints, the slow-noise shift and spectral-width
sweeps, and the correlated-pixel calibration) and out/wcp_table.csv (w_cp,
fit order, w_p and w_tilde per spectral width).  tests/test_golden.py
re-runs against these files.  Run from the repository root with src on the
import path, e.g. ``PYTHONPATH=src python scripts/regenerate_out.py``.
"""
import sys
from pathlib import Path

from ltgsim.cli import PRESETS, main, run_config

OUT = Path("out")


def run() -> int:
    for name in sorted(PRESETS):
        code = main(["--preset", name, "--out", str(OUT / "figures" / name)])
        if code != 0:
            print(f"preset {name} failed with exit code {code}", file=sys.stderr)
            return code
    # The table keeps the default output.dir ("out") in its embedded config.
    for name, text in run_config({"command": "optics-table"}).items():
        (OUT / name).write_text(text)
        print(OUT / name)
    return 0


if __name__ == "__main__":
    sys.exit(run())
