#!/usr/bin/env python3
"""Regenerate the committed out/ directory: every preset and the w_cp table.

Writes out/figures/<preset>/ for each built-in preset (the shift sweep at
zero switching rate, both endpoints, the slow-noise shift and spectral-width
sweeps, and the correlated-pixel calibration) and out/wcp_table.csv (w_cp,
fit order, w_p and w_tilde per spectral width).  tests/test_golden.py
re-runs against these files.  For each file it rewrites, the script prints
the largest |difference| of the data section against the file it replaces.
Run from the repository root with src on the import path, e.g.
``PYTHONPATH=src python scripts/regenerate_out.py``.
"""
import contextlib
import io
import sys
from pathlib import Path

import numpy as np

from ltgsim.cli import PRESETS, data_section, main, run_config

OUT = Path("out")


def drift(old: str | None, new: str) -> str:
    """Largest |difference| between the data sections of two output files."""
    if old is None:
        return "new file"
    tables = []
    for text in (old, new):
        rows = [line.split(",") for line in data_section(text).splitlines()]
        tables.append((rows[0], np.array(rows[1:], dtype=float)))
    (old_head, old_data), (new_head, new_data) = tables
    if old_head != new_head or old_data.shape != new_data.shape:
        return "columns or rows changed"
    return f"max |delta| = {np.max(np.abs(new_data - old_data), initial=0.0):.3g}"


def run() -> int:
    for name in sorted(PRESETS):
        directory = OUT / "figures" / name
        before = {p.name: p.read_text() for p in directory.glob("*.csv")}
        written = io.StringIO()  # main prints the path of each file it writes
        with contextlib.redirect_stdout(written):
            code = main(["--preset", name, "--out", str(directory)])
        if code != 0:
            print(f"preset {name} failed with exit code {code}", file=sys.stderr)
            return code
        for line in written.getvalue().splitlines():
            path = Path(line)
            print(f"{path}: {drift(before.get(path.name), path.read_text())}")
    # The table keeps the default output.dir ("out") in its embedded config.
    for name, text in run_config({"command": "optics-table"}).items():
        path = OUT / name
        old = path.read_text() if path.exists() else None
        path.write_text(text)
        print(f"{path}: {drift(old, text)}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
