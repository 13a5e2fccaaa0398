#!/usr/bin/env python3
"""Regenerate the committed out/ directory: every preset and the w_cp table.

Writes out/figures/<preset>/ for each built-in preset (the shift sweep at
zero switching rate, both endpoints, the slow-noise shift and spectral-width
sweeps, and the correlated-pixel calibration) and out/wcp_table.csv (w_cp,
fit order, w_p and w_tilde per spectral width).  tests/test_golden.py
re-runs against these files.  For each file it rewrites, the script prints
whether the data section is byte-identical to the file it replaces (else
its largest |difference|) and every value of the ``# series`` and
``# calibration`` lines that changed, with the |difference| of numbers.
Run from the repository root with src on the import path, e.g.
``PYTHONPATH=src python scripts/regenerate_out.py``.
"""
import contextlib
import io
import json
import sys
from numbers import Real
from pathlib import Path

import numpy as np

from ltgsim.cli import PRESETS, data_section, main, run_config

OUT = Path("out")
META_KEYS = ("series", "calibration")


def data_drift(old: str, new: str) -> str:
    """Byte identity, else the largest |difference|, of two data sections."""
    old_data, new_data = data_section(old), data_section(new)
    if old_data == new_data:
        return "data byte-identical"
    tables = []
    for text in (old_data, new_data):
        rows = [line.split(",") for line in text.splitlines()]
        tables.append((rows[0], np.array(rows[1:], dtype=float)))
    (old_head, old_vals), (new_head, new_vals) = tables
    if old_head != new_head or old_vals.shape != new_vals.shape:
        return "data columns or rows changed"
    return f"data max |delta| = {np.max(np.abs(new_vals - old_vals), initial=0.0):.3g}"


def metadata(text: str) -> dict:
    """The ``# series`` and ``# calibration`` lines of an output file, parsed."""
    out = {}
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition(" = ")
            if key in META_KEYS:
                out[key] = json.loads(val)
    return out


def meta_drift(old: str, new: str) -> list[str]:
    """The changed entries of each metadata line, as 'key: name old -> new; ...'."""
    old_meta, new_meta = metadata(old), metadata(new)
    out = []
    for key in META_KEYS:
        a, b = old_meta.get(key, {}), new_meta.get(key, {})
        changes = []
        for name in sorted(a.keys() | b.keys()):
            if name not in a or name not in b:
                changes.append(f"{name} new {b[name]!r}" if name in b else f"{name} removed")
                continue
            va, vb = a[name], b[name]
            if va == vb:
                continue
            change = f"{name} {va!r} -> {vb!r}"
            if all(isinstance(v, Real) and not isinstance(v, bool) for v in (va, vb)):
                change += f" (|delta| {abs(vb - va):.3g})"
            changes.append(change)
        if key in old_meta or key in new_meta:
            out.append(f"{key}: " + ("; ".join(changes) if changes else "unchanged"))
    return out


def drift(old: str | None, new: str) -> str:
    """One report line for a rewritten output file."""
    if old is None:
        return "new file"
    return "; ".join([data_drift(old, new), *meta_drift(old, new)])


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
