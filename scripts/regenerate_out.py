#!/usr/bin/env python3
"""Regenerate the committed out/ directory: every preset, the w_cp table and
one Monte Carlo pair.

Writes out/figures/<preset>/ for each built-in preset (the shift sweep at
zero switching rate, both endpoints, the slow-noise shift and spectral-width
sweeps, and the correlated-pixel calibration), out/wcp_table.csv (w_cp,
fit order, w_p and w_tilde per spectral width) and out/mc/<run>/ for the
``mc-moment`` runs of ``MC_RUNS``.  tests/test_golden.py re-runs against
these files.  For each file it rewrites, the script prints the columns it
dropped or added, whether the data section is byte-identical to the file it
replaces over the columns both share (else their largest |difference|),
and every value of the ``# series`` and ``# calibration`` lines that
changed, with the |difference| of numbers.
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

# The mc-moment pair: gamma = 1 on the default grid (400 times up to 2 pi),
# 2000 realizations, order 2 plain and order 4 antithetic.  Their means move
# by about one standard error if the draw or its stream changes.
MC_RUNS = {
    "order2": {"command": "mc-moment", "rtn": {"gamma": 1.0},
               "mc": {"order": 2, "n_real": 2000, "antithetic": False}},
    "order4": {"command": "mc-moment", "rtn": {"gamma": 1.0},
               "mc": {"order": 4, "n_real": 2000, "antithetic": True}},
}


def columns(text: str) -> tuple[list[str], dict[str, tuple[str, ...]]]:
    """The header of an output file's data section and its {column: cells}."""
    rows = [line.split(",") for line in data_section(text).splitlines()]
    return rows[0], dict(zip(rows[0], zip(*rows[1:])))


def data_drift(old: str, new: str) -> str:
    """Columns dropped or added, then byte identity (else the largest
    |difference|) of the columns both data sections share."""
    if data_section(old) == data_section(new):
        return "data byte-identical"
    (old_head, old_cols), (new_head, new_cols) = columns(old), columns(new)
    notes = [f"column {name} dropped" for name in old_head if name not in new_cols]
    notes += [f"column {name} added" for name in new_head if name not in old_cols]
    shared = [name for name in new_head if name in old_cols]
    if not shared:
        notes.append("no column shared")
    elif len({len(col) for col in (*old_cols.values(), *new_cols.values())}) > 1:
        notes.append("data rows changed")
    elif all(old_cols[name] == new_cols[name] for name in shared):
        notes.append("shared columns byte-identical")
    else:
        old_vals, new_vals = (np.array([cols[name] for name in shared], dtype=float)
                              for cols in (old_cols, new_cols))
        notes.append(f"data max |delta| = {np.max(np.abs(new_vals - old_vals)):.3g}")
    return "; ".join(notes)


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


def write(path: Path, text: str) -> None:
    """Write one output file and print its report line."""
    old = path.read_text() if path.exists() else None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    print(f"{path}: {drift(old, text)}")


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
        write(OUT / name, text)
    for label, config in MC_RUNS.items():
        directory = OUT / "mc" / label
        for name, text in run_config({**config, "output": {"dir": str(directory)}}).items():
            write(directory / name, text)
    return 0


if __name__ == "__main__":
    sys.exit(run())
