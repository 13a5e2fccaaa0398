#!/usr/bin/env python3
"""Build the correlated-pixel-width table over the default spectral sweep.

Writes out/wcp_table.csv (w_cp, fit order, w_p and w_tilde per spectral
width), the committed reference that tests/test_golden.py re-runs against.
Run from the repository root with src on the import path, e.g.
``PYTHONPATH=src python scripts/build_optics_table.py``.
"""
import sys
from pathlib import Path

from ltgsim.cli import run_config

OUT = Path("out")


def run() -> int:
    files = run_config({"command": "optics-table"})
    OUT.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (OUT / name).write_text(text)
        print(OUT / name)
    return 0


if __name__ == "__main__":
    sys.exit(run())
