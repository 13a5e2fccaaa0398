"""Show that the benchmark's checks count a wrong Gamma as a failed pass.

    python3 perfbench/selfcheck.py

For each workload it runs a clean pass, which must pass its check, and
then passes whose output file gets one value perturbed after the program
wrote it, which must each be counted as failed.  It also checks that
BENCHMARK.json lists exactly the metrics run.py and spans.py report.
Exit code 0 when everything behaves as stated.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import PER_LAYER  # noqa: E402
from workloads import REF_ATOL, WORKLOADS, read_table  # noqa: E402

REF_SEED = 1        # has stored references
UNREF_SEED = 4242   # has none: seed-independent checks only


def perturb(rel_path: str, column: str, row: int, change):
    """A tamper hook that rewrites one value of one output column."""

    def tamper(out_dir: Path) -> None:
        path = out_dir / rel_path
        lines = path.read_text().splitlines()
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        cols = lines[header].split(",")
        cells = lines[header + 1 + row].split(",")
        j = cols.index(column)
        _, table = read_table(path)
        cells[j] = repr(float(change(float(cells[j]), table, row)))
        lines[header + 1 + row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")

    return tamper


# (workload, seed, what, tamper, text the failure must contain)
CASES = [
    ("delta-sweep", REF_SEED, f"Re Gamma + {10 * REF_ATOL:g} at t[100]",
     perturb("run/transition_delta_0.csv", "re_gamma", 100, lambda v, t, i: v + 10 * REF_ATOL),
     "from reference"),
    ("delta-sweep", UNREF_SEED, "Re Gamma(t[100]) = 1.5",
     perturb("run/transition_delta_0.csv", "re_gamma", 100, lambda v, t, i: 1.5), "|Gamma| > 1"),
    ("spectral-sweep", REF_SEED, f"Im Gamma + {10 * REF_ATOL:g} at t[200]",
     perturb("run/transition_spectral_60nm.csv", "im_gamma", 200, lambda v, t, i: v + 10 * REF_ATOL),
     "from reference"),
    ("mc-ensemble", UNREF_SEED, "order-2 Re Gamma + 6 stderr at t[200]",
     perturb("order2/mc_moment.csv", "re_gamma", 200, lambda v, t, i: v + 6 * t["stderr"][i]), "stderr"),
    ("mc-ensemble", UNREF_SEED, "antithetic Im Gamma = 1e-9 at t[300]",
     perturb("order4/mc_moment.csv", "im_gamma", 300, lambda v, t, i: 1e-9), "antithetic Im"),
    ("calibration", REF_SEED, f"V(h) + {10 * REF_ATOL:g} at h[5]",
     perturb("run/calibration_vh.csv", "v", 5, lambda v, t, i: v + 10 * REF_ATOL), "from reference"),
]


def check_benchmark_json() -> list[str]:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [(m["name"], m["unit"]) for m in bench["end_to_end"]] != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] != PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from spans.PER_LAYER")
    if sorted(w["name"] for w in bench["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    return problems


def main() -> int:
    problems = check_benchmark_json()
    ltgsim = run.import_ltgsim()
    for name, seed in sorted({(c[0], c[1]) for c in CASES}):
        error = run.run_pass(ltgsim, WORKLOADS[name], seed, run.OUT / "selfcheck" / name)[2]
        print(f"{name} seed {seed}, clean pass: {error or 'passed'}")
        if error:
            problems.append(f"{name} seed {seed}: clean pass failed: {error}")
    for name, seed, what, tamper, expected in CASES:
        tally = run.Tally()
        tally.add(run.run_pass(ltgsim, WORKLOADS[name], seed, run.OUT / "selfcheck" / name, tamper)[2])
        print(f"{name} seed {seed}, {what}: {tally.errors[0] if tally.errors else 'NOT caught'}")
        if len(tally.errors) != 1 or expected not in tally.errors[0]:
            problems.append(f"{name} seed {seed}: {what} was not counted as a failed pass "
                            f"for the expected reason ({expected!r})")
    for p in problems:
        print("PROBLEM:", p)
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
