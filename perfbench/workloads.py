"""The four benchmark workloads: how one pass drives ``ltgsim.cli`` and how
its output is checked.

A pass is one or more ``ltgsim.cli.main`` calls, exactly as the ``ltgsim``
command would make them.  The workload seed reaches the program only as
``--seed`` (the config's ``master_seed``).

Reference data for the sweeps and the calibration live in ``refs/`` and
were made by ``make_refs.py``; a seed without a stored reference gets only
the seed-independent checks.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"
REFS = HERE / "refs"

# Absolute tolerance on every value compared with a stored reference.
# Allowed drift:
#  * reduction order: the kernel sums add <= 320 x 320 terms of size <= 1,
#    so reordering moves a value by ~1e-13 at most;
#  * optics: the spectral quadrature and its closed form differ by
#    <= 2.2e-14 relative in F, but the width fits that read F stop early
#    (curve_fit tolerances), so a tiny change in F can move w_cp far more.
#    The committed out/ (numpy 2.2.6) and a regeneration on numpy 2.4.6
#    differ by up to 2e-7 in the 60-nm series for that reason; the
#    tolerance leaves 50x room above it.
# Physics changes are caught: 1 % of w_cp moves Gamma by >= 1.7e-3, one
# pixel of shift by 0.14 and a changed block size by 0.7 (see README.md).
REF_ATOL = 1e-5

# Rows of each series kept in the references: t = 0, every 25th grid point
# and the last one.  Any change to Gamma(t > 0) shows at all of them.
REF_ROWS = list(range(0, 400, 25)) + [399]

# Statistical checks.
MC_SIGMAS = 5.0
MC_FLOOR = 1e-12     # float rounding where the MC standard error is ~0
CAL_W_TRUE = 3.1     # the figS-calibration preset's true w_cp
CAL_SIGMAS = 3.0


class CheckError(AssertionError):
    """A pass produced output that fails its check."""


@dataclass(frozen=True)
class Run:
    """One ``ltgsim.cli.main`` call of a pass."""

    label: str
    preset: str | None = None
    config: str | None = None  # file name under configs/

    def argv(self, seed: int, out_dir: Path) -> list[str]:
        source = ["--preset", self.preset] if self.preset else ["--config", str(CONFIGS / self.config)]
        return source + ["--seed", str(seed), "--out", str(out_dir / self.label)]


@dataclass(frozen=True)
class Workload:
    name: str
    runs: tuple[Run, ...]
    check: Callable[[Path, int], None]  # raises CheckError

    def argvs(self, seed: int, out_dir: Path) -> list[list[str]]:
        return [r.argv(seed, out_dir) for r in self.runs]


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def read_table(path: Path) -> tuple[dict, dict[str, np.ndarray]]:
    """(metadata, columns) of an ltgsim CSV file."""
    meta, rows = {}, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition(" = ")
            if key in ("config", "calibration"):
                meta[key] = json.loads(val)
        else:
            rows.append(line.split(","))
    header, body = rows[0], np.array(rows[1:], dtype=float)
    return meta, {name: body[:, i] for i, name in enumerate(header)}


def load_refs(name: str) -> dict:
    path = REFS / f"{name}.json"
    return json.loads(path.read_text())["seeds"] if path.exists() else {}


def _close(got: np.ndarray, want, what: str) -> None:
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    _require(err <= REF_ATOL, f"{what}: differs from reference by {err:.3g} > {REF_ATOL}")


# ---------------------------------------------------------------------------
# Sweeps: Gamma(t) series from the kernel sum
# ---------------------------------------------------------------------------


def sweep_values(path: Path) -> tuple[np.ndarray, np.ndarray]:
    _, cols = read_table(path)
    return cols["re_gamma"], cols["im_gamma"]


def _check_sweep(files: list[str], run_dir: Path, seed: int, ref: dict | None) -> None:
    for name in files:
        path = run_dir / name
        _require(path.exists(), f"missing output {name}")
        meta, cols = read_table(path)
        _require(meta["config"]["master_seed"] == seed, f"{name}: seed not applied")
        re, im = cols["re_gamma"], cols["im_gamma"]
        _require(re.size == 400, f"{name}: {re.size} rows, expected 400")
        _require(bool(np.all(np.isfinite(re) & np.isfinite(im))), f"{name}: non-finite value")
        _require(float(np.max(np.hypot(re, im))) <= 1.0 + 1e-9, f"{name}: |Gamma| > 1")
        # At t = 0 every phase is 0, so Gamma is the kernel mass left on the mask.
        _require(abs(re[0] - 1.0) <= 1e-12 and abs(im[0]) <= 1e-12, f"{name}: Gamma(0) != 1")
        if ref is not None:
            _close(re[REF_ROWS], ref[name]["re"], f"{name} Re Gamma")
            _close(im[REF_ROWS], ref[name]["im"], f"{name} Im Gamma")


DELTA_FILES = [f"transition_delta_{d}.csv" for d in (3, 2, 1, 0)]
SPECTRAL_FILES = [f"transition_spectral_{w}nm.csv" for w in (15, 30, 60, 100)]


def check_delta(out_dir: Path, seed: int) -> None:
    _check_sweep(DELTA_FILES, out_dir / "run", seed, load_refs("delta-sweep").get(str(seed)))


def check_spectral(out_dir: Path, seed: int) -> None:
    _check_sweep(SPECTRAL_FILES, out_dir / "run", seed, load_refs("spectral-sweep").get(str(seed)))


# ---------------------------------------------------------------------------
# Monte Carlo moments against the closed form
# ---------------------------------------------------------------------------


def check_mc(out_dir: Path, seed: int) -> None:
    from ltgsim.analytic import exponential_moment

    for label in ("order4", "order2"):
        path = out_dir / label / "mc_moment.csv"
        _require(path.exists(), f"missing output {label}/mc_moment.csv")
        meta, cols = read_table(path)
        cfg = meta["config"]
        _require(cfg["master_seed"] == seed, f"{label}: seed not applied")
        t, re, im, se = cols["t"], cols["re_gamma"], cols["im_gamma"], cols["stderr"]
        _require(t.size == 400, f"{label}: {t.size} rows, expected 400")
        exact = exponential_moment(cfg["rtn"]["gamma"], cfg["mc"]["order"], t)
        excess = np.abs(re - exact) - (MC_SIGMAS * se + MC_FLOOR)
        worst = int(np.argmax(excess))
        _require(
            excess[worst] <= 0.0,
            f"{label}: |Re Gamma - exact| = {abs(re[worst] - exact[worst]):.3g} "
            f"> {MC_SIGMAS:g} stderr ({se[worst]:.3g}) at t = {t[worst]:.4f}",
        )
        if cfg["mc"]["antithetic"]:
            _require(float(np.max(np.abs(im))) <= 1e-12, f"{label}: antithetic Im Gamma != 0")


# ---------------------------------------------------------------------------
# Correlated-pixel calibration
# ---------------------------------------------------------------------------


def calibration_values(run_dir: Path) -> dict:
    meta, vh = read_table(run_dir / "calibration_vh.csv")
    _, curve = read_table(run_dir / "calibration_curve.csv")
    return {
        "v": vh["v"],
        "curve_w": curve["w_cp"],
        "vis": curve["vis"],
        "seed": meta["config"]["master_seed"],
        "w_cp_estimate": meta["calibration"]["w_cp_estimate"],
        "w_cp_uncertainty": meta["calibration"]["w_cp_uncertainty"],
    }


def check_calibration(out_dir: Path, seed: int) -> None:
    run_dir = out_dir / "run"
    for name in ("calibration_vh.csv", "calibration_curve.csv"):
        _require((run_dir / name).exists(), f"missing output {name}")
    got = calibration_values(run_dir)
    _require(got["seed"] == seed, "calibration: seed not applied")
    est, sigma, curve_w = got["w_cp_estimate"], got["w_cp_uncertainty"], got["curve_w"]
    _require(curve_w[0] < est < curve_w[-1], f"calibration: estimate {est} clamped to the curve end")
    _require(
        abs(est - CAL_W_TRUE) <= CAL_SIGMAS * sigma,
        f"calibration: |w - {CAL_W_TRUE}| = {abs(est - CAL_W_TRUE):.3g} > {CAL_SIGMAS:g} sigma ({sigma:.3g})",
    )
    ref = load_refs("calibration").get(str(seed))
    if ref is not None:
        _close(got["v"], ref["v"], "calibration V(h)")
        _close(got["vis"], ref["vis"], "calibration curve")
        _close(est, ref["w_cp_estimate"], "calibration w_cp estimate")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("delta-sweep", (Run("run", preset="fig4-left"),), check_delta),
        Workload("spectral-sweep", (Run("run", preset="fig4-right"),), check_spectral),
        Workload(
            "mc-ensemble",
            (Run("order4", config="mc-order4.json"), Run("order2", config="mc-order2.json")),
            check_mc,
        ),
        Workload("calibration", (Run("run", preset="figS-calibration"),), check_calibration),
    )
}
