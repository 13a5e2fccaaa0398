"""Fixed mutant yardstick of the Tier-1 suite.

Each mutant is one edit (file, old text, new text) of ``src/ltgsim``.  The
runner exports a commit with ``git archive`` into a temporary directory,
runs the suite there unmutated, then once per mutant on a fresh export with
that edit applied; the checkout itself is never edited.  A mutant is killed
when its set of failing, erroring or xpassing test ids differs from the
unmutated run's, so tests that fail on the clean code (acceptance criteria
5 and 6) count for nothing.  A run past ``TIMEOUT_S`` is reported as a
timeout, not as a kill.  Usage: ``python scripts/mutants.py [commit]``.
"""
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

MUTANTS = [
    ("analytic.py", "* (1.0 + gamma * t_arr)", "* (1.0 - gamma * t_arr)"),
    ("analytic.py", "np.minimum(t_arr, 20.0 / d)", "np.minimum(t_arr, 2.0 / d)"),
    ("analytic.py", "np.cos(w * t_arr) + (gamma / w)", "np.cos(w * t_arr) - (gamma / w)"),
    ("analytic.py", "_DEGENERATE_TOL = 1e-9", "_DEGENERATE_TOL = 1e-3"),
    ("series.py", "np.all(np.diff(times) >= 0)", "np.all(np.diff(times) > 0)"),
    ("series.py", "_MAG_TOL = 1e-9", "_MAG_TOL = 1e-3"),
    ("series.py", 'not in "iuf":', 'not in "biuf":'),
    ("rtn.py", "self.stream_index + 1 + i)", "self.stream_index + i)"),
    ("rtn.py", "offset *= -2.0 * signs[:, None]", "offset *= 2.0 * signs[:, None]"),
    ("rtn.py", "mean_d = (a * sums[0] - b * sums[1]) / n", "mean_d = (a * sums[0] + b * sums[1]) / n"),
    ("rtn.py", "idx += row + 1  #", "idx += row  #"),
    ("rtn.py", "if 2 * events < n * n_t else None", "if 8 * events < n * n_t else None"),
    ("slm.py", "return -(-(n_pix // 2) // n_rep)", "return (n_pix // 2) // n_rep"),
    ("slm.py", "np.conjugate(z, out=phasors[n_indep:])", "np.copyto(phasors[n_indep:], z)"),
    ("slm.py", "gap == n_blocks // 2", "gap == n_blocks // 2 + 1"),
    ("slm.py", "min(n_pix, n_pix - delta))", "min(n_pix, n_pix - delta - 1))"),
    ("slm.py", "_FLUSH_MASS = 2.0**-70", "_FLUSH_MASS = 2.0**-30"),
    ("optics.py", "THETA0_CALIBRATED = 0.0291771450", "THETA0_CALIBRATED = 0.0292771450"),
    ("optics.py", "return float(np.hypot(w_tilde, pump_floor_px(setup)))", "return float(w_tilde)"),
    ("optics.py", "half = bs * window / 2.0", "half = bs * window / 4.0"),
    ("optics.py", "(rows - 0.5 * (self.column(0)", "(rows - 0.0 * (self.column(0)"),
    ("optics.py", "_FIT_XTOL = 1e-9", "_FIT_XTOL = 1e-3"),
    ("measurement.py", "return 0.25 * (1.0 + x), 0.25 * (1.0 - x)", "return 0.25 * (1.0 - x), 0.25 * (1.0 + x)"),
    ("measurement.py", "rms * np.sqrt(2.0 / h_values.size)", "rms * np.sqrt(1.0 / h_values.size)"),
    ("measurement.py", "return abs(n_pp - n_pm) / total", "return (n_pp - n_pm) / total"),
    ("measurement.py", "seed=seed.item(i))", "seed=seed.item(0))"),
    ("measurement.py", "steps = np.arange(n_pixels) // n_r", "steps = (np.arange(n_pixels) + 1) // n_r"),
    ("cli.py", '"grid.points": lambda v: v >= 1,', '"grid.points": lambda v: v >= 2,'),
    ("cli.py", '.replace(".", "p") + "nm.csv"', '.replace(".", "_") + "nm.csv"'),
    ("cli.py", 'SeedSpec(config["master_seed"], 0), antithetic', 'SeedSpec(config["master_seed"], 1), antithetic'),
    ("cli.py", 'np.arange(m["h_min"], m["h_max"] + 1)', 'np.arange(m["h_min"], m["h_max"])'),
    ("cli.py", "abs(v) >= 2**64", "abs(v) >= 2**63"),
    # Rules that lost a library row to the twin of a CLI row; a memory ceiling
    # changes its text, since switching it off would allocate what it refuses.
    ("rtn.py", 'check_integer("master_seed", self.master_seed, 0)', 'check_integer("master_seed", self.master_seed, -1)'),
    ("rtn.py", "(~0.8 GB per array) a run may hold", "(~0.8 GB per array) a run holds"),
    ("slm.py", "if n_pix % 2:", "if n_pix % 4 == 3:"),
    ("optics.py", 'check_real("spectral_width_nm", width_nm)', 'check_real("spectral_width_nm", float(width_nm))'),
    ("measurement.py", "check_shifts(len(set((h_values % (2 * n_r))", "check_shifts(len(set((h_values % (2 * n_r + 2))"),
    ("measurement.py", "acquisition_s {acquisition_s!r} expect up to", "acquisition_s {acquisition_s!r} may expect up to"),
]

TIMEOUT_S = 300.0  # seconds per suite run; Tier-1 takes ~30-40 s on 2 cores

PYTEST = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
          "-p", "no:cacheprovider", "--hypothesis-seed=0", "--tb=no", "-rfEX"]


def run_suite(repo: Path, commit: str, mutant):
    """The failing, erroring and xpassing test ids of one export, or None on timeout."""
    with tempfile.TemporaryDirectory(prefix="ltgsim-mutant-") as tmp:
        archive = subprocess.run(["git", "-C", str(repo), "archive", commit], check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        if mutant is not None:
            path, old, new = Path(tmp, "src", "ltgsim", mutant[0]), mutant[1], mutant[2]
            text = path.read_text()
            if text.count(old) != 1:
                raise SystemExit(f"{mutant[0]}: {old!r} occurs {text.count(old)} times, not once")
            path.write_text(text.replace(old, new))
        env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.Popen(PYTEST, cwd=tmp, env=env, stdout=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            out = proc.communicate(timeout=TIMEOUT_S)[0]
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return None
    return {line.split(" - ")[0].replace(" tests/", " ") for line in out.splitlines()
            if line.startswith(("FAILED ", "ERROR ", "XPASS "))}


def main() -> int:
    commit = sys.argv[1] if len(sys.argv) > 1 else "HEAD"
    repo = Path(__file__).resolve().parents[1]
    clean = run_suite(repo, commit, None)
    if clean is None:
        raise SystemExit("the unmutated suite timed out")
    print(f"unmutated: {len(clean)} failing ids: {', '.join(sorted(clean))}", flush=True)
    counts = dict.fromkeys(("killed", "timed out", "survived"), 0)
    for number, mutant in enumerate(MUTANTS, 1):
        ids = run_suite(repo, commit, mutant)
        verdict = "timed out" if ids is None else "survived" if ids == clean else "killed"
        counts[verdict] += 1
        if verdict == "killed":
            verdict += " by " + ", ".join(sorted(ids ^ clean))
        print(f"M{number:02d} {mutant[0]}: {mutant[1]!r} -> {mutant[2]!r}: {verdict}", flush=True)
    print(f"{len(MUTANTS)} mutants: " + ", ".join(f"{n} {what}" for what, n in counts.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
