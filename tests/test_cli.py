"""Config validation, presets, output format and reproducibility."""
import argparse
import contextlib
import inspect
import io
import json
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltgsim import cli
from ltgsim.analytic import exponential_moment
from ltgsim.cli import data_section, main, resolve_config, run_config
from ltgsim.measurement import calibrate_wcp, simulate_counts
from ltgsim.optics import THETA0_CALIBRATED, NumericalError, PdcSetup, joint_profile
from ltgsim.rtn import RtnParams, SeedSpec, draw_ensemble, mc_exponential_moment, sample_batch
from ltgsim.series import MONTE_CARLO, CoherenceSeries
from ltgsim.slm import KernelParams, MaskGeometry, build_phase_field, transition_sweep

FAST_GRID = {"t_min": 0.0, "t_max": 2.0 * np.pi, "points": 40}


def embedded_config(text: str) -> dict:
    """The resolved config an output file embeds in its ``# config`` line."""
    for line in text.splitlines():
        if line.startswith("# config = "):
            return json.loads(line[len("# config = "):])
    raise ValueError("no embedded config found")


def _main_in_process(argv):
    """(exit code, stdout lines, stderr lines) of ``cli.main`` with every warning an error."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    return code, out.getvalue().splitlines(), err.getvalue().splitlines()


def _finite_csvs(out: Path) -> bool:
    """Whether every data cell of every CSV in ``out`` is a finite number."""
    return all(np.all(np.isfinite(np.array(
        [r.split(",") for r in data_section(path.read_text()).splitlines()[1:]], dtype=float)))
        for path in out.glob("*.csv"))


class Case(NamedTuple):
    """One config file through ``--validate`` and through a plain run.

    ``config`` is a table, raw file bytes, or None for a file that does not
    exist ("{cfg}" in ``lines`` stands for its path).  Exit ``code`` 1:
    ``--validate`` prints ``lines`` on stdout and the run joins them into one
    ``input error:`` line, or a file that is no JSON object gives ``lines``
    on stdout under ``--validate`` and on stderr in the run; 2: ``--validate`` passes and the run ends in the
    ``numerical error:`` line; 0: both pass and the run writes the files
    ``lines`` names.  ``runs``: whether a runner may start.  Where it may
    not, every runner is a stub that writes nothing, and only an accepted
    config reaches one.  ``twin``: the library call that refuses alike, with
    the text after the line's key (the whole line for code 2).
    """

    config: dict | bytes | None
    lines: tuple = ()
    code: int = 1
    runs: bool = False
    flags: tuple = ()
    twin: Callable | None = None


def _judge(case: Case) -> None:
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        if isinstance(case.config, bytes):
            cfg.write_bytes(case.config)
        elif case.config is not None:
            cfg.write_text(json.dumps(case.config))
        started = []
        if not case.runs:
            patch.setattr(cli, "_RUNNERS", {name: lambda config, name=name: started.append(name) or {}
                                            for name in cli._RUNNERS})
        lines = [line.replace("{cfg}", str(cfg)) for line in case.lines]
        if not isinstance(case.config, dict):
            expected = [(1, lines, []), (1, [], lines)]
        elif case.code == 1:
            expected = [(1, lines, []), (1, [], ["input error: " + "; ".join(lines)])]
        elif case.code == 2:
            expected = [(0, [], []), (2, [], ["numerical error: " + line for line in lines])]
        else:
            expected = [(0, [], []), (0, [str(out / name) for name in lines], [])]
        argv = ["--config", str(cfg), *case.flags]
        assert [_main_in_process([*argv, "--validate"]),
                _main_in_process([*argv, "--out", str(out)])] == expected
        assert out.exists() == (case.code == 0) and _finite_csvs(out)
        assert len(started) == (case.code == 0 and not case.runs)
    if case.twin is not None:
        with pytest.raises(ValueError if case.code == 1 else NumericalError) as err:
            case.twin()
        assert str(err.value) == (case.lines[0] if case.code == 2 else case.lines[0].partition(": ")[2])


def _config(command: str, **sections) -> dict:
    """A user config running ``command`` with the given sections."""
    return {"command": command, **sections}


_KP = KernelParams(3.0, 20.0)  # the config's default kernel
_OFF_MASK = "moves every pixel off the mask"
_CEILING = "exceed the 100,000,000 (~0.8 GB per array) a run may hold"
_JUMPS = "jumps, more than the 100,000,000 (~0.8 GB of jump times) a run may hold"
_PRESETS = "available: fig3-left, fig3-right, fig4-left, fig4-right, figS-calibration"
_PHASES = "measurement.h_min/h_max: the sine fit of V(h) needs shifts of 4 distinct phases h mod 2 * n_r, got "
_ODD_PIXELS = ("geometry: pixels_per_half 321 is odd; a phase field mirrors each block half a mask away and "
               "needs an even number of pixels per half")
_TWO_FILES = ["analytic_ge.csv", "analytic_le.csv"]

# The refusal table: each config the CLI judges, under the test that judges
# it, one test id per case where the cases are named.  A ceiling is held on
# both sides; its accepted side is validated only, the runners stubbed.
REFUSALS = {
    "test_unknown_keys_rejected": [
        Case(_config("analytic", kernal={}), ["unknown config key: kernal"]),
        Case(_config("analytic", kernel={"width": 3}), ["unknown config key: kernel.width"])],
    "test_validate_odd_kernel_order": [
        Case(_config("transition-delta", kernel={"n": 3}),
             ["kernel: super-Gaussian order n must be a positive even integer, got 3; odd orders make the "
              "correlation factor sign-ambiguous"], twin=lambda: KernelParams(3.0, 20.0, 3))],
    # Widths face the optics model's range, not the optics-table widths: 110
    # nm runs, 130 nm does not; a boolean is not a width of 1 nm.
    "test_validate_spectral_bounds": [
        Case(_config("transition-spectral", grid=FAST_GRID, spectral={"widths_nm": [110.0]}),
             ["transition_spectral_110nm.csv"], code=0, runs=True),
        Case(_config("transition-spectral", spectral={"widths_nm": [130.0]}),
             ["spectral: width 130.0 nm outside model range [0, 120.0] nm"],
             twin=lambda: PdcSetup(spectral_width_nm=130.0)),
        Case(_config("transition-spectral", spectral={"widths_nm": [15.0]}, optics={"widths_nm": [1.0, 2.0]}),
             code=0),
        *[Case(_config("transition-spectral", **{key: {"widths_nm": [True]}}),
               [f"{key}: spectral_width_nm must be a real number, got True"],
               twin=lambda: PdcSetup(spectral_width_nm=True)) for key in ("spectral", "optics")]],
    "test_validate_clean_preset": [Case({"preset": "fig3-right"}, code=0)],
    # What resolve_config reports for master_seed is what SeedSpec raises.
    "test_master_seed_rule_is_the_seed_spec_rule": [
        Case(_config("analytic", master_seed=-1),
             ["master_seed: master_seed must be >= 0, got -1"], twin=lambda: SeedSpec(-1))],
    # A boolean is not a shift of 1 pixel; the calibration's shifts face the mask too.
    "test_validate_delta_off_mask": [
        Case(_config("transition-delta", deltas=[400]), [f"deltas: shift delta=400 {_OFF_MASK}"],
             twin=lambda: transition_sweep(0.0, [_KP], [400], [0.0, 1.0])),
        Case(_config("transition-delta", deltas=[True]), ["deltas: shift delta=True is not an integer"],
             twin=lambda: transition_sweep(0.0, [_KP], [True], [0.0, 1.0])),
        Case(_config("calibrate-wcp", measurement={"h_min": -400, "h_max": -330}),
             [f"measurement: h_min shift delta=-400 {_OFF_MASK}",
              f"measurement: h_max shift delta=-330 {_OFF_MASK}"]),
        Case(_config("calibrate-wcp", measurement={"h_min": -319, "h_max": 319}), code=0)],
    # The phase field mirrors each block half a mask away: --validate must say
    # so for both transition commands, not the run.
    "test_validate_odd_pixels_per_half": [
        *[Case(_config(name, geometry={"pixels_per_half": 321}), [_ODD_PIXELS],
               twin=lambda: build_phase_field(0.0, [0.0, 1.0], 3, MaskGeometry(321, 160.0, 480.0)))
          for name in ("transition-delta", "transition-spectral")],
        Case(_config("calibrate-wcp", geometry={"pixels_per_half": 321}), code=0)],
    # Entries of one file name would overwrite each other's series after
    # running twice; the optics table writes each width as a row of one file.
    "test_validate_repeated_sweep_entries": [
        Case(_config("transition-delta", deltas=[1, 1, 0]),
             ["deltas: entries share an output file: transition_delta_1.csv"]),
        Case(_config("transition-spectral", spectral={"widths_nm": [15, 15.0000001, 30]}),
             ["spectral.widths_nm: entries share an output file: transition_spectral_15nm.csv"]),
        Case(_config("optics-table", optics={"widths_nm": [15.0, 15.0]}), code=0)],
    # Leaf refusals reached stderr under --validate, and only the first of two was named.
    "test_validate_answers_on_stdout_alone": [
        Case(_config("analytic", grid={"points": -1}), ["grid.points: value -1 out of range"]),
        Case({"grid": {"points": "x"}, "rtn": {"gamma": float("nan")}}, [
            "config must name a command (or a preset)", "grid.points: bad type str",
            "rtn.gamma: nan is not a finite number"])],
    "test_unknown_preset": [
        Case({"preset": "fig9"}, [f"unknown preset 'fig9'; {_PRESETS}"]),
        Case({"preset": {}}, [f"unknown preset {{}}; {_PRESETS}", "preset: bad type dict"])],
    # Another command beside a preset, or a leaf the preset sets otherwise,
    # used to drop one side silently.
    "test_preset_refuses_what_it_would_drop": [
        Case(_config("analytic"), ["command is 'analytic', but preset fig4-left runs 'transition-delta'"],
             flags=("--preset", "fig4-left")),
        Case({"preset": "fig3-left", "rtn": {"gamma": 0.5}},
             ["preset fig3-left: rtn.gamma is 0.5, but the preset sets 0.0"])],
    # Each runs to finite data or ends in one line and its exit code, with no warning.
    "test_cli_main_extreme_inputs_end_cleanly": {
        # A sine fit through 1-3 shifts has no scatter left: it gave vis_of_v
        # 1.0 +- 1.3e-15 (h 0..1), or "calibration curve is flat" (h 0..0).
        **{f"h-0-{h}": Case(_config("calibrate-wcp", measurement={"h_min": 0, "h_max": h}),
                            [f"{_PHASES}{h + 1}"], twin=lambda h=h: calibrate_wcp(_KP, h_values=range(h + 1)))
           for h in (1, 2, 0)},
        # n_r = 1 leaves two phases h mod 2: w_cp 2.93 for a true 3.1, or
        # with shot noise exit 2 at "0.7 sigma".
        **{"n_r-1" + suffix: Case(_config("calibrate-wcp", kernel={"w_cp": 3.1},
                                          measurement={"n_r": 1, "shot_noise": shot_noise}),
                                  [f"{_PHASES}2"], twin=lambda: calibrate_wcp(KernelParams(3.1, 20.0), n_r=1))
           for suffix, shot_noise in (("", False), ("-shot-noise", True))},
        # A period longer than a mask half left a curve range ~1e-9; p = 0
        # divided 0 by 0 in the sine fits; numpy's Poisson draw refused 1e300.
        "n_r-1e5": Case(_config("calibrate-wcp", measurement={"n_r": 100000}),
                        ["measurement.n_r: pattern period 2 * n_r = 200000 exceeds a mask half"],
                        twin=lambda: calibrate_wcp(_KP, n_r=100000)),
        "p-0": Case(_config("calibrate-wcp", measurement={"p": 0}),
                    ["measurement.p: p must be a normal float in (0, 1], got 0"],
                    twin=lambda: calibrate_wcp(_KP, p=0)),
        "n0-1e300": Case(_config("calibrate-wcp", measurement={"n0": 1e300}),
                         ["measurement.n0/acquisition_s: n0 1e+300 and acquisition_s 8.0 expect up to "
                          "1.6e+301 counts per acquisition, over 1e+18"],
                         twin=lambda: calibrate_wcp(_KP, n0=1e300)),
        # The window factor of a 1e-300 nm window vanishes on the whole grid.
        "width-1e-300nm": Case(_config("transition-spectral", spectral={"widths_nm": [1e-300]}),
                               ["spectral: width 1e-300 nm is below the 1e-06 nm the window factor resolves "
                                "(0 nm gives the zero-width limit)"],
                               twin=lambda: PdcSetup(spectral_width_nm=1e-300)),
        # gamma^2, 2 * d * t (5e307), gamma + d and 2 * d overflowed, with
        # inf * 0 at t = 0, and the closed form turned NaN.
        **{f"gamma-{name}": Case(_config("analytic", rtn={"gamma": gamma}, grid=FAST_GRID), _TWO_FILES,
                                 code=0, runs=True)
           for name, gamma in (("1e300", 1e300), ("5e307", 5e307), ("1e308", 1e308),
                               ("max", sys.float_info.max))},
        # The one-point grid [0] passed --validate, and its horizon 0 was refused naming no key.
        **{f"one-point-{name}": Case(_config(command, grid={"points": 1}),
                                     ["grid.points: horizon t_max must be finite and > 0, got 0.0"],
                                     twin=lambda: RtnParams(0.0, 0.0))
           for name, command in (("mc", "mc-moment"), ("delta", "transition-delta"),
                                 ("spectral", "transition-spectral"))},
        # order * t overflowed with 2-6 RuntimeWarnings before the data was refused.
        **{f"t_max-max-{name}": Case(_config(command, grid={"t_max": 1.7e308}),
                                     [f"grid.t_max: 2 * order * t_max = 2 * {order} * 1.7e+308 overflows "
                                      "the phases"], twin=twin)
           for name, command, order, twin in (
               ("analytic", "analytic", 4, lambda: exponential_moment(0.0, 4, [0.0, 1.7e308])),
               ("mc", "mc-moment", 4, None),
               ("delta", "transition-delta", 1, lambda: build_phase_field(0.0, [0.0, 1.7e308], 3)))},
        # A shift without a coincidence is a measurement outcome, not an input error.
        "n0-0.1": Case(_config("calibrate-wcp", measurement={"n0": 0.1}),
                       ["shift h = -9 recorded no coincidences in 4 x 8 s at n0 = 0.1; raise n0 or "
                        "acquisition_s"], code=2, runs=True,
                       twin=lambda: calibrate_wcp(_KP, n0=0.1, seed=SeedSpec(12345))),
        # A beam narrower than the pixel pitch off the pixel centres: every pair
        # weight underflows, which --validate cannot see without the kernel.
        "no-support": Case(_config("calibrate-wcp", kernel={"w_p": 1e-150}, geometry={"j0": 0.5}),
                           ["kernel has no support on the mask"], code=2, runs=True,
                           twin=lambda: calibrate_wcp(KernelParams(3.0, 1e-150, 2, MaskGeometry(320, 0.5))))},
    # An empty sweep list would exit 0 and write nothing (or an empty table).
    "test_empty_sweep_is_rejected": [
        Case(_config("transition-delta", deltas=[]), ["deltas: empty list, nothing to run"]),
        *[Case(_config("transition-spectral", **{key: {"widths_nm": []}}),
               [f"{key}.widths_nm: empty list, nothing to run"]) for key in ("spectral", "optics")]],
    "test_cli_main_validate_exit_codes": [Case(_config("analytic"), _TWO_FILES, code=0, runs=True)],
    "test_cli_main_runs_and_writes": [
        Case(_config("analytic", grid=FAST_GRID), _TWO_FILES, code=0, runs=True)],
    # A huge or infinite rate keeps the jump sampler drawing until memory runs
    # out; each non-finite leaf is named by its path, a list entry by its index.
    "test_cli_main_validate_rejects_unbounded_sampling": [
        Case(_config("transition-delta", rtn={"gamma": 1e308}),
             [f"rtn: gamma * t_max over 54 trajectories expects inf {_JUMPS}"]),
        Case(_config("mc-moment", rtn={"gamma": 200.0}),
             [f"rtn: gamma * t_max over 100000 trajectories expects 1.26e+08 {_JUMPS}"],
             twin=lambda: mc_exponential_moment(RtnParams(200.0, 2 * np.pi), 4, [0.0], 100000, SeedSpec(0),
                                                True)),
        Case(_config("mc-moment", rtn={"gamma": float("inf")}), ["rtn.gamma: inf is not a finite number"]),
        Case(_config("analytic", grid={"t_max": float("inf")}), ["grid.t_max: inf is not a finite number"]),
        Case(_config("transition-delta", geometry={"j0": -float("inf")}),
             ["geometry.j0: -inf is not a finite number"]),
        Case(_config("transition-spectral", spectral={"widths_nm": [15.0, float("nan")]}),
             ["spectral.widths_nm[1]: nan is not a finite number"])],
    # theta_0 sizes the profile grid (beam width ~ 1 / theta_0): one point at
    # 100, where the fits crashed, and 14 929 per axis (~1.8 GB) at 1e-3.
    "test_cli_main_validate_bounds_profile_grid": [
        *[Case(_config("optics-table", optics={"theta_0": theta_0}),
               [f"optics: theta_0 {theta_0!r} sizes the profile grid at {points} points per axis, outside "
                "the 3 to 4097 a profile may sample"],
               twin=lambda theta_0=theta_0: joint_profile(PdcSetup(theta_0=theta_0)))
          for theta_0, points in ((100, 1), (1e-3, 14929), (1e-320, "inf"))],
        Case(_config("optics-table"), code=0)],
    # Expected beam widths of 0.3 and 1.2 grid spacings (7.4, 2): the fits
    # returned 0.43 and 1.33 px for 0.079 and 0.29 px with no flag.
    "test_cli_main_validate_rejects_beam_finer_than_grid": [
        *[Case(_config("optics-table", optics={"theta_0": theta_0}),
               [f"optics: theta_0 {theta_0!r} gives an expected beam width of {spacings} grid spacings, "
                "fewer than the 4 a width fit resolves"],
               twin=lambda theta_0=theta_0: joint_profile(PdcSetup(theta_0=theta_0)))
          for theta_0, spacings in ((7.4, "0.315"), (2, "1.17"))],
        Case(_config("optics-table", optics={"theta_0": THETA0_CALIBRATED}), code=0)],
    # At gamma = 0 no jump is expected, but 1e10 rows need 80 GB for their signs.
    "test_cli_main_validate_bounds_mc_rows": [
        Case(_config("mc-moment", rtn={"gamma": 0.0}, mc={"n_real": 10**10}),
             [f"mc: 1e+10 array entries {_CEILING}"],
             twin=lambda: draw_ensemble(RtnParams(0.0, 1.0), 10**10, SeedSpec(0))),
        Case(_config("mc-moment", rtn={"gamma": 0.0}, mc={"n_real": 10**8}), code=0)],
    # 1e10 grid points are an 80 GB grid (a phase field holds 108 blocks'
    # phasors per point), 1e12 repeats a (1e12, 2) Poisson array per shift.
    "test_cli_main_validate_bounds_grid_and_repeats": [
        Case(_config("analytic", grid={"points": 10**10}), [f"grid.points: 1e+10 array entries {_CEILING}"]),
        Case(_config("transition-delta", grid={"points": 10**10}),
             [f"grid.points: 1.08e+12 array entries {_CEILING}"]),
        Case(_config("calibrate-wcp", measurement={"repeats": 10**12}),
             [f"measurement.repeats: 2e+12 array entries {_CEILING}"],
             twin=lambda: simulate_counts((0.25, 0.25), 250.0, 8.0, 10**12)),
        Case(_config("transition-delta", grid={"points": 925_925}), code=0),
        Case(_config("transition-delta", grid={"points": 925_926}),
             [f"grid.points: 1e+08 array entries {_CEILING}"])],
    # Unusable files: missing, no object, no JSON, no UTF-8, and an output
    # section that is no table (``--out`` writes into it).
    "test_cli_main_missing_file": [
        Case(None, ["cannot read config: [Errno 2] No such file or directory: '{cfg}'"]),
        Case(b"[1, 2]", ["config must be a JSON object"]),
        Case(b"{not json", ["cannot read config: Expecting property name enclosed in double quotes: "
                            "line 1 column 2 (char 1)"]),
        Case(b"\xff", ["cannot read config: 'utf-8' codec can't decode byte 0xff in position 0: "
                       "invalid start byte"]),
        Case(_config("transition-delta", output=5), ["output must be a table"])],
    # A zero block size divided by zero in validation, a string grid size
    # reached linspace, a boolean seed ran as seed 1, and integers past 64 bits
    # ended in OverflowError tracebacks.
    "test_cli_main_schema_errors_name_the_path": [
        Case(_config("transition-delta", field={"n_rep": 0}), ["field.n_rep: n_rep must be >= 1, got 0"],
             twin=lambda: build_phase_field(0.0, [0.0, 1.0], 0)),
        Case(_config("analytic", grid={"points": "400"}), ["grid.points: bad type str"]),
        Case(_config("analytic", master_seed=True), ["master_seed: unexpected boolean"]),
        Case(_config("transition-delta", field={"n_rep": 2**64}), [f"field.n_rep: value {2**64} out of range"]),
        Case(_config("transition-spectral", spectral={"widths_nm": [10**400]}),
             [f"spectral.widths_nm: value [{10**400}] out of range"])],
    # The kernel rules live in KernelParams alone.  Widths whose w_cp**n or
    # w_p**2 is no normal float ended in an OverflowError (1e200) or in
    # RuntimeWarnings (1e-300).
    "test_cli_main_kernel_rules_end_in_one_line": [
        Case(_config("transition-delta", kernel=kernel), [f"kernel: {message}"],
             twin=lambda kernel=kernel: KernelParams(**{"w_cp": 3.0, "w_p": 20.0, **kernel}))
        for kernel, message in (
            ({"w_cp": 0}, "w_cp and w_p must be positive"), ({"w_p": -1}, "w_cp and w_p must be positive"),
            ({"n": 0}, "n must be >= 2, got 0"),
            *[({name: width}, f"{name}**2 = {width!r}**2 is not a finite normal float")
              for width in (1e200, 1e-300) for name in ("w_cp", "w_p")])],
    # A true w_cp of 14 px blurs the pattern below every contrast the [0.5, 10] px curve reaches.
    "test_cli_main_calibration_beyond_curve_exits_2": [
        Case(_config("calibrate-wcp", kernel={"w_cp": 14.0}, measurement={"shot_noise": False}),
             ["measured contrast 0.0003541 lies outside the calibration curve's range [0.009772, 0.8661] "
              "over w_cp in [0.5, 10] px"], code=2, runs=True,
             twin=lambda: calibrate_wcp(KernelParams(14.0, 20.0), shot_noise=False))],
}


def _refusal_test(cases):
    """The test judging ``cases`` (``_judge``): one id per case of a dict."""
    if isinstance(cases, dict):
        @pytest.mark.parametrize("case", cases.values(), ids=cases.keys())
        def test(case):
            _judge(case)
        return test

    def test():
        for case in cases:
            _judge(case)
    return test


for _name, _cases in REFUSALS.items():
    globals()[_name] = _refusal_test(_cases)


class _ReadRecorder(dict):
    """A config table that records the dotted path of every key read by []."""

    def __init__(self, data, seen, path=""):
        super().__init__(data)
        self.seen, self.path = seen, path

    def __getitem__(self, key):
        where = f"{self.path}.{key}" if self.path else key
        self.seen.add(where)
        val = super().__getitem__(key)
        return _ReadRecorder(val, self.seen, where) if isinstance(val, dict) else val


def _leaves(table, path=""):
    for key, val in table.items():
        where = f"{path}.{key}" if path else key
        yield from _leaves(val, where) if isinstance(val, dict) else [where]


@pytest.mark.parametrize("preset", sorted(cli.PRESETS))
def test_preset_sets_only_keys_its_command_reads(preset):
    # A preset key its command never reads looks like a setting but does
    # nothing; run the preset's runner and check each one is read.
    seen = set()
    config = resolve_config({"preset": preset})
    cli._RUNNERS[config["command"]](_ReadRecorder(config, seen))
    unread = [leaf for leaf in _leaves(cli.PRESETS[preset]) if leaf != "command" and leaf not in seen]
    assert unread == []



def test_preset_takes_what_agrees_with_it(tmp_path):
    # The seed flag, a leaf equal to the preset's, and the preset's own
    # command all run the preset.
    assert main(["--preset", "fig4-left", "--seed", "7", "--out", str(tmp_path / "a")]) == 0
    assert embedded_config((tmp_path / "a" / "transition_delta_0.csv").read_text())["master_seed"] == 7
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"measurement": {"shot_noise": True}}))
    assert main(["--config", str(cfg), "--preset", "figS-calibration",
                 "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "b" / "calibration_vh.csv").exists()
    config = resolve_config({"command": "transition-delta", "preset": "fig4-left"})
    assert (config["rtn"]["gamma"], config["deltas"]) == (0.12, [3, 2, 1, 0])


def test_analytic_run_values():
    files = run_config({"command": "analytic", "grid": FAST_GRID, "rtn": {"gamma": 0.0}})
    assert set(files) == {"analytic_le.csv", "analytic_ge.csv"}
    body = data_section(files["analytic_ge.csv"]).splitlines()[1:]
    t = np.array([float(r.split(",")[0]) for r in body])
    mag = np.array([float(r.split(",")[3]) for r in body])
    assert np.allclose(mag, np.abs(np.cos(4 * t)), atol=1e-12)


def test_cli_main_analytic_at_fast_noise(tmp_path, capsys):
    # gamma = 500 (motional narrowing): the closed form used to turn NaN once
    # gamma * t exceeded ~710, so the run refused its own non-finite data.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "analytic", "rtn": {"gamma": 500}}))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
    body = data_section((tmp_path / "out" / "analytic_ge.csv").read_text()).splitlines()[1:]
    re_gamma = np.array([float(r.split(",")[1]) for r in body])
    assert re_gamma[0] == 1.0 and np.all((re_gamma > 0.0) & (re_gamma <= 1.0))



def test_mc_moment_has_stderr_column():
    files = run_config(
        {
            "command": "mc-moment",
            "grid": {"t_min": 0.0, "t_max": 2.0, "points": 5},
            "mc": {"order": 2, "n_real": 2000, "antithetic": True},
            "rtn": {"gamma": 1.0},
        }
    )
    text = files["mc_moment.csv"]
    header = data_section(text).splitlines()[0]
    assert header.endswith("stderr")
    # The series metadata says how wide the jump table was, how many jumps
    # the reduction swept, at how many times the direct pass ran (none: at
    # gamma = 1 the event sweep holds its precision) and how well the
    # estimate is pinned down; none of it enters the data section.
    line = next(l for l in text.splitlines() if l.startswith("# series = "))
    series = json.loads(line[len("# series = "):])
    batch = sample_batch(draw_ensemble(RtnParams(1.0, 2.0), 1000, SeedSpec(12345, 0)))
    assert series["jump_columns"] == batch.jump_times.shape[1] > 0
    assert series["jump_events"] == np.isfinite(batch.jump_times).sum() > 0
    assert series["direct_times"] == 0
    stderr = np.array([float(row.split(",")[-1]) for row in data_section(text).splitlines()[1:]])
    assert series["max_stderr"] == stderr.max() > 0


# One small config per command, for the output layout test.
_LAYOUT_CONFIGS = {
    "analytic": {"command": "analytic", "grid": FAST_GRID},
    "mc-moment": {"command": "mc-moment", "grid": FAST_GRID, "rtn": {"gamma": 1.0},
                  "mc": {"order": 2, "n_real": 200, "antithetic": False}},
    "transition-delta": {"command": "transition-delta", "grid": FAST_GRID, "deltas": [1]},
    "transition-spectral": {"command": "transition-spectral", "grid": FAST_GRID,
                            "spectral": {"widths_nm": [15.0]}},
    "optics-table": {"command": "optics-table", "optics": {"widths_nm": [15.0]},
                     "spectral": {"widths_nm": [15.0]}},
    "calibrate-wcp": {"command": "calibrate-wcp"},
}


@pytest.mark.parametrize("command", sorted(_LAYOUT_CONFIGS))
def test_every_file_has_one_layout(command):
    # Every file: metadata lines, "# columns = X", the header row X, then
    # rows with one cell per column.
    files = run_config(_LAYOUT_CONFIGS[command])
    assert files
    for name, text in files.items():
        lines = text.splitlines()
        first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        assert lines[first - 1] == "# columns = " + lines[first], name
        assert all(line.count(",") == lines[first].count(",") for line in lines[first:]), name


def test_non_finite_cell_refused():
    # Any column is checked, not only times and values.
    series = CoherenceSeries(np.linspace(0.0, 1.0, 3), np.ones(3), MONTE_CARLO,
                             stderr=np.array([0.0, np.nan, 0.1]))
    with pytest.raises(ValueError, match="non-finite stderr"):
        cli.series_csv(series, resolve_config({"command": "mc-moment"}))


def test_shared_column_written_like_a_copy():
    # A run formats its shared time column once for all its series files;
    # each file must get the bytes of its own formatted time column.
    cfg = resolve_config({"command": "mc-moment"})
    series = CoherenceSeries(np.array([0.0, 1.0 / 3.0, 2.5]), np.array([1.0, 0.5j, -0.25]),
                             MONTE_CARLO)
    assert cli.series_csv(series, cfg, cli._cells("t", series.times)) == cli.series_csv(series, cfg)


def test_rerun_is_byte_identical():
    cfg = {
        "command": "transition-delta",
        "deltas": [3, 0],
        "grid": FAST_GRID,
        "rtn": {"gamma": 0.12},
    }
    a = run_config(cfg)
    b = run_config(cfg)
    assert a == b


def test_metadata_roundtrip_reproduces_data():
    cfg = {"command": "transition-delta", "deltas": [2], "grid": FAST_GRID}
    first = run_config(cfg)
    text = first["transition_delta_2.csv"]
    resolved = embedded_config(text)
    again = run_config(resolved)
    assert data_section(again["transition_delta_2.csv"]) == data_section(text)


def test_seed_changes_data():
    base = {"command": "transition-delta", "deltas": [0], "grid": FAST_GRID,
            "rtn": {"gamma": 0.12}}
    a = run_config(base)
    b = run_config({**base, "master_seed": 777})
    assert a != b



def test_cli_main_resolves_config_once(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "resolve_config", lambda user: calls.append(user) or resolve_config(user))
    assert main(["--preset", "fig3-left", "--out", str(tmp_path)]) == 0
    assert len(calls) == 1



def test_cli_seed_override_lands_in_metadata(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "analytic", "grid": FAST_GRID}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--seed", "4242"]) == 0
    text = (out / "analytic_le.csv").read_text()
    assert embedded_config(text)["master_seed"] == 4242


# mc-moment configs for the thread-count test: gamma = 1 on the default
# 400-point grid, so the reduction sweeps several row chunks and a partial one;
# at gamma = 100 a row holds ~630 jumps, so the direct pass runs instead, over
# chunks of about 60 rows.
_MC_THREAD_CONFIGS = {
    f"mc-moment-{mode}": {"command": "mc-moment", "rtn": {"gamma": gamma},
                          "mc": {"order": order, "n_real": n_real,
                                 "antithetic": mode == "antithetic"}}
    for mode, gamma, order, n_real in (("antithetic", 1.0, 4, 3000), ("plain", 1.0, 2, 3000),
                                       ("dense", 100.0, 2, 1000))
}


# Runs ``cli.main`` on each argv list in one fresh interpreter and prints, as
# its last line, whether scipy was loaded after the import and after each run.
_MAIN_PROBE = """
import json, sys
import ltgsim.cli as cli
loaded = ["scipy" in sys.modules]
for argv in json.loads(sys.argv[1]):
    if cli.main(argv) != 0:
        sys.exit(3)
    loaded.append("scipy" in sys.modules)
print(json.dumps(loaded))
"""


def _run_in_one_child(argvs, env):
    proc = subprocess.run(
        [sys.executable, "-c", _MAIN_PROBE, json.dumps(argvs)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, f"probe exited {proc.returncode}:\n{proc.stderr}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


_THREAD_SOURCES = ("fig3-left", "fig4-left", "fig4-right", "figS-calibration", *_MC_THREAD_CONFIGS)


@pytest.fixture(scope="module")
def thread_count_outputs(tmp_path_factory, child_env):
    # One child per thread count runs every config; returns, per thread
    # count, each config's CSV data sections by file name.
    tmp = tmp_path_factory.mktemp("threads")
    sources = {}
    for name in _THREAD_SOURCES:
        if name in _MC_THREAD_CONFIGS:
            path = tmp / f"{name}.json"
            path.write_text(json.dumps(_MC_THREAD_CONFIGS[name]))
            sources[name] = ["--config", str(path)]
        else:
            sources[name] = ["--preset", name]
    outs = []
    for threads in ("1", "8"):
        root = tmp / f"t{threads}"
        _run_in_one_child([[*source, "--out", str(root / name)] for name, source in sources.items()],
                          child_env(OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads))
        outs.append({name: {p.name: data_section(p.read_text()) for p in sorted((root / name).glob("*.csv"))}
                     for name in sources})
    return outs


@pytest.mark.parametrize("preset", _THREAD_SOURCES)
def test_preset_run_thread_count_invariance(thread_count_outputs, preset):
    # Byte-identical data sections regardless of the thread budget (the
    # metadata block embeds the per-run output directory, so only the data
    # part is comparable).  fig4-left runs the block contraction at
    # gamma = 0.12 for four shifts; fig4-right adds the optics profile and
    # width fits for four kernels; figS-calibration runs the pattern
    # contraction for 21 kernels and 20 shifts each; the mc-moment runs
    # take the chunked event sweep, antithetic and plain, and at gamma = 100
    # (~600 jumps a row) the chunked direct pass.
    one, eight = (outs[preset] for outs in thread_count_outputs)
    assert one and one == eight


def test_scipy_stays_off_the_startup_path(tmp_path, child_env):
    # The package depends on numpy alone: every command, the optics model
    # included, must start and run without loading scipy.
    cfg = tmp_path / "mc.json"
    cfg.write_text(json.dumps(
        {"command": "mc-moment", "grid": FAST_GRID, "rtn": {"gamma": 1.0},
         "mc": {"n_real": 200}}
    ))
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"command": "optics-table", "optics": {"widths_nm": [1.0, 40.0]}}))
    argvs = [["--preset", "fig4-left", "--out", str(tmp_path / "a")],
             ["--preset", "figS-calibration", "--out", str(tmp_path / "b")],
             ["--config", str(cfg), "--out", str(tmp_path / "c")]]
    assert _run_in_one_child(argvs, child_env()) == [False] * 4
    # the optics model runs in a fresh probe, so nothing before it can have
    # loaded scipy on its behalf
    argvs = [["--preset", "fig4-right", "--out", str(tmp_path / "d")],
             ["--config", str(table), "--out", str(tmp_path / "e")]]
    assert _run_in_one_child(argvs, child_env()) == [False] * 3


# Boundary values of every numeric config leaf: 0, tiny, huge, and values on
# both sides of each edge of its range (one unit apart for integers).
# Resource ceilings (expected jumps, array entries, counts, profile grid
# size) are drawn on their refused side only: their accepted side is by
# construction up to ~0.8 GB per array.
_TINY, _HUGE = 5e-324, sys.float_info.max
_EDGE_VALUES = {
    "master_seed": [-1, 0, 2**64 - 1, 2**64],
    "grid.t_min": [-1.0, 0.0, _TINY, 1.0, 2.0, 1e300],
    # 2 * order * t_max overflows past 2.2e307 (order 4), 4.5e307 (2) and 9e307 (1)
    "grid.t_max": [-1.0, 0.0, _TINY, 1.0, 1e300, 2.2e307, 2.3e307, 4.4e307, 4.5e307, 8.9e307,
                   9e307, _HUGE],
    "grid.points": [-1, 0, 1, 2, 10**12, 10**400],
    "rtn.gamma": [-1.0, 0.0, _TINY, 1.0, 1e300, _HUGE, 10**400],
    "kernel.w_cp": [-1.0, 0.0, _TINY, 1e-300, 1e-150, 1.0, 1e150, 1e200, _HUGE],
    "kernel.w_p": [-1.0, 0.0, _TINY, 1e-300, 1e-150, 1.0, 1e150, 1e200, _HUGE],
    "kernel.n": [-1, 0, 1, 2, 3, 4, 2**64],
    "geometry.pixels_per_half": [-1, 0, 1, 2, 3, 319, 321, 2**63, 2**64],
    "geometry.j0": [-1.0, 0.0, _TINY, 0.5, 319.0, 320.0, 1e300],
    "geometry.k0": [319.0, 320.0, 639.0, 640.0, 1e19, 1e300],
    "field.n_rep": [-1, 0, 1, 2, 160, 161, 2**63, 2**64],
    "deltas": [[-320], [-319], [0], [319], [320], [2**63], [2**64]],
    "spectral.widths_nm": [[-1.0], [0.0], [_TINY], [1e-6], [120.0], [121.0], [_HUGE], [10**400]],
    "mc.order": [-1, 0, 1, 2, 2**63, 2**64, 10**400],
    "mc.n_real": [-1, 0, 1, 2, 3, 10**9, 10**400],
    "mc.antithetic": [False, True],
    "measurement.p": [-1.0, 0.0, _TINY, sys.float_info.min, 1e-300, 1.0, 1.0000000000000002],
    "measurement.n0": [-1.0, 0.0, _TINY, 1e-300, 0.1, 6e16, 7e16, _HUGE],
    "measurement.acquisition_s": [-1.0, 0.0, _TINY, 1e-300, 1.9e15, 2.1e15, _HUGE],
    "measurement.repeats": [-1, 0, 1, 2, 10**12, 10**400],
    "measurement.shot_noise": [False, True],
    "measurement.n_r": [-1, 0, 1, 160, 161, 2**64],
    "measurement.h_min": [-2**64, -320, -319, 0, 1, 319, 320],
    "measurement.h_max": [-320, -319, -8, -7, 0, 319, 320, 2**64],
    "optics.widths_nm": [[0.0], [_TINY], [1e-6], [120.0], [121.0], [10**400]],
    "optics.theta_0": [-1.0, 0.0, _TINY, 0.5, 0.58, 0.59, 7.4, 100.0, _HUGE],
}

# Small runs of every command, which the drawn leaves then override.
_SMALL_RUN = {"grid": {"t_min": 0.0, "t_max": 2.0, "points": 8}, "deltas": [1],
              "mc": {"order": 2, "n_real": 8}, "spectral": {"widths_nm": [15.0]},
              "optics": {"widths_nm": [15.0]}}


@st.composite
def _edge_configs(draw):
    config = json.loads(json.dumps(_SMALL_RUN))
    config["command"] = draw(st.sampled_from(cli.COMMANDS))
    for leaf in draw(st.lists(st.sampled_from(sorted(_EDGE_VALUES)), min_size=1, max_size=3)):
        *sections, key = leaf.split(".")
        table = config
        for section in sections:
            table = table.setdefault(section, {})
        table[key] = draw(st.sampled_from(_EDGE_VALUES[leaf]))
    return config



@given(_edge_configs())
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_validate_agrees_with_the_run(config):
    # --validate and the run judge one config alike: a refused config exits 1
    # with one stderr line and writes nothing; an accepted one runs to finite
    # data, or ends as a numerical error (exit 2) in one line.  --validate
    # answers on stdout alone: every refusal, or nothing.
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        cfg.write_text(json.dumps(config))
        code, diags, validate_err = _main_in_process(["--config", str(cfg), "--validate"])
        run_code, _, err = _main_in_process(["--config", str(cfg), "--out", str(out)])
        assert validate_err == [] and bool(diags) == bool(code), (diags, validate_err)
        if code:
            # diagnostics on stdout, each under its key
            assert code == 1 and run_code == 1, (diags, err)
            assert all(re.match(r"[\w.\[\]/]+: ", d) for d in diags), diags
            assert len(err) == 1 and err[0].startswith("input error: ") and not out.exists()
        elif run_code == 2:
            assert len(err) == 1 and err[0].startswith("numerical error: ") and not out.exists()
        else:
            assert run_code == 0 and list(out.glob("*.csv")) and _finite_csvs(out), err


# ---------------------------------------------------------------------------
# Reach: the CLI runs enter every function of src/ltgsim
# ---------------------------------------------------------------------------

# One small run of each command through cli.main.
_REACH_RUNS = [
    {"command": "analytic", "rtn": {"gamma": 1.0}, "grid": FAST_GRID},
    {"command": "mc-moment", "rtn": {"gamma": 1.0}, "grid": FAST_GRID,
     "mc": {"order": 2, "n_real": 200, "antithetic": False}},
    {"command": "mc-moment", "rtn": {"gamma": 1.0}, "grid": FAST_GRID,
     "mc": {"order": 4, "n_real": 200, "antithetic": True}},
    # ~630 jumps a row on 40 times: the direct pass runs alone
    {"command": "mc-moment", "rtn": {"gamma": 100.0}, "grid": FAST_GRID,
     "mc": {"order": 2, "n_real": 200}},
    # a wide order-4 kernel, at a negative shift too
    {"command": "transition-delta", "rtn": {"gamma": 0.12}, "grid": FAST_GRID,
     "kernel": {"w_cp": 8.0, "w_p": 200.0, "n": 4}, "deltas": [-5, 0, 3]},
    {"command": "transition-spectral", "rtn": {"gamma": 0.12}, "grid": FAST_GRID,
     "spectral": {"widths_nm": [15.0]}},
    {"command": "optics-table", "optics": {"widths_nm": [15.0, 100.0]}},
    {"preset": "figS-calibration"},
]

# The functions of src no run enters, each with why it stays there.
_PINNED = "a test oracle that perfbench/spans.py wraps by name"
_FAKE = "lets a test reduce a TrajectoryBatch where a run passes an Ensemble"
_UNREACHED = {
    "slm.build_kernel": _PINNED,
    "slm.phasor_sum": _PINNED,
    "slm.CorrelationKernel.__post_init__": "the check of build_kernel's result",
    "optics.JointSpatialProfile.F": "the dense profile, read only by perfbench's optics.grid_points",
    "rtn.TrajectoryBatch.width": _FAKE,
    "rtn.TrajectoryBatch.jump_events": _FAKE,
    "rtn.TrajectoryBatch.chunks": _FAKE,
    "cli.data_section": "a reader of output files, for scripts/regenerate_out.py and the tests",
    "cli.run_config": "the in-process entry of scripts/regenerate_out.py and the tests",
    "cli.ConfigError.__init__": "entered only when resolve_config refuses a config",
}


def _src_functions() -> dict[tuple[str, int], str]:
    """{(file, first line): "module.qualname"} of every named function and method of src/ltgsim."""
    found = {}
    for path in sorted(Path(cli.__file__).resolve().parent.glob("*.py")):
        codes = [compile(path.read_text(), str(path), "exec")]
        while codes:
            code = codes.pop()
            codes += [c for c in code.co_consts if inspect.iscode(c)]
            # class bodies are not optimized; lambdas and comprehensions are not named
            if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
                found[str(path), code.co_firstlineno] = f"{path.stem}.{code.co_qualname}"
    return found


def test_every_src_function_is_entered_by_a_cli_run(tmp_path):
    # Code that only tests reach does not stay in src unnoticed: a function
    # that no run enters fails here unless _UNREACHED names it, and an entry
    # a run does enter, or that is gone, fails too.  The verdict must not
    # depend on test order: a process-wide cached function (functools.cache,
    # say) is entered only by the first main call of a process, so it passes
    # when this test runs alone and fails after any test that ran main.  Work
    # done once per process belongs at module level, as cli._PARSER is.
    calls, previous = set(), sys.getprofile()

    def profile(frame, event, arg):
        if event == "call":
            calls.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    configs = []
    for i, config in enumerate(_REACH_RUNS):
        configs.append(tmp_path / f"{i}.json")
        configs[-1].write_text(json.dumps(config))
    sys.setprofile(profile)
    try:
        codes = [main(["--config", str(cfg), "--out", str(tmp_path / cfg.stem)]) for cfg in configs]
    finally:
        sys.setprofile(previous)
    assert codes == [0] * len(configs)
    entered = {(str(Path(name).resolve()), line) for name, line in calls}
    never = {name for key, name in _src_functions().items() if key not in entered}
    assert sorted(never - _UNREACHED.keys()) == []
    assert sorted(_UNREACHED.keys() - never) == []


def test_runs_build_no_parser_and_one_setup_each(tmp_path, monkeypatch):
    # The process's one parser is built when cli is imported, so main builds
    # none; resolve_config checks each of the 16 default spectral and optics
    # widths by optics.check_spectral_width and builds one PdcSetup, the one
    # whose profile grid checks theta_0.  Neither run builds another.
    built = []
    for owner, name in ((argparse.ArgumentParser, "__init__"), (PdcSetup, "__post_init__")):
        def counted(*args, _f=getattr(owner, name), _owner=owner.__name__, **kwargs):
            built[-1][_owner] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    for preset in ("figS-calibration", "fig4-left"):
        built.append({"ArgumentParser": 0, "PdcSetup": 0})
        assert main(["--preset", preset, "--out", str(tmp_path / preset)]) == 0
    assert built == [{"ArgumentParser": 0, "PdcSetup": 1}] * 2
