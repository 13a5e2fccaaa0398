"""Config validation, presets, output format and reproducibility."""
import contextlib
import io
import json
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltgsim import cli, optics
from ltgsim.cli import (
    ConfigError,
    data_section,
    main,
    resolve_config,
    run_config,
)
from ltgsim.rtn import RtnParams, SeedSpec, draw_ensemble, sample_batch
from ltgsim.series import MONTE_CARLO, CoherenceSeries

FAST_GRID = {"t_min": 0.0, "t_max": 2.0 * np.pi, "points": 40}


def embedded_config(text: str) -> dict:
    """The resolved config an output file embeds in its ``# config`` line."""
    for line in text.splitlines():
        if line.startswith("# config = "):
            return json.loads(line[len("# config = "):])
    raise ValueError("no embedded config found")


def _problems(user_config: dict) -> list[str]:
    """The problems ``resolve_config`` refuses a config for; [] if it resolves."""
    try:
        resolve_config(user_config)
    except ConfigError as exc:
        return exc.problems
    return []


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown config key: kernal"):
        resolve_config({"command": "analytic", "kernal": {}})
    with pytest.raises(ConfigError, match="kernel.width"):
        resolve_config({"command": "analytic", "kernel": {"width": 3}})


def test_validate_odd_kernel_order():
    diags = _problems({"command": "transition-delta", "kernel": {"n": 3}})
    assert any("even" in d for d in diags)


def test_validate_spectral_bounds(tmp_path):
    # Spectral widths are checked against the optics model's range, not
    # against the optics-table widths: 110 nm runs, 130 nm does not.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "transition-spectral", "grid": FAST_GRID,
                               "spectral": {"widths_nm": [110.0]}}))
    assert main(["--config", str(cfg), "--validate"]) == 0
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "transition_spectral_110nm.csv").exists()
    diags = _problems(
        {"command": "transition-spectral", "spectral": {"widths_nm": [130.0]}}
    )
    assert diags == ["spectral: width 130.0 nm outside model range [0, 120.0] nm"]
    assert _problems(
        {"command": "transition-spectral", "spectral": {"widths_nm": [15.0]},
         "optics": {"widths_nm": [1.0, 2.0]}}
    ) == []
    # a boolean is not a width of 1 nm
    for section in ("spectral", "optics"):
        diags = _problems(
            {"command": "transition-spectral", section: {"widths_nm": [True]}}
        )
        assert any(d.startswith(f"{section}: width True") for d in diags)


def test_validate_clean_preset():
    assert _problems({"preset": "fig3-right"}) == []


def test_master_seed_rule_is_the_seed_spec_rule():
    # One check serves the config and the library: what resolve_config
    # reports for master_seed is what SeedSpec raises.
    with pytest.raises(ValueError) as err:
        SeedSpec(-1)
    assert _problems({"command": "analytic", "master_seed": -1}) == [f"master_seed: {err.value}"]


def test_validate_delta_off_mask():
    diags = _problems({"command": "transition-delta", "deltas": [400]})
    assert any("mask" in d for d in diags)
    # a boolean is not a shift of 1 pixel
    diags = _problems({"command": "transition-delta", "deltas": [True]})
    assert any(d.startswith("deltas: shift True") for d in diags)
    # the calibration's pattern shifts face the same mask
    diags = _problems(
        {"command": "calibrate-wcp", "measurement": {"h_min": -400, "h_max": -330}}
    )
    assert any(d.startswith("measurement: h_min shift delta=-400 moves every pixel off")
               for d in diags)
    assert any(d.startswith("measurement: h_max shift delta=-330 moves every pixel off")
               for d in diags)
    diags = _problems(
        {"command": "calibrate-wcp", "measurement": {"h_min": -319, "h_max": 319}}
    )
    assert diags == []


def test_validate_odd_pixels_per_half(tmp_path, capsys):
    # The phase field mirrors each block half a mask away, so both transition
    # commands need an even pixel count; --validate must say so, not the run.
    cfg = tmp_path / "cfg.json"
    for command in ("transition-delta", "transition-spectral"):
        cfg.write_text(json.dumps({"command": command, "geometry": {"pixels_per_half": 321}}))
        assert main(["--config", str(cfg), "--validate"]) == 1
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1 and out[0].startswith("geometry: pixels_per_half 321 is odd")
    # no phase field, no constraint
    assert _problems(
        {"command": "calibrate-wcp", "geometry": {"pixels_per_half": 321}}) == []


def test_validate_repeated_sweep_entries(tmp_path, capsys):
    # Entries that format to one file name would overwrite each other's
    # series after running twice: --validate names the file, in one line.
    cfg = tmp_path / "cfg.json"
    cases = [({"command": "transition-delta", "deltas": [1, 1, 0]},
              "deltas: entries share an output file: transition_delta_1.csv"),
             ({"command": "transition-spectral", "spectral": {"widths_nm": [15, 15.0000001, 30]}},
              "spectral.widths_nm: entries share an output file: transition_spectral_15nm.csv")]
    for config, message in cases:
        cfg.write_text(json.dumps(config))
        assert main(["--config", str(cfg), "--validate"]) == 1
        assert capsys.readouterr().out.strip().splitlines() == [message]
    # the optics table writes each width as a row of one file: repeats are fine
    assert _problems(
        {"command": "optics-table", "optics": {"widths_nm": [15.0, 15.0]}}) == []


def test_validate_answers_on_stdout_alone(tmp_path, capsys):
    # Shape, preset and leaf refusals used to reach stderr under --validate,
    # and only the first of two leaf problems was named.  Every refusal goes to
    # stdout, one per line, and a run ends in one stderr line joining them all.
    cfg = tmp_path / "cfg.json"
    cases = [('{"command": "analytic", "kernal": {}}', ["unknown config key: kernal"]),
             ('{"preset": "fig3-left", "rtn": {"gamma": 0.5}}',
              ["preset fig3-left: rtn.gamma is 0.5, but the preset sets 0.0"]),
             ('{"command": "analytic", "grid": {"points": -1}}',
              ["grid.points: value -1 out of range"]),
             ('{"grid": {"points": "x"}, "rtn": {"gamma": NaN}}',
              ["config must name a command (or a preset)", "grid.points: bad type str",
               "rtn.gamma: nan is not a finite number"])]
    for text, lines in cases:
        cfg.write_text(text)
        assert main(["--config", str(cfg), "--validate"]) == 1
        assert capsys.readouterr() == ("\n".join(lines) + "\n", "")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr() == ("", "input error: " + "; ".join(lines) + "\n")
    assert not (tmp_path / "out").exists()


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


def test_unknown_preset():
    with pytest.raises(ConfigError, match="unknown preset"):
        resolve_config({"preset": "fig9"})
    with pytest.raises(ConfigError, match=r"unknown preset \{\}"):  # not a TypeError
        resolve_config({"preset": {}})


def test_preset_refuses_what_it_would_drop(tmp_path, capsys):
    # Another command beside a preset, or a leaf the preset sets to another
    # value, used to drop one side silently (the preset, or the leaf); both
    # now stop with one line naming the path, and nothing is written.
    cfg = tmp_path / "cfg.json"
    cases = [({"command": "analytic"}, ["--preset", "fig4-left"],
              "input error: command is 'analytic', but preset fig4-left runs 'transition-delta'"),
             ({"preset": "fig3-left", "rtn": {"gamma": 0.5}}, [],
              "input error: preset fig3-left: rtn.gamma is 0.5, but the preset sets 0.0")]
    for config, flags, message in cases:
        cfg.write_text(json.dumps(config))
        assert main(["--config", str(cfg), *flags, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [message]
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("config, code, line", [
    # A sine fit of V(h) through 1-3 shifts has no scatter left: exit 0
    # with vis_of_v 1.0 +- 1.3e-15 (h 0..1), or exit 2 "calibration curve is
    # flat" (h 0..0).
    ({"command": "calibrate-wcp", "measurement": {"h_min": 0, "h_max": 1}}, 1,
     "input error: measurement.h_min/h_max: "),
    ({"command": "calibrate-wcp", "measurement": {"h_min": 0, "h_max": 2}}, 1,
     "input error: measurement.h_min/h_max: "),
    ({"command": "calibrate-wcp", "measurement": {"h_min": 0, "h_max": 0}}, 1,
     "input error: measurement.h_min/h_max: "),
    # n_r = 1 leaves two shift phases h mod 2: exit 0 with w_cp 2.93 for a
    # true 3.1 (vis_of_v 1.6e-5 +- 1.2e-16), or with shot noise exit 2 "0.7 sigma".
    *[({"command": "calibrate-wcp", "kernel": {"w_cp": 3.1},
        "measurement": {"n_r": 1, "shot_noise": shot_noise}}, 1,
       "input error: measurement.h_min/h_max: ") for shot_noise in (False, True)],
    # A pattern period longer than a mask half leaves a curve range ~1e-9.
    ({"command": "calibrate-wcp", "measurement": {"n_r": 100000}}, 1,
     "input error: measurement.n_r: "),
    # p = 0 divided 0 by 0 in the curve's sine fits.
    ({"command": "calibrate-wcp", "measurement": {"p": 0}}, 1, "input error: measurement.p: "),
    # numpy's Poisson draw refused with "lam value too large".
    ({"command": "calibrate-wcp", "measurement": {"n0": 1e300}}, 1,
     "input error: measurement.n0/acquisition_s: "),
    # The window factor of a 1e-300 nm window vanishes on the whole grid, and
    # the marginal's second moment divided 0 by 0.
    ({"command": "transition-spectral", "spectral": {"widths_nm": [1e-300]}}, 1,
     "input error: spectral: width 1e-300 nm is below the"),
    # gamma^2 overflowed to inf and the closed form turned NaN.
    ({"command": "analytic", "rtn": {"gamma": 1e300}, "grid": FAST_GRID}, 0, None),
    # 2 * d * t overflowed (5e307), and gamma + d and 2 * d too, with inf * 0
    # at t = 0 (1e308 and the largest float).
    ({"command": "analytic", "rtn": {"gamma": 5e307}, "grid": FAST_GRID}, 0, None),
    ({"command": "analytic", "rtn": {"gamma": 1e308}, "grid": FAST_GRID}, 0, None),
    ({"command": "analytic", "rtn": {"gamma": sys.float_info.max}, "grid": FAST_GRID}, 0, None),
    # The one-point grid [0] passed --validate, then the noise horizon 0 was
    # refused naming no key.
    *[({"command": command, "grid": {"points": 1}}, 1, "input error: grid.points: ")
      for command in ("mc-moment", "transition-delta", "transition-spectral")],
    # order * t overflowed with 2-6 RuntimeWarnings before the non-finite data
    # was refused.
    *[({"command": command, "grid": {"t_max": 1.7e308}}, 1, "input error: grid.t_max: ")
      for command in ("analytic", "mc-moment", "transition-delta")],
    # A shift without a coincidence is a measurement outcome, not an input
    # error: "visibility undefined: zero total counts" exited 1.
    ({"command": "calibrate-wcp", "measurement": {"n0": 0.1}}, 2,
     "numerical error: shift h = -9 recorded no coincidences in 4 x 8 s at n0 = 0.1"),
    # A beam narrower than the pixel pitch off the pixel centres: every pair
    # weight underflows, which --validate cannot see without the kernel.
    ({"command": "calibrate-wcp", "kernel": {"w_p": 1e-150}, "geometry": {"j0": 0.5}}, 2,
     "numerical error: kernel has no support on the mask"),
], ids=["h-0-1", "h-0-2", "h-0-0", "n_r-1", "n_r-1-shot-noise", "n_r-1e5", "p-0", "n0-1e300",
        "width-1e-300nm", "gamma-1e300", "gamma-5e307", "gamma-1e308", "gamma-max", "one-point-mc", "one-point-delta",
        "one-point-spectral", "t_max-max-analytic", "t_max-max-mc", "t_max-max-delta",
        "n0-0.1", "no-support"])
def test_cli_main_extreme_inputs_end_cleanly(tmp_path, capsys, config, code, line):
    # Each input either runs to finite data or ends in one stderr line and
    # its exit code, with no warning (warnings are errors under pytest).
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == code
    err = capsys.readouterr().err.strip().splitlines()
    if line is None:
        assert err == [] and list(out.glob("*.csv"))
        for path in out.glob("*.csv"):
            body = [r.split(",") for r in data_section(path.read_text()).splitlines()[1:]]
            assert np.all(np.isfinite(np.array(body, dtype=float)))
    else:
        assert len(err) == 1 and err[0].startswith(line), err
        assert not out.exists()


def test_empty_sweep_is_rejected():
    # an empty sweep list would exit 0 and write nothing (or an empty table)
    with pytest.raises(ConfigError, match="deltas: empty list"):
        run_config({"command": "transition-delta", "deltas": [], "grid": FAST_GRID})
    for key in ("spectral", "optics"):
        diags = _problems(
            {"command": "transition-spectral", key: {"widths_nm": []}}
        )
        assert f"{key}.widths_nm: empty list, nothing to run" in diags


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


def test_cli_main_validate_exit_codes(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"command": "analytic"}))
    assert main(["--config", str(good), "--validate"]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"command": "transition-delta", "kernel": {"n": 3}}))
    assert main(["--config", str(bad), "--validate"]) == 1
    bad.write_text(json.dumps(
        {"command": "calibrate-wcp", "measurement": {"h_min": -400, "h_max": -330}}
    ))
    assert main(["--config", str(bad), "--validate"]) == 1


def test_cli_main_validate_rejects_unbounded_sampling(tmp_path, capsys, monkeypatch):
    # A huge or infinite rate keeps the jump sampler drawing until memory runs
    # out, so validation must stop it before any draw (the samplers are
    # replaced by a failing stub); every non-finite leaf is named by its path.
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampler ran on a config that fails validation")

    monkeypatch.setattr(cli.slm, "sample_trajectory", no_sampling)
    monkeypatch.setattr(cli, "mc_exponential_moment", no_sampling)
    cfg = tmp_path / "cfg.json"
    cases = [
        ('{"command": "transition-delta", "rtn": {"gamma": 1e308}}',
         "rtn: gamma * t_max over 54"),
        ('{"command": "mc-moment", "rtn": {"gamma": 200.0}}',
         "rtn: gamma * t_max over 100000"),
        ('{"command": "mc-moment", "rtn": {"gamma": Infinity}}',
         "rtn.gamma: inf is not a finite"),
        ('{"command": "analytic", "grid": {"t_max": Infinity}}',
         "grid.t_max: inf is not a finite"),
        ('{"command": "transition-delta", "geometry": {"j0": -Infinity}}',
         "geometry.j0: -inf is not a finite"),
    ]
    for text, message in cases:
        cfg.write_text(text)
        assert main(["--config", str(cfg), "--validate"]) == 1
        assert capsys.readouterr().out.startswith(message)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("input error: " + message)
    assert not (tmp_path / "out").exists()
    # a non-finite list entry is named by its index
    diags = _problems(
        {"command": "transition-spectral", "spectral": {"widths_nm": [15.0, float("nan")]}}
    )
    assert "spectral.widths_nm[1]: nan is not a finite number" in diags


def test_cli_main_validate_bounds_profile_grid(tmp_path, capsys, monkeypatch):
    # The profile grid is sized from theta_0 (beam width ~ 1 / theta_0): at
    # theta_0 = 100 it has one point and the width fits crashed; at 1e-3 it
    # has 14 929 points per axis (~1.8 GB per array).  Both must stop at
    # validation, before any profile is built (joint_profile is stubbed).
    def no_profile(*args, **kwargs):
        raise AssertionError("profile built for a config that fails validation")

    monkeypatch.setattr(cli.optics, "joint_profile", no_profile)
    cfg = tmp_path / "cfg.json"
    for theta_0, points in ((100, "1"), (1e-3, "14929"), (1e-320, "inf")):
        cfg.write_text(json.dumps({"command": "optics-table", "optics": {"theta_0": theta_0}}))
        message = f"optics: theta_0 {theta_0!r} sizes the profile grid at {points} points"
        assert main(["--config", str(cfg), "--validate"]) == 1
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1 and out[0].startswith(message)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("input error: " + message)
    assert not (tmp_path / "out").exists()
    # the calibrated angle sizes the grid at 511 points
    assert _problems({"command": "optics-table"}) == []


def test_cli_main_validate_rejects_beam_finer_than_grid(tmp_path, capsys, monkeypatch):
    # At theta_0 = 7.4 (3 grid points) and 2 (7 points) the expected beam
    # width is 0.079 and 0.29 px, 0.3 and 1.2 grid spacings; the width fits
    # returned 0.43 and 1.33 px for them with no flag.  Both must stop at
    # validation; the calibrated angle (80 spacings) passes.
    def no_profile(*args, **kwargs):
        raise AssertionError("profile built for a config that fails validation")

    monkeypatch.setattr(cli.optics, "joint_profile", no_profile)
    cfg = tmp_path / "cfg.json"
    for theta_0 in (7.4, 2):
        cfg.write_text(json.dumps({"command": "optics-table", "optics": {"theta_0": theta_0}}))
        message = f"optics: theta_0 {theta_0!r} gives an expected beam width of"
        assert main(["--config", str(cfg), "--validate"]) == 1
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1 and out[0].startswith(message)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("input error: " + message)
    assert not (tmp_path / "out").exists()
    cfg.write_text(json.dumps({"command": "optics-table",
                               "optics": {"theta_0": optics.THETA0_CALIBRATED}}))
    assert main(["--config", str(cfg), "--validate"]) == 0


def test_cli_main_validate_bounds_mc_rows(tmp_path, capsys):
    # At gamma = 0 no jump is expected, but 1e10 rows would need 80 GB for
    # their signs alone.  Validated only: this config is never run.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "mc-moment", "rtn": {"gamma": 0.0},
                               "mc": {"n_real": 10_000_000_000}}))
    assert main(["--config", str(cfg), "--validate"]) == 1
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["mc: 1e+10 array entries exceed the 100,000,000 "
                   "(~0.8 GB per array) a run may hold"]
    # the ceiling itself is allowed
    assert _problems(
        {"command": "mc-moment", "rtn": {"gamma": 0.0}, "mc": {"n_real": 100_000_000}}
    ) == []


def test_cli_main_validate_bounds_grid_and_repeats(tmp_path, capsys, monkeypatch):
    # 1e10 grid points are an 80 GB time grid (and the phase field holds 108
    # blocks' phasors per point); 1e12 repeats a (1e12, 2) Poisson array per
    # shift.  Validated only: the work is stubbed and these configs never run.
    def no_work(*args, **kwargs):
        raise AssertionError("work started on a config that fails validation")

    monkeypatch.setattr(cli, "_RUNNERS", dict.fromkeys(cli._RUNNERS, no_work))
    cfg = tmp_path / "cfg.json"
    big_grid = {"points": 10_000_000_000}
    cases = [({"command": "analytic", "grid": big_grid}, "grid.points: 1e+10 array entries"),
             ({"command": "transition-delta", "grid": big_grid}, "grid.points: 1.08e+12 array entries"),
             ({"command": "calibrate-wcp", "measurement": {"repeats": 1_000_000_000_000}},
              "measurement.repeats: 2e+12 array entries")]
    for config, message in cases:
        cfg.write_text(json.dumps(config))
        assert main(["--config", str(cfg), "--validate"]) == 1
        out = capsys.readouterr().out.strip().splitlines()
        assert out == [message + " exceed the 100,000,000 (~0.8 GB per array) a run may hold"]
    # the ceiling itself is allowed: the phase field's 108 blocks by 925 925 points
    assert _problems(
        {"command": "transition-delta", "grid": {"points": 925_925}}) == []
    assert _problems(
        {"command": "transition-delta", "grid": {"points": 925_926}}) != []


def test_cli_main_missing_file(tmp_path, capsys):
    assert main(["--config", "/nonexistent/cfg.json"]) == 1
    # Unusable contents: not an object, not JSON, not UTF-8, an output
    # section that is not a table (``--out`` writes into it).
    cfg = tmp_path / "cfg.json"
    for raw in (b"[1, 2]", b"{not json", b"\xff",
                b'{"command": "transition-delta", "output": 5}'):
        cfg.write_bytes(raw)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 5 and err[-1] == "input error: output must be a table"


def test_cli_main_schema_errors_name_the_path(tmp_path, capsys):
    # A zero block size would divide by zero in validation, a string grid
    # size would reach linspace, and a boolean seed would run as seed 1:
    # each must stop before any work with one line naming the dotted path.
    cfg = tmp_path / "cfg.json"
    cases = [({"command": "transition-delta", "field": {"n_rep": 0}}, "field.n_rep"),
             ({"command": "analytic", "grid": {"points": "400"}}, "grid.points"),
             ({"command": "analytic", "master_seed": True}, "master_seed"),
             # integers past 64 bits ended in OverflowError tracebacks
             ({"command": "transition-delta", "field": {"n_rep": 2**64}}, "field.n_rep"),
             ({"command": "transition-spectral", "spectral": {"widths_nm": [10**400]}},
              "spectral.widths_nm")]
    for config, where in cases:
        cfg.write_text(json.dumps(config))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"input error: {where}: "), err
    assert not (tmp_path / "out").exists()


def test_cli_main_kernel_rules_end_in_one_line(tmp_path, capsys):
    # The kernel rules live in slm.KernelParams alone; validation reports its
    # message under "kernel", and a run stops there with exit 1, no file.
    # Widths whose w_cp**n or w_p**2 is not a normal float ended in an
    # OverflowError traceback (1e200) or in RuntimeWarnings (1e-300).
    cfg = tmp_path / "cfg.json"
    for kernel in ({"w_cp": 0}, {"w_p": -1}, {"n": 0}, {"w_cp": 1e200}, {"w_p": 1e200},
                   {"w_cp": 1e-300}, {"w_p": 1e-300}):
        cfg.write_text(json.dumps({"command": "transition-delta", "kernel": kernel}))
        assert main(["--config", str(cfg), "--validate"]) == 1
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1 and out[0].startswith("kernel: "), out
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("input error: kernel: "), err
    assert not (tmp_path / "out").exists()


def test_cli_main_resolves_config_once(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "resolve_config", lambda user: calls.append(user) or resolve_config(user))
    assert main(["--preset", "fig3-left", "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_cli_main_calibration_beyond_curve_exits_2(tmp_path, capsys):
    # A true w_cp of 14 px blurs the pattern below every contrast the
    # [0.5, 10] px calibration curve reaches: one line and exit 2, no file.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "command": "calibrate-wcp",
        "kernel": {"w_cp": 14.0},
        "measurement": {"shot_noise": False},
    }))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("numerical error: measured contrast")
    assert not (tmp_path / "out").exists()


def test_cli_main_runs_and_writes(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "analytic", "grid": FAST_GRID}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "analytic_le.csv").exists()
    assert (out / "analytic_ge.csv").exists()


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


@pytest.mark.parametrize(
    "preset", ["fig3-left", "fig4-left", "fig4-right", "figS-calibration", *_MC_THREAD_CONFIGS]
)
def test_preset_run_thread_count_invariance(tmp_path, child_env, preset):
    # Byte-identical data sections regardless of the thread budget (the
    # metadata block embeds the per-run output directory, so only the data
    # part is comparable).  fig4-left runs the block contraction at
    # gamma = 0.12 for four shifts; fig4-right adds the optics profile and
    # width fits for four kernels; figS-calibration runs the pattern
    # contraction for 21 kernels and 20 shifts each; the mc-moment runs
    # take the chunked event sweep, antithetic and plain, and at gamma = 100
    # (~600 jumps a row) the chunked direct pass.
    if preset in _MC_THREAD_CONFIGS:
        config = tmp_path / "mc.json"
        config.write_text(json.dumps(_MC_THREAD_CONFIGS[preset]))
        source = ["--config", str(config)]
    else:
        source = ["--preset", preset]
    outs = []
    for threads in ("1", "8"):
        out = tmp_path / f"t{threads}"
        env = child_env(OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "ltgsim", *source, "--out", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, f"ltgsim exited {proc.returncode}:\n{proc.stderr}"
        outs.append({p.name: data_section(p.read_text()) for p in sorted(out.glob("*.csv"))})
    assert outs[0] and outs[0] == outs[1]


# Runs ``cli.main`` on each argv list in a fresh interpreter and prints, as
# its last line, whether scipy was loaded after the import and after each run.
_SCIPY_PROBE = """
import json, sys
import ltgsim.cli as cli
loaded = ["scipy" in sys.modules]
for argv in json.loads(sys.argv[1]):
    if cli.main(argv) != 0:
        sys.exit(3)
    loaded.append("scipy" in sys.modules)
print(json.dumps(loaded))
"""


def _scipy_loaded(argvs, child_env):
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, json.dumps(argvs)],
        env=child_env(), capture_output=True, text=True,
    )
    assert proc.returncode == 0, f"probe exited {proc.returncode}:\n{proc.stderr}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


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
    assert _scipy_loaded(argvs, child_env) == [False] * 4
    # the optics model runs in a fresh probe, so nothing before it can have
    # loaded scipy on its behalf
    argvs = [["--preset", "fig4-right", "--out", str(tmp_path / "d")],
             ["--config", str(table), "--out", str(tmp_path / "e")]]
    assert _scipy_loaded(argvs, child_env) == [False] * 3


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


def _main_in_process(argv):
    """(exit code, stdout lines, stderr lines) of ``cli.main`` with every warning an error."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    return code, out.getvalue().splitlines(), err.getvalue().splitlines()


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
            assert run_code == 0 and list(out.glob("*.csv")), err
            for path in out.glob("*.csv"):
                body = [r.split(",") for r in data_section(path.read_text()).splitlines()[1:]]
                assert np.all(np.isfinite(np.array(body, dtype=float)))
