"""Config validation, presets, output format and reproducibility."""
import json
import subprocess
import sys

import numpy as np
import pytest

from ltgsim import cli
from ltgsim.cli import (
    ConfigError,
    data_section,
    embedded_config,
    main,
    resolve_config,
    run_config,
    validate_config,
)

FAST_GRID = {"t_min": 0.0, "t_max": 2.0 * np.pi, "points": 40}


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown config key: kernal"):
        resolve_config({"command": "analytic", "kernal": {}})
    with pytest.raises(ConfigError, match="kernel.width"):
        resolve_config({"command": "analytic", "kernel": {"width": 3}})


def test_validate_odd_kernel_order():
    diags = validate_config(resolve_config({"command": "transition-delta", "kernel": {"n": 3}}))
    assert any("even" in d for d in diags)


def test_validate_spectral_bounds():
    diags = validate_config(resolve_config(
        {"command": "transition-spectral", "spectral": {"widths_nm": [200.0]}}
    ))
    assert any("calibration bounds" in d for d in diags)
    # a boolean is not a width of 1 nm
    for section in ("spectral", "optics"):
        diags = validate_config(resolve_config(
            {"command": "transition-spectral", section: {"widths_nm": [True]}}
        ))
        assert any(d.startswith(f"{section}: width True") for d in diags)


def test_validate_clean_preset():
    config = resolve_config({"preset": "fig3-right", "command": "reproduce-figure"})
    assert validate_config(config) == []


def test_validate_delta_off_mask():
    diags = validate_config(resolve_config({"command": "transition-delta", "deltas": [400]}))
    assert any("mask" in d for d in diags)
    # a boolean is not a shift of 1 pixel
    diags = validate_config(resolve_config({"command": "transition-delta", "deltas": [True]}))
    assert any(d.startswith("deltas: shift True") for d in diags)
    # the calibration's pattern shifts face the same mask
    diags = validate_config(resolve_config(
        {"command": "calibrate-wcp", "measurement": {"h_min": -400, "h_max": -330}}
    ))
    assert any(d.startswith("measurement: h_min shift -400 leaves") for d in diags)
    assert any(d.startswith("measurement: h_max shift -330 leaves") for d in diags)
    diags = validate_config(resolve_config(
        {"command": "calibrate-wcp", "measurement": {"h_min": -319, "h_max": 319}}
    ))
    assert diags == []


def test_validate_p_plus_on_phase_fields():
    # phase-field blocks always start stationary; a biased p_plus would be ignored
    for command in ("transition-delta", "transition-spectral"):
        diags = validate_config(resolve_config({"command": command, "rtn": {"p_plus": 1.0}}))
        assert any(d.startswith("rtn: p_plus") for d in diags)
    assert validate_config(resolve_config({"command": "mc-moment", "rtn": {"p_plus": 1.0}})) == []


def test_unknown_preset():
    with pytest.raises(ConfigError, match="unknown preset"):
        resolve_config({"command": "reproduce-figure", "preset": "fig9"})


def test_analytic_run_values():
    files = run_config({"command": "analytic", "grid": FAST_GRID, "rtn": {"gamma": 0.0}})
    assert set(files) == {"analytic_le.csv", "analytic_ge.csv"}
    body = data_section(files["analytic_ge.csv"]).splitlines()[1:]
    t = np.array([float(r.split(",")[0]) for r in body])
    mag = np.array([float(r.split(",")[3]) for r in body])
    assert np.allclose(mag, np.abs(np.cos(4 * t)), atol=1e-12)


def test_empty_sweep_is_empty_success():
    files = run_config(
        {"command": "transition-delta", "deltas": [], "grid": FAST_GRID}
    )
    assert files == {}


def test_mc_moment_has_stderr_column():
    files = run_config(
        {
            "command": "mc-moment",
            "grid": {"t_min": 0.0, "t_max": 2.0, "points": 5},
            "mc": {"order": 2, "n_real": 2000, "antithetic": True},
            "rtn": {"gamma": 1.0},
        }
    )
    header = data_section(files["mc_moment.csv"]).splitlines()[0]
    assert header.endswith("stderr")


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


def test_cli_main_missing_file(tmp_path, capsys):
    assert main(["--config", "/nonexistent/cfg.json"]) == 1
    # Unusable contents: not an object, not JSON, not UTF-8.
    cfg = tmp_path / "cfg.json"
    for raw in (b"[1, 2]", b"{not json", b"\xff"):
        cfg.write_bytes(raw)
        assert main(["--config", str(cfg)]) == 1
    assert len(capsys.readouterr().err.strip().splitlines()) == 4


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


@pytest.mark.parametrize("preset", ["fig3-left", "fig4-left", "figS-calibration"])
def test_preset_run_thread_count_invariance(tmp_path, child_env, preset):
    # Byte-identical data sections regardless of the thread budget (the
    # metadata block embeds the per-run output directory, so only the data
    # part is comparable).  fig4-left runs the block contraction at
    # gamma = 0.12 for four shifts; figS-calibration runs the pattern
    # contraction for 21 kernels and 20 shifts each.
    outs = []
    for threads in ("1", "8"):
        out = tmp_path / f"t{threads}"
        env = child_env(OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "ltgsim", "--preset", preset,
             "--out", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, f"ltgsim exited {proc.returncode}:\n{proc.stderr}"
        outs.append({p.name: data_section(p.read_text()) for p in sorted(out.glob("*.csv"))})
    assert outs[0] and outs[0] == outs[1]
