"""Batch front-end: validated configs, experiment dispatch, CSV output.

Every run writes delimited text files in one layout (``_table_csv``)
whose ``#``-prefixed header embeds the fully resolved configuration
(canonical JSON) and the RNG pedigree, so re-parsing the header
reproduces the data section byte for byte.

Exit codes: 0 success, 1 input error, 2 numerical error.
"""
from __future__ import annotations

import argparse
import copy
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, analytic, measurement, optics, slm
from .rtn import MAX_EXPECTED_JUMPS, RtnParams, SeedSpec, mc_exponential_moment
from .series import CoherenceSeries

COMMANDS = (
    "analytic",
    "mc-moment",
    "transition-delta",
    "transition-spectral",
    "optics-table",
    "calibrate-wcp",
    "reproduce-figure",
)

DEFAULT_CONFIG = {
    "command": None,
    "master_seed": 12345,
    "grid": {"t_min": 0.0, "t_max": 2.0 * np.pi, "points": 400},
    "rtn": {"gamma": 0.0},
    "kernel": {"w_cp": 3.0, "w_p": 20.0, "n": 2},
    "geometry": {"pixels_per_half": 320, "j0": 160.0, "k0": 480.0},
    "field": {"n_rep": 3},
    "deltas": [3, 2, 1, 0],
    "spectral": {"widths_nm": [15.0, 30.0, 60.0, 100.0]},
    "mc": {"order": 4, "n_real": 100000, "antithetic": True},
    "measurement": {
        "p": 0.927,
        "n0": 250.0,
        "acquisition_s": 8.0,
        "repeats": 4,
        "shot_noise": True,
        "n_r": 5,
        "h_min": -10,
        "h_max": 9,
    },
    "optics": {
        "widths_nm": [1.0, 2.5, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 40.0, 60.0, 80.0, 100.0],
        "theta_0": optics.THETA0_CALIBRATED,
    },
    "output": {"dir": "out"},
    "preset": None,
}

# Range checks by dotted leaf path.  A leaf's accepted types come from its
# default (see _accepted_types); leaves not listed take any such value.
_RANGES = {
    "command": lambda v: v in COMMANDS,
    "master_seed": lambda v: 0 <= v < 2**64,
    "grid.t_min": lambda v: v >= 0,
    "grid.t_max": lambda v: v > 0,
    "grid.points": lambda v: v >= 1,
    "rtn.gamma": lambda v: v >= 0,
    "kernel.w_cp": lambda v: v > 0,
    "kernel.w_p": lambda v: v > 0,
    # evenness is diagnosed semantically, with the sign-ambiguity rule
    "kernel.n": lambda v: v >= 2,
    "geometry.pixels_per_half": lambda v: v >= 2,
    "field.n_rep": lambda v: v >= 1,
    "mc.order": lambda v: v >= 1,
    "mc.n_real": lambda v: v >= 2,
    "measurement.p": lambda v: 0 <= v <= 1,
    "measurement.n0": lambda v: v > 0,
    "measurement.acquisition_s": lambda v: v > 0,
    "measurement.repeats": lambda v: v >= 1,
    "measurement.n_r": lambda v: v >= 1,
    "optics.theta_0": lambda v: v > 0,
}

PRESETS = {
    # Shift strategy at gamma = 0 with the measured 15-nm kernel.
    "fig3-left": {"command": "transition-delta", "rtn": {"gamma": 0.0}, "deltas": [3]},
    "fig3-right": {"command": "transition-delta", "rtn": {"gamma": 0.0}, "deltas": [0]},
    # Slow noise, both transition strategies.
    "fig4-left": {
        "command": "transition-delta",
        "rtn": {"gamma": 0.12},
        "deltas": [3, 2, 1, 0],
    },
    "fig4-right": {
        "command": "transition-spectral",
        "rtn": {"gamma": 0.12},
        "spectral": {"widths_nm": [15.0, 30.0, 60.0, 100.0]},
    },
    # Correlated-pixel calibration at the measured conditions.
    "figS-calibration": {
        "command": "calibrate-wcp",
        "kernel": {"w_cp": 3.1, "w_p": 20.0, "n": 2},
        "measurement": {"shot_noise": True},
    },
}


class ConfigError(ValueError):
    """Configuration failed schema or consistency checks."""


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key: {where}")
        if isinstance(base[key], dict):
            if not isinstance(val, dict):
                raise ConfigError(f"{where} must be a table")
            out[key] = _merge(base[key], val, where)
        else:
            out[key] = val
    return out


def _accepted_types(default) -> tuple:
    """Types a leaf takes: a float default also takes ints, None takes a string."""
    if default is None:
        return (str, type(None))
    if isinstance(default, float):
        return (int, float)
    return (type(default),)


def _check_schema(config: dict, defaults: dict = DEFAULT_CONFIG, path: str = "") -> list[str]:
    """Type and range problems of a config already merged over the defaults."""
    problems = []
    for key, val in config.items():
        where = f"{path}.{key}" if path else key
        if isinstance(defaults[key], dict):
            problems.extend(_check_schema(val, defaults[key], where))
            continue
        types, pred = _accepted_types(defaults[key]), _RANGES.get(where)
        if isinstance(val, bool) and bool not in types:
            problems.append(f"{where}: unexpected boolean")
        elif not isinstance(val, types):
            problems.append(f"{where}: bad type {type(val).__name__}")
        elif pred is not None and not pred(val):
            problems.append(f"{where}: value {val!r} out of range")
    return problems


def _preset_conflicts(preset: dict, user: dict, path: str = ""):
    """Leaves ``user`` sets to a value other than ``preset``'s, as messages."""
    for key in preset.keys() & user.keys() - {"command"}:
        where = f"{path}.{key}" if path else key
        if isinstance(preset[key], dict):
            yield from _preset_conflicts(preset[key], user[key], where)
        elif user[key] != preset[key]:
            yield f"{where} is {user[key]!r}, but the preset sets {preset[key]!r}"


def resolve_config(user_config: dict) -> dict:
    """Merge over defaults, expand presets, reject unknown keys.

    A preset applies over the defaults; a command other than its own (or
    ``reproduce-figure``), or a leaf it sets to another value, is refused.
    """
    config = _merge(DEFAULT_CONFIG, user_config)
    name = config["preset"]
    if config["command"] == "reproduce-figure" or name is not None:
        if not isinstance(name, str) or name not in PRESETS:
            raise ConfigError(
                f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
            )
        preset = PRESETS[name]
        if config["command"] not in (None, "reproduce-figure", preset["command"]):
            raise ConfigError(
                f"command is {config['command']!r}, but preset {name} runs {preset['command']!r}"
            )
        conflicts = sorted(_preset_conflicts(preset, user_config))
        if conflicts:
            raise ConfigError(f"preset {name}: " + "; ".join(conflicts))
        config = _merge(config, preset)
    if config["command"] is None:
        raise ConfigError("config must name a command (or a preset)")
    problems = _check_schema(config)
    if problems:
        raise ConfigError("; ".join(problems))
    return config


def validate_config(config: dict) -> list[str]:
    """All range and consistency diagnostics of a resolved config."""

    def non_finite(node, where):
        if isinstance(node, dict):
            return [d for k, v in node.items()
                    for d in non_finite(v, f"{where}.{k}" if where else k)]
        if isinstance(node, list):
            return [d for i, v in enumerate(node) for d in non_finite(v, f"{where}[{i}]")]
        if isinstance(node, float) and not math.isfinite(node):
            return [f"{where}: {node!r} is not a finite number"]
        return []

    diags = non_finite(config, "")
    geo = config["geometry"]
    npix = geo["pixels_per_half"]
    phase_field = config["command"] in ("transition-delta", "transition-spectral")
    # Trajectories the run samples: the MC ensemble, or one phase field's
    # independent blocks (those of the first half-mask).
    rows = 0
    if config["command"] == "mc-moment":
        rows = config["mc"]["n_real"]
    elif phase_field:
        rows = -(-(npix // 2) // config["field"]["n_rep"])
    jumps = config["rtn"]["gamma"] * config["grid"]["t_max"] * rows
    if not diags and jumps > MAX_EXPECTED_JUMPS:
        diags.append(
            f"rtn: gamma * t_max over {rows} trajectories expects {jumps:.3g} jumps, "
            f"more than the {MAX_EXPECTED_JUMPS:,.0f} (~0.8 GB of jump times) a run may hold"
        )
    elif rows > MAX_EXPECTED_JUMPS:  # at a low rate the rows themselves are the memory
        diags.append(
            f"mc: n_real {rows} trajectories exceed the {MAX_EXPECTED_JUMPS:,.0f} "
            "(~0.8 GB per array) a run may sample"
        )
    if phase_field and npix % 2:
        diags.append(
            f"geometry: pixels_per_half {npix} is odd; the phase field mirrors "
            "each block half a mask away and needs an even count"
        )
    try:
        slm.MaskGeometry(npix, geo["j0"], geo["k0"])
    except ValueError as exc:
        diags.append(f"geometry: {exc}")
    try:
        slm.KernelParams(config["kernel"]["w_cp"], config["kernel"]["w_p"], config["kernel"]["n"])
    except ValueError as exc:
        diags.append(f"kernel: {exc}")
    theta_0 = config["optics"]["theta_0"]
    try:  # the profile grid is sized from the beam width, which scales as 1 / theta_0
        points = optics.default_grid(optics.PdcSetup(theta_0=theta_0)).size()
    except ArithmeticError:  # a theta_0 so small that the beam width overflows
        points = math.inf
    if not 3 <= points <= optics.MAX_GRID_POINTS:
        diags.append(
            f"optics: theta_0 {theta_0!r} sizes the profile grid at {points} points per axis, "
            f"outside the 3 to {optics.MAX_GRID_POINTS} a profile may sample"
        )
    else:  # a beam narrower than a few grid spacings cannot be fitted
        setup = optics.PdcSetup(theta_0=theta_0)
        spacings = optics.expected_wp_px(setup) / optics.default_grid(setup).spacing_px
        if spacings < optics.MIN_WP_SPACINGS:
            diags.append(
                f"optics: theta_0 {theta_0!r} gives an expected beam width of {spacings:.3g} "
                f"grid spacings, fewer than the {optics.MIN_WP_SPACINGS} a width fit resolves"
            )
    if config["grid"]["t_max"] <= config["grid"]["t_min"]:
        diags.append("grid: t_max must exceed t_min")
    for key, values in (("deltas", config["deltas"]),
                        ("spectral.widths_nm", config["spectral"]["widths_nm"]),
                        ("optics.widths_nm", config["optics"]["widths_nm"])):
        if not values:
            diags.append(f"{key}: empty list, nothing to run")
    # bool is an int subclass, so list entries are checked for it explicitly
    for d in config["deltas"]:
        if isinstance(d, bool) or not isinstance(d, int):
            diags.append(f"deltas: shift {d!r} is not an integer")
        elif abs(d) >= npix:
            diags.append(f"deltas: shift {d} leaves the {npix}-pixel mask")
    for key, values, file_name in (("deltas", config["deltas"], _delta_file),
                                   ("spectral.widths_nm", config["spectral"]["widths_nm"],
                                    _spectral_file)):
        names = [file_name(v) for v in values if isinstance(v, (int, float))]
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            diags.append(f"{key}: entries share an output file: {', '.join(repeated)}")
    if config["mc"]["antithetic"] and config["mc"]["n_real"] % 2:
        diags.append("mc: antithetic pairing requires an even n_real")
    for key in ("spectral", "optics"):
        for width in config[key]["widths_nm"]:
            if isinstance(width, bool) or not isinstance(width, (int, float)):
                diags.append(f"{key}: width {width!r} is not a number")
            elif not 0 <= width <= optics.MAX_SPECTRAL_WIDTH_NM:
                diags.append(
                    f"{key}: width {width} nm outside model range "
                    f"[0, {optics.MAX_SPECTRAL_WIDTH_NM}] nm"
                )
    m = config["measurement"]
    if m["h_max"] < m["h_min"]:
        diags.append("measurement: empty h grid")
    for key in ("h_min", "h_max"):
        if abs(m[key]) >= npix:
            diags.append(f"measurement: {key} shift {m[key]} leaves the {npix}-pixel mask")
    return diags


# ---------------------------------------------------------------------------
# Output formatting
# ---------------------------------------------------------------------------


def _table_csv(config: dict, meta: dict, columns: dict) -> str:
    """The one output file layout, shared by every command.

    ``#`` metadata lines (package and RNG versions, the resolved config,
    then each ``meta`` entry by key, all compact JSON), a ``# columns``
    line, the header row, then one row per index of the equal-length
    ``columns``.  Integer columns are written as integers and float columns
    as ``repr(float)``; a non-finite float in any column refuses the table.
    A column object passed under several names is formatted once.
    """
    formatted = {}  # id of a column object -> its cell strings
    for name, col in columns.items():
        if id(col) in formatted:
            continue
        values = np.asarray(col)
        if not np.issubdtype(values.dtype, np.integer) and not np.all(np.isfinite(values)):
            raise ValueError(f"refusing to write non-finite {name} data")
        formatted[id(col)] = [repr(x) for x in values.tolist()]
    cells = [formatted[id(col)] for col in columns.values()]
    lines = [
        f"# ltgsim = {__version__}",
        f"# rng = PCG64 (numpy {np.__version__}); streams via "
        "SeedSequence(master_seed, spawn_key)",
    ]
    for key, val in [("config", config), *sorted(meta.items())]:
        lines.append(f"# {key} = {json.dumps(val, sort_keys=True, separators=(',', ':'))}")
    names = ",".join(columns)
    lines += [f"# columns = {names}", names]
    lines.extend(",".join(row) for row in zip(*cells))
    return "\n".join(lines) + "\n"


def series_csv(series: CoherenceSeries, config: dict) -> str:
    mag = series.magnitude
    columns = {"t": series.times, "re_gamma": series.values.real,
               "im_gamma": series.values.imag, "abs_gamma": mag, "entanglement": mag}
    if series.stderr is not None:
        columns["stderr"] = series.stderr
    return _table_csv(config, {"series": series.params, "provenance": series.provenance}, columns)


def data_section(text: str) -> str:
    """The non-comment part of an output file (header row + rows)."""
    return "\n".join(l for l in text.splitlines() if not l.startswith("#")) + "\n"


def embedded_config(text: str) -> dict:
    for line in text.splitlines():
        if line.startswith("# config = "):
            return json.loads(line[len("# config = "):])
    raise ValueError("no embedded config found")


# ---------------------------------------------------------------------------
# Command implementations: each returns {relative filename: file text}
# ---------------------------------------------------------------------------


def _grid(config) -> np.ndarray:
    g = config["grid"]
    return np.linspace(g["t_min"], g["t_max"], g["points"])


def _geometry(config) -> slm.MaskGeometry:
    g = config["geometry"]
    return slm.MaskGeometry(g["pixels_per_half"], g["j0"], g["k0"])


def _kernel_params(config) -> slm.KernelParams:
    k = config["kernel"]
    return slm.KernelParams(k["w_cp"], k["w_p"], k["n"], _geometry(config))


def _run_analytic(config):
    times = _grid(config)
    gamma = config["rtn"]["gamma"]
    out = {}
    for tag, series in (
        ("le", analytic.local_coherence(gamma, times)),
        ("ge", analytic.global_coherence(gamma, times)),
    ):
        out[f"analytic_{tag}.csv"] = series_csv(series, config)
    return out


def _run_mc_moment(config):
    times = _grid(config)
    params = RtnParams(config["rtn"]["gamma"], float(times.max()))
    series = mc_exponential_moment(
        params,
        config["mc"]["order"],
        times,
        config["mc"]["n_real"],
        SeedSpec(config["master_seed"], 0),
        antithetic=config["mc"]["antithetic"],
    )
    return {"mc_moment.csv": series_csv(series, config)}


def _delta_file(delta) -> str:
    return f"transition_delta_{delta}.csv"


def _spectral_file(width) -> str:
    return "transition_spectral_" + f"{width:g}".replace(".", "p") + "nm.csv"


def _run_transition_delta(config):
    times = _grid(config)
    sweep = slm.transition_sweep(
        config["rtn"]["gamma"],
        [_kernel_params(config)],
        [int(d) for d in config["deltas"]],
        times,
        n_rep=config["field"]["n_rep"],
        seed=SeedSpec(config["master_seed"], 0),
    )
    out = {}
    for series in sweep:
        out[_delta_file(series.params["delta"])] = series_csv(series, config)
    return out


def _run_transition_spectral(config):
    times = _grid(config)
    setup = optics.PdcSetup(theta_0=config["optics"]["theta_0"])
    widths = [float(w) for w in config["spectral"]["widths_nm"]]
    table = optics.wcp_curve(setup, widths)
    geometry = _geometry(config)
    kernels = [slm.KernelParams(float(w_cp), float(w_p), int(order), geometry)
               for w_cp, w_p, order in zip(table.w_cp, table.w_p, table.order)]
    sweep = slm.transition_sweep(
        config["rtn"]["gamma"],
        kernels,
        [0],
        times,
        n_rep=config["field"]["n_rep"],
        seed=SeedSpec(config["master_seed"], 0),
    )
    out = {}
    for width, series in zip(widths, sweep):
        series.params["spectral_width_nm"] = width
        out[_spectral_file(width)] = series_csv(series, config)
    return out


def _run_optics_table(config):
    setup = optics.PdcSetup(theta_0=config["optics"]["theta_0"])
    table = optics.wcp_curve(setup, [float(w) for w in config["optics"]["widths_nm"]])
    meta = {"wcp_table": {"theta_0": table.theta_0, "w0_floor_px": table.w0_floor}}
    columns = {"spectral_width_nm": table.widths_nm, "w_cp": table.w_cp, "order": table.order,
               "w_p": table.w_p, "w_tilde": table.w_tilde}
    return {"wcp_table.csv": _table_csv(config, meta, columns)}


def _run_calibrate_wcp(config):
    m = config["measurement"]
    result = measurement.calibrate_wcp(
        _kernel_params(config),
        p=m["p"],
        n_r=m["n_r"],
        h_values=np.arange(m["h_min"], m["h_max"] + 1),
        n0=m["n0"],
        acquisition_s=m["acquisition_s"],
        repeats=m["repeats"],
        shot_noise=m["shot_noise"],
        seed=SeedSpec(config["master_seed"], 0),
    )
    meta = {"calibration": {
        "vis_of_v": result.vis_of_v,
        "vis_uncertainty": result.vis_uncertainty,
        "w_cp_estimate": result.w_cp_estimate,
        "w_cp_uncertainty": result.w_cp_uncertainty,
    }}
    return {
        "calibration_vh.csv": _table_csv(config, meta, {"h": result.h_values, "v": result.v_of_h}),
        "calibration_curve.csv": _table_csv(
            config, meta, {"w_cp": result.curve_w, "vis": result.curve_vis}),
    }


_RUNNERS = {
    "analytic": _run_analytic,
    "mc-moment": _run_mc_moment,
    "transition-delta": _run_transition_delta,
    "transition-spectral": _run_transition_spectral,
    "optics-table": _run_optics_table,
    "calibrate-wcp": _run_calibrate_wcp,
}


def _run_resolved(config: dict) -> dict[str, str]:
    diags = validate_config(config)
    if diags:
        raise ConfigError("; ".join(diags))
    return _RUNNERS[config["command"]](config)


def run_config(user_config: dict) -> dict[str, str]:
    """Resolve, validate and execute a config; returns {filename: text}."""
    return _run_resolved(resolve_config(user_config))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ltgsim",
        description="Dephasing of two qubits under telegraph noise: "
        "analytic, Monte Carlo, pixel-kernel and calibration experiments.",
    )
    parser.add_argument("--config", type=str, help="JSON config file")
    parser.add_argument("--preset", type=str, help="named preset (see README)")
    parser.add_argument("--seed", type=int, help="override master seed")
    parser.add_argument("--out", type=str, help="output directory")
    parser.add_argument(
        "--validate", action="store_true",
        help="report config diagnostics without running",
    )
    args = parser.parse_args(argv)

    user: dict = {}
    if args.config:
        try:
            user = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:
            print(f"cannot read config: {exc}", file=sys.stderr)
            return 1
        if not isinstance(user, dict):
            print("config must be a JSON object", file=sys.stderr)
            return 1
    if args.preset:
        user["preset"] = args.preset
        user.setdefault("command", "reproduce-figure")
    if args.seed is not None:
        user["master_seed"] = args.seed
    if args.out:
        output = user.setdefault("output", {})
        if isinstance(output, dict):  # otherwise resolve_config reports the section
            output["dir"] = args.out
    if not user:
        parser.print_usage(sys.stderr)
        return 1

    try:
        config = resolve_config(user)
        if args.validate:
            diags = validate_config(config)
            for d in diags:
                print(d)
            return 1 if diags else 0
        files = _run_resolved(config)
    except ValueError as exc:  # ConfigError included
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except optics.NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(config["output"]["dir"])
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in sorted(files.items()):
            (out_dir / name).write_text(text)
            print(out_dir / name)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
