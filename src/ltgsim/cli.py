"""Batch front-end: validated configs, experiment dispatch, CSV output.

``resolve_config`` is the one gate: it refuses a config with one
``ConfigError`` listing every problem, which ``--validate`` prints on
stdout, one per line, and a run as one ``input error:`` line on stderr.

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

from . import __version__, analytic, measurement, optics, rtn, slm
from .rtn import RtnParams, SeedSpec, mc_exponential_moment
from .series import CoherenceSeries

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

# Range checks of the leaves the CLI owns, by dotted path; every integer,
# list entries included, also lies within 64 bits, and every float is finite.
# A leaf's accepted types come from its default (see _accepted_types).  The
# rules on model values are their modules', which resolve_config calls.  A
# missing command (None) is named by resolve_config itself.
_RANGES = {
    "command": lambda v: v is None or v in COMMANDS,
    "grid.t_min": lambda v: v >= 0,
    "grid.points": lambda v: v >= 1,
}

PRESETS = {
    # Shift strategy at gamma = 0 with the measured 15-nm kernel.
    "fig3-left": {"command": "transition-delta", "rtn": {"gamma": 0.0}, "deltas": [3]},
    "fig3-right": {"command": "transition-delta", "rtn": {"gamma": 0.0}, "deltas": [0]},
    # Slow noise, both transition strategies.
    "fig4-left": {"command": "transition-delta", "rtn": {"gamma": 0.12}, "deltas": [3, 2, 1, 0]},
    "fig4-right": {"command": "transition-spectral", "rtn": {"gamma": 0.12},
                   "spectral": {"widths_nm": [15.0, 30.0, 60.0, 100.0]}},
    # Correlated-pixel calibration at the measured conditions.
    "figS-calibration": {"command": "calibrate-wcp", "kernel": {"w_cp": 3.1, "w_p": 20.0, "n": 2},
                         "measurement": {"shot_noise": True}},
}


class ConfigError(ValueError):
    """A config ``resolve_config`` refuses; ``problems`` holds one line per problem."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


def _merge(base: dict, override: dict, problems: list[str], path: str = "") -> dict:
    """``override`` over ``base``; unknown keys and non-table sections go to ``problems``."""
    out = copy.deepcopy(base)
    for key, val in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            problems.append(f"unknown config key: {where}")
        elif not isinstance(base[key], dict):
            out[key] = val
        elif isinstance(val, dict):
            out[key] = _merge(base[key], val, problems, where)
        else:
            problems.append(f"{where} must be a table")
    return out


def _accepted_types(default) -> tuple:
    """Types a leaf takes: a float default also takes ints, None takes a string."""
    if default is None:
        return (str, type(None))
    if isinstance(default, float):
        return (int, float)
    return (type(default),)


def _check_schema(config: dict, defaults: dict = DEFAULT_CONFIG, path: str = "") -> list[str]:
    """Type, range and finiteness problems of a config already merged over the
    defaults; a non-finite list entry is named by its index."""
    problems = []
    for key, val in config.items():
        where = f"{path}.{key}" if path else key
        if isinstance(defaults[key], dict):
            problems.extend(_check_schema(val, defaults[key], where))
            continue
        types, pred = _accepted_types(defaults[key]), _RANGES.get(where)
        entries = val if isinstance(val, list) else [val]
        if isinstance(val, bool) and bool not in types:
            problems.append(f"{where}: unexpected boolean")
        elif not isinstance(val, types):
            problems.append(f"{where}: bad type {type(val).__name__}")
        elif (pred is not None and not pred(val)
              or any(isinstance(v, int) and abs(v) >= 2**64 for v in entries)):
            problems.append(f"{where}: value {val!r} out of range")
        else:
            index = "[{}]" if entries is val else ""
            problems.extend(f"{where}{index.format(i)}: {v!r} is not a finite number"
                            for i, v in enumerate(entries)
                            if isinstance(v, float) and not math.isfinite(v))
    return problems


def _preset_conflicts(preset: dict, user: dict, path: str = ""):
    """Leaves ``user`` sets to a value other than ``preset``'s, as messages."""
    for key in preset.keys() & user.keys() - {"command"}:
        where = f"{path}.{key}" if path else key
        if isinstance(preset[key], dict):
            if isinstance(user[key], dict):  # else _merge reports the section
                yield from _preset_conflicts(preset[key], user[key], where)
        elif user[key] != preset[key]:
            yield f"{where} is {user[key]!r}, but the preset sets {preset[key]!r}"


def resolve_config(user_config: dict) -> dict:
    """The config merged over the defaults and its preset, else one
    ``ConfigError`` listing every problem.

    A preset applies over the defaults; a command other than its own, or a
    leaf it sets to another value, is refused.  Only a config whose keys,
    types, ranges and numbers pass faces each module's rules.
    """
    problems: list[str] = []
    config = _merge(DEFAULT_CONFIG, user_config, problems)
    name = config["preset"]
    if name is None:
        if config["command"] is None:
            problems.append("config must name a command (or a preset)")
    elif not isinstance(name, str) or name not in PRESETS:
        problems.append(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    else:
        preset = PRESETS[name]
        if config["command"] not in (None, preset["command"]):
            problems.append(
                f"command is {config['command']!r}, but preset {name} runs {preset['command']!r}"
            )
        problems.extend(f"preset {name}: {c}" for c in sorted(_preset_conflicts(preset, user_config)))
        config = _merge(config, preset, problems)
    problems.extend(_check_schema(config))
    if problems:
        raise ConfigError(problems)

    def check(key, rule, *args, sep=": ") -> bool:
        try:
            rule(*args)
        except ValueError as exc:
            problems.append(f"{key}{sep}{exc}")
            return False
        return True

    command, g, geo, mc, m = (config[k] for k in ("command", "grid", "geometry", "mc", "measurement"))
    npix, gamma, n_rep = geo["pixels_per_half"], config["rtn"]["gamma"], config["field"]["n_rep"]
    phase_field = command in ("transition-delta", "transition-spectral")
    check("master_seed", SeedSpec, config["master_seed"])
    check("rtn.gamma", rtn.check_rate, gamma)
    if g["t_max"] <= g["t_min"]:
        problems.append("grid: t_max must exceed t_min")
    # Noise is sampled up to the grid's last time, t_min on one point, and the
    # phase order * phi formed on the grid has the order of the analytic GE
    # moment, of the MC moment, of a phase field's noise, or 0 off the grid.
    one_point = (phase_field or command == "mc-moment") and g["points"] == 1
    order = {"analytic": 4, "mc-moment": mc["order"], "transition-delta": 1,
             "transition-spectral": 1}.get(command, 0)
    check("grid.points" if one_point else "grid.t_max", rtn.check_horizon,
          g["t_min"] if one_point else g["t_max"], order)
    check("mc", rtn.check_moment, mc["order"], mc["n_real"], mc["antithetic"])
    if command == "mc-moment":
        check("mc", rtn.check_entries, mc["n_real"])
        check("rtn", rtn.check_ensemble, gamma, g["t_max"], mc["n_real"])
        check("grid.points", rtn.check_grid, g["points"])
    elif not phase_field:  # the grid itself, or one series on it
        check("grid.points", rtn.check_entries, g["points"])
    if check("field.n_rep", slm.field_blocks, npix, n_rep) and phase_field:
        blocks = slm.field_blocks(npix, n_rep)
        check("geometry", slm.check_mirror, npix)
        check("rtn", rtn.check_ensemble, gamma, g["t_max"], blocks)
        check("grid.points", slm.check_field_grid, blocks, g["points"])
    check("geometry", slm.MaskGeometry, npix, geo["j0"], geo["k0"])
    k = config["kernel"]
    check("kernel", slm.KernelParams, k["w_cp"], k["w_p"], k["n"])
    check("optics", lambda theta_0: optics.profile_axis(optics.PdcSetup(theta_0=theta_0)),
          config["optics"]["theta_0"])
    for key, values in (("deltas", config["deltas"]),
                        ("spectral.widths_nm", config["spectral"]["widths_nm"]),
                        ("optics.widths_nm", config["optics"]["widths_nm"])):
        if not values:
            problems.append(f"{key}: empty list, nothing to run")
    # Entries that pass their rule, then the output files they would write.
    shifts = [d for d in config["deltas"] if check("deltas", slm.check_shift, npix, d)]
    widths = {key: [w for w in config[key]["widths_nm"] if check(key, optics.check_spectral_width, w)]
              for key in ("spectral", "optics")}
    for key, values, file_name in (("deltas", shifts, _delta_file),
                                   ("spectral.widths_nm", widths["spectral"], _spectral_file)):
        names = [file_name(v) for v in values]
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            problems.append(f"{key}: entries share an output file: {', '.join(repeated)}")
    check("measurement.p", measurement.check_purity, m["p"])
    check("measurement.n0/acquisition_s", measurement.check_counts, m["n0"], m["acquisition_s"])
    check("measurement.repeats", measurement.check_repeats, m["repeats"])
    for key in ("h_min", "h_max"):
        check(f"measurement: {key}", slm.check_shift, npix, m[key], sep=" ")
    phases = max(0, m["h_max"] - m["h_min"] + 1)  # distinct h mod 2 * n_r: min(this, 2 * n_r)
    if check("measurement.n_r", measurement.check_pattern, npix, m["n_r"]):
        phases = min(phases, 2 * m["n_r"])
    check("measurement.h_min/h_max", measurement.check_shifts, phases)
    if problems:
        raise ConfigError(problems)
    return config


# ---------------------------------------------------------------------------
# Output formatting
# ---------------------------------------------------------------------------


def _cells(name: str, col) -> list[str]:
    """Cell strings of one column: integers as integers, floats as ``repr(float)``.

    A non-finite float refuses the column.
    """
    values = np.asarray(col)
    if not np.issubdtype(values.dtype, np.integer) and not np.all(np.isfinite(values)):
        raise ValueError(f"refusing to write non-finite {name} data")
    return [repr(x) for x in values.tolist()]


def _table_csv(config: dict, meta: dict, columns: dict) -> str:
    """The one output file layout, shared by every command.

    ``#`` metadata lines (package and RNG versions, the resolved config,
    then each ``meta`` entry by key, all compact JSON), a ``# columns``
    line, the header row, then one row per index of the equal-length
    ``columns``, each formatted by ``_cells`` or given as a list of its
    ``_cells`` strings.
    """
    cells = [col if isinstance(col, list) else _cells(name, col) for name, col in columns.items()]
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


def series_csv(series: CoherenceSeries, config: dict, t_cells: list[str] | None = None) -> str:
    """One series file.  ``t_cells``: the ``_cells`` of ``series.times``, formatted
    once by a run whose series all share that grid."""
    columns = {"t": series.times if t_cells is None else t_cells, "re_gamma": series.values.real,
               "im_gamma": series.values.imag, "abs_gamma": series.magnitude}
    if series.stderr is not None:
        columns["stderr"] = series.stderr
    return _table_csv(config, {"series": series.params, "provenance": series.provenance}, columns)


def data_section(text: str) -> str:
    """The non-comment part of an output file (header row + rows)."""
    return "\n".join(l for l in text.splitlines() if not l.startswith("#")) + "\n"


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


def _series_files(config, times, files: dict) -> dict[str, str]:
    """``series_csv`` of each series in ``{file name: series}``, all on the grid
    ``times``, whose time column is formatted once."""
    t_cells = _cells("t", times)
    return {name: series_csv(series, config, t_cells) for name, series in files.items()}


def _run_analytic(config):
    times = _grid(config)
    gamma = config["rtn"]["gamma"]
    return _series_files(config, times, {"analytic_le.csv": analytic.local_coherence(gamma, times),
                                         "analytic_ge.csv": analytic.global_coherence(gamma, times)})


def _run_mc_moment(config):
    times = _grid(config)
    mc = config["mc"]
    series = mc_exponential_moment(RtnParams(config["rtn"]["gamma"], float(times.max())),
                                   mc["order"], times, mc["n_real"],
                                   SeedSpec(config["master_seed"], 0), antithetic=mc["antithetic"])
    return _series_files(config, times, {"mc_moment.csv": series})


def _delta_file(delta) -> str:
    return f"transition_delta_{delta}.csv"


def _spectral_file(width) -> str:
    return "transition_spectral_" + f"{width:g}".replace(".", "p") + "nm.csv"


def _sweep(config, kernels, shifts) -> tuple[np.ndarray, list[CoherenceSeries]]:
    """The time grid, and the series of each kernel and shift (kernel-major) on
    one phase field."""
    times = _grid(config)
    return times, slm.transition_sweep(config["rtn"]["gamma"], kernels, shifts, times,
                                       n_rep=config["field"]["n_rep"],
                                       seed=SeedSpec(config["master_seed"], 0))


def _run_transition_delta(config):
    shifts = config["deltas"]
    times, sweep = _sweep(config, [_kernel_params(config)], shifts)
    return _series_files(config, times, {_delta_file(d): s for d, s in zip(shifts, sweep)})


def _run_transition_spectral(config):
    widths = [float(w) for w in config["spectral"]["widths_nm"]]
    table = optics.wcp_curve(optics.PdcSetup(theta_0=config["optics"]["theta_0"]), widths)
    geometry = _geometry(config)
    kernels = [slm.KernelParams(float(w_cp), float(w_p), int(order), geometry)
               for w_cp, w_p, order in zip(table.w_cp, table.w_p, table.order)]
    times, sweep = _sweep(config, kernels, [0])
    for width, series in zip(widths, sweep):
        series.params["spectral_width_nm"] = width
    return _series_files(config, times, {_spectral_file(w): s for w, s in zip(widths, sweep)})


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
        _kernel_params(config), p=m["p"], n_r=m["n_r"],
        h_values=np.arange(m["h_min"], m["h_max"] + 1), n0=m["n0"],
        acquisition_s=m["acquisition_s"], repeats=m["repeats"], shot_noise=m["shot_noise"],
        seed=SeedSpec(config["master_seed"], 0))
    meta = {"calibration": {key: getattr(result, key) for key in (
        "vis_of_v", "vis_uncertainty", "w_cp_estimate", "w_cp_uncertainty")}}
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
COMMANDS = tuple(_RUNNERS)


def run_config(user_config: dict) -> dict[str, str]:
    """Resolve and execute a config; returns {filename: text}."""
    config = resolve_config(user_config)
    return _RUNNERS[config["command"]](config)


# One parser per process, built at import: building it took ~0.12 ms a call.
_PARSER = argparse.ArgumentParser(
    prog="ltgsim",
    description="Dephasing of two qubits under telegraph noise: "
    "analytic, Monte Carlo, pixel-kernel and calibration experiments.",
)
_PARSER.add_argument("--config", type=str, help="JSON config file")
_PARSER.add_argument("--preset", type=str, help="named preset (see README)")
_PARSER.add_argument("--seed", type=int, help="override master seed")
_PARSER.add_argument("--out", type=str, help="output directory")
_PARSER.add_argument("--validate", action="store_true",
                     help="report config diagnostics without running")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    user: dict = {}
    if args.config:
        try:
            user = json.loads(Path(args.config).read_text())
            problem = None if isinstance(user, dict) else "config must be a JSON object"
        except (OSError, ValueError) as exc:
            problem = f"cannot read config: {exc}"
        if problem:  # on stdout under --validate, as every refusal it gives
            print(problem, file=None if args.validate else sys.stderr)
            return 1
    if args.preset:
        user["preset"] = args.preset
    if args.seed is not None:
        user["master_seed"] = args.seed
    if args.out:
        output = user.setdefault("output", {})
        if isinstance(output, dict):  # otherwise resolve_config reports the section
            output["dir"] = args.out
    if not user:
        _PARSER.print_usage(sys.stderr)
        return 1

    try:
        config = resolve_config(user)
    except ConfigError as exc:
        if args.validate:
            print("\n".join(exc.problems))
        else:
            print(f"input error: {exc}", file=sys.stderr)
        return 1
    if args.validate:
        return 0
    try:
        files = _RUNNERS[config["command"]](config)
    except ValueError as exc:
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
