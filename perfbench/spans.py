"""Spans around calls into the ltgsim layers, recorded from outside ``src/``.

``Tracer.installed()`` replaces each traced function with a timing wrapper
under every name an ``ltgsim`` module binds it to (its home module and the
modules that import it, e.g. ``slm.sample_trajectory`` and
``measurement.phasor_sum``) and puts the originals back on exit.  A span
is ``[name, start, end, parent, pass_id, counts]``; spans stay in memory
until the run writes them out.  Self time is a span's duration minus the
durations of its children, so the self times of one pass add up to the
duration of its root ``cli.main`` spans.
"""
from __future__ import annotations

import functools
import inspect
import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Per-layer metrics reported by a traced run: (name, unit, better).
PER_LAYER = [
    ("rtn.mc.self_s", "s", "lower"),
    ("rtn.mc.samples_per_s", "1/s", "higher"),
    ("rtn.sample_batch.self_s", "s", "lower"),
    ("rtn.sample_batch.jump_cols", "count", "lower"),
    ("rtn.sample_trajectory.calls", "count", "lower"),
    ("slm.phasor_sum.self_s", "s", "lower"),
    ("slm.phasor_sum.calls", "count", "lower"),
    ("slm.phasor_sum.pair_terms", "count", "lower"),
    ("slm.phasor_sum.pair_terms_per_s", "1/s", "higher"),
    ("slm.phasor_sum.lost_mass", "frac", "lower"),
    ("slm.build_kernel.self_s", "s", "lower"),
    ("slm.build_kernel.calls", "count", "lower"),
    ("slm.build_phase_field.self_s", "s", "lower"),
    ("slm.build_phase_field.blocks", "count", "lower"),
    ("slm.kernel_coherence.self_s", "s", "lower"),
    ("optics.joint_profile.self_s", "s", "lower"),
    ("optics.evaluate.self_s", "s", "lower"),
    ("optics.estimate_wp.self_s", "s", "lower"),
    ("optics.estimate_wcp_tilde.self_s", "s", "lower"),
    ("optics.curve_fit.self_s", "s", "lower"),
    ("optics.curve_fit.calls", "count", "lower"),
    ("optics.grid_points", "count", "lower"),
    ("optics.grid_points_per_s", "1/s", "higher"),
    ("measurement.calibrate_wcp.self_s", "s", "lower"),
    ("measurement.calibrate_wcp.clamped", "count", "lower"),
    ("measurement.calibrate_wcp.z", "sigma", "lower"),
    ("measurement.simulate_counts.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.resolve_config.calls", "count", "lower"),
    ("cli.series_csv.self_s", "s", "lower"),
    ("cli.output_bytes", "B", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage", "frac", "higher"),
]

# Counts combined over a pass by max rather than by sum.
_MAX_COUNTS = {"lost_mass", "clamped", "z"}


def _phasor_sum_counts(a, result):
    n_pix = a["kernel"].weights.shape[0]
    shifted = np.arange(n_pix) + int(a.get("delta", 0))
    ok = (shifted >= 0) & (shifted < n_pix)
    return {
        "pair_terms": n_pix * int(ok.sum()) * a["slm_phases1"].shape[1],
        "lost_mass": float(a["kernel"].weights[:, ~ok].sum()),
    }


def _calibrate_counts(a, result):
    lo, hi = result.curve_w[0], result.curve_w[-1]
    return {
        "clamped": int(not lo < result.w_cp_estimate < hi),
        "z": abs(result.w_cp_estimate - a["kernel_params"].w_cp) / result.w_cp_uncertainty,
    }


# (span name, module, attribute, counts(bound arguments, result) or None).
# The attribute is looked up on the module to find the original function;
# a dotted attribute names a method.
TARGETS = [
    ("rtn.mc", "rtn", "mc_exponential_moment",
     lambda a, r: {"samples": a["n_real"] * np.size(a["times"])}),
    ("rtn.sample_batch", "rtn", "sample_batch",
     lambda a, r: {"jump_cols": r.jump_times.shape[1]}),
    ("rtn.sample_trajectory", "rtn", "sample_trajectory", None),
    ("slm.phasor_sum", "slm", "phasor_sum", _phasor_sum_counts),
    ("slm.build_kernel", "slm", "build_kernel", None),
    ("slm.build_phase_field", "slm", "build_phase_field",
     lambda a, r: {"blocks": r.n_blocks()}),
    ("slm.kernel_coherence", "slm", "kernel_coherence", None),
    ("optics.joint_profile", "optics", "joint_profile",
     lambda a, r: {"grid_points": r.F.size}),
    ("optics.evaluate", "optics", "JointSpatialProfile.evaluate",
     lambda a, r: {"grid_points": np.size(a["x1_px"]) * np.size(a["x2_px"])}),
    ("optics.estimate_wp", "optics", "estimate_wp", None),
    ("optics.estimate_wcp_tilde", "optics", "estimate_wcp_tilde", None),
    ("optics.curve_fit", "optics", "curve_fit", None),
    ("measurement.calibrate_wcp", "measurement", "calibrate_wcp", _calibrate_counts),
    ("measurement.simulate_counts", "measurement", "simulate_counts", None),
    ("cli.main", "cli", "main", None),
    ("cli.resolve_config", "cli", "resolve_config", None),
    ("cli.series_csv", "cli", "series_csv", None),
]


class Tracer:
    """In-memory span recorder for the traced passes of one run."""

    def __init__(self):
        self.spans: list[list] = []
        self.pass_id: int | None = None
        self._stack: list[int] = []

    def _wrap(self, name, func, counts):
        sig = inspect.signature(func) if counts else None
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.pass_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counts is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span[5] = counts(bound.arguments, result)
            return result

        return traced

    @contextmanager
    def installed(self, pass_id: int):
        """Trace every target while the block runs, as pass ``pass_id``."""
        modules = [m for n, m in list(sys.modules.items()) if n == "ltgsim" or n.startswith("ltgsim.")]
        undo = []
        try:
            for name, mod, attr, counts in TARGETS:
                owner = sys.modules[f"ltgsim.{mod}"]
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                    holders = [owner]
                else:
                    holders = modules
                orig = getattr(owner, attr)
                wrapped = self._wrap(name, orig, counts)
                for holder in holders:
                    for key, val in list(vars(holder).items()):
                        if val is orig:
                            undo.append((holder, key, orig))
                            setattr(holder, key, wrapped)
            self.pass_id = pass_id
            yield self
        finally:
            self.pass_id = None
            for holder, key, orig in reversed(undo):
                setattr(holder, key, orig)

    def pass_metrics(self, pass_id: int, wall_s: float, output_bytes: int) -> dict[str, float]:
        """Per-layer metrics of one traced pass of ``wall_s`` seconds."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == pass_id]
        child = defaultdict(float)
        for _, s in spans:
            if s[3] is not None:
                child[s[3]] += s[2] - s[1]
        self_s, calls, counts = defaultdict(float), defaultdict(int), defaultdict(float)
        for i, s in spans:
            name = s[0]
            self_s[name] += s[2] - s[1] - child[i]
            calls[name] += 1
            for key, val in (s[5] or {}).items():
                full = f"{name}.{key}"
                counts[full] = max(counts[full], val) if key in _MAX_COUNTS else counts[full] + val

        def rate(work, busy):
            return work / busy if busy > 0 else 0.0

        optics_busy = self_s["optics.joint_profile"] + self_s["optics.evaluate"]
        out = {
            "rtn.mc.samples_per_s": rate(counts["rtn.mc.samples"], self_s["rtn.mc"]),
            "rtn.sample_batch.jump_cols": counts["rtn.sample_batch.jump_cols"],
            "slm.phasor_sum.pair_terms": counts["slm.phasor_sum.pair_terms"],
            "slm.phasor_sum.pair_terms_per_s": rate(
                counts["slm.phasor_sum.pair_terms"], self_s["slm.phasor_sum"]),
            "slm.phasor_sum.lost_mass": counts["slm.phasor_sum.lost_mass"],
            "slm.build_phase_field.blocks": counts["slm.build_phase_field.blocks"],
            "optics.grid_points": counts["optics.joint_profile.grid_points"]
            + counts["optics.evaluate.grid_points"],
            "optics.grid_points_per_s": rate(
                counts["optics.joint_profile.grid_points"] + counts["optics.evaluate.grid_points"],
                optics_busy),
            "measurement.calibrate_wcp.clamped": counts["measurement.calibrate_wcp.clamped"],
            "measurement.calibrate_wcp.z": counts["measurement.calibrate_wcp.z"],
            "cli.output_bytes": output_bytes,
            "trace.coverage": sum(self_s.values()) / wall_s,
        }
        for metric, _, _ in PER_LAYER:
            stem, _, measure = metric.rpartition(".")
            if measure == "self_s":
                out[metric] = self_s[stem]
            elif measure == "calls":
                out[metric] = calls[stem]
        return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced passes."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
