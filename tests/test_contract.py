"""The library contract: every entry point the runners call gives a finite
result or a one-line refusal, whatever it is given; and the library's
refusal table, the exact text of each refusal its rules give."""
import enum
import inspect
import traceback
import warnings
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltgsim import analytic, measurement, optics, rtn, series, slm
from ltgsim.analytic import exponential_moment, global_coherence, local_coherence
from ltgsim.measurement import (calibrate_wcp, check_counts, check_purity, detection_probabilities,
                                rect_phase_pattern, simulate_counts, visibility)
from ltgsim.optics import THETA0_CALIBRATED, NumericalError, PdcSetup, profile_axis, pump_floor_px, wcp_curve
from ltgsim.rtn import (RtnParams, SeedSpec, TrajectoryBatch, draw_ensemble, mc_exponential_moment,
                        sample_batch, sample_trajectory, stack_batches)
from ltgsim.series import ANALYTIC, CoherenceSeries
from ltgsim.slm import (CorrelationKernel, KernelParams, MaskGeometry, build_kernel, build_phase_field,
                        kernel_coherence, kernel_factors, phasor_sum, transition_sweep)


class Points(int):
    """An ordinary time grid: this many points from 0 to the horizon in use."""


# Odd values, drawn as often as ordinary ones: zeros, +-tiny, +-huge and
# non-finite floats, bools, and values that are no real number at all; for
# counts also fractions, negatives and integers past 64 bits and past the
# float range.  A time argument is an ordinary grid, one of these reals, or
# an odd grid: not 1-D, not ascending, not finite, of no real numbers
# (complex, bool, strings), or no array at all.
NOT_NUMBERS = ["2", None, 1 + 0j, [1]]
ODD_REALS = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300, 1.7e308, np.inf, -np.inf,
             np.nan, 0.5, True, False]
ODD_FLOATS = st.sampled_from(ODD_REALS + NOT_NUMBERS) | st.floats(0.0, 3.0)
ODD_COUNTS = st.sampled_from([-1, 2**64, 10**30, 10**400, 0.0, 2.0, 2.5, np.nan, np.inf, True, False,
                              *NOT_NUMBERS]) | st.integers(0, 40)
ODD_TIMES = st.floats(0.0, 3.0) | st.sampled_from(
    [*map(Points, range(6)), *ODD_REALS, "2", None, [1.0], [0.0, np.nan], [1.0, 0.5], [-1.0, 0.5],
     [[0.0, 1.0]], np.zeros((2, 2)), [0.0, 1 + 0j], np.array([0.0, 1 + 1j]), np.array([False, True]),
     ["0", "1"]])
ODD_FLAGS = st.booleans() | st.sampled_from([np.nan, "no", 0, 1, None])
ODD_SHIFTS = st.sampled_from([None, [0, 1, 2, 3], [0, 1, 0, 1], np.zeros((4, 2), int), ["1", "2", "3", "4"],
                              [0, 1, 2, None], [0, 1, 2, 1 + 0j], [0.0, 1.0, 2.0, 3.0]])

# The values of one example, each read by the entry points that take such a
# value (x and y, say, as a rate and a horizon, two widths, or a rate scale
# and a window), and the ordinary grid size and flag of the Monte Carlo call.
DRAWS = {
    "x": ODD_FLOATS, "y": ODD_FLOATS, "z": ODD_FLOATS, "u": ODD_FLOATS,
    "theta_0": ODD_FLOATS | st.sampled_from([THETA0_CALIBRATED, 0.2]), "times": ODD_TIMES,
    "n_real": ODD_COUNTS, "order": ODD_COUNTS, "start": ODD_COUNTS, "stop": ODD_COUNTS | st.none(),
    "count": ODD_COUNTS, "repeats": ODD_COUNTS, "flag": ODD_FLAGS, "h_values": ODD_SHIFTS,
    "points": st.integers(0, 5), "antithetic": st.booleans(),
}

# The ordinary field of the kernel-sum calls where the drawn one is refused.
SMALL_FIELD = build_phase_field(0.5, np.linspace(0.0, 1.0, 3), 2, MaskGeometry(8, 4.0, 12.0))


def _finite(*values) -> bool:
    return all(np.all(np.isfinite(np.asarray(v))) for v in values)


def _run(entry, *args, **kwargs):
    """entry's result, or None where it refuses with a one-line ValueError, or
    a NumericalError outside ``rtn``, whose sampling has no numerical failure."""
    refusals = ValueError if entry.__module__ == rtn.__name__ else (ValueError, NumericalError)
    try:
        return entry(*args, **kwargs)
    except refusals as err:
        assert "\n" not in str(err)
        return None


def _contract(run, v) -> None:
    """Call every entry point on the drawn values ``v`` through ``run``; where
    a constructor refuses its values, the calls after it take ordinary ones."""
    params = run(RtnParams, v.x, v.y) or RtnParams(1.0, 2.0)
    seed = run(SeedSpec, v.repeats, v.count) or SeedSpec(0)
    # The Monte Carlo reduction on an ordinary grid and a bool flag in every
    # example, then once more on the drawn time argument and flag.
    grid = np.linspace(0.0, params.t_max, v.points)
    times = np.linspace(0.0, params.t_max, v.times) if isinstance(v.times, Points) else v.times
    for when, flag in ((grid, v.antithetic), (times, v.flag)):
        moment = run(mc_exponential_moment, params, v.order, when, v.n_real, seed, flag)
        assert moment is None or _finite(moment.values, moment.stderr)
    ensemble = run(draw_ensemble, params, v.n_real, seed) or draw_ensemble(params, 5, seed)
    assert np.all(ensemble.counts <= ensemble.width) and np.all(np.abs(ensemble.signs) == 1.0)
    batch = run(sample_batch, ensemble, v.start, v.stop)
    if batch is not None:
        finite = np.isfinite(batch.jump_times)
        assert np.array_equal(finite.sum(axis=1), ensemble.counts[v.start:v.stop])
        assert np.all(batch.jump_times[finite] <= params.t_max)
    trajectory = run(sample_trajectory, params, seed)
    assert _finite(trajectory.jump_times) and np.all(trajectory.jump_times <= params.t_max)
    phases = run(TrajectoryBatch.phases, trajectory, times)
    assert phases is None or _finite(phases)
    stacked = run(stack_batches, [trajectory, batch or trajectory])
    assert len(stacked) == len(trajectory) + len(batch or trajectory)

    kernel = run(KernelParams, v.x, v.y, v.count)
    assert kernel is None or _finite(*run(kernel_factors, kernel))
    geometry = run(MaskGeometry, v.count, v.x, v.y)
    assert geometry is None or _finite(geometry.offsets1(), geometry.offsets2())
    setup = run(PdcSetup, theta_0=v.theta_0, spectral_width_nm=v.z)
    if setup is not None:
        assert _finite(setup.window_angular_freq, run(pump_floor_px, setup))
        axis = run(profile_axis, setup)
        assert axis is None or _finite(axis)
        table = run(wcp_curve, setup, [v.u])
        assert table is None or _finite(table.w_cp, table.order, table.w_p, table.w_tilde)
    for entry, args in ((exponential_moment, (v.x, v.count, times)), (local_coherence, (v.x, times)),
                        (global_coherence, (v.y, times)),
                        (CoherenceSeries, (times, np.ones(np.shape(times)), ANALYTIC))):
        result = run(entry, *args)
        assert result is None or _finite(getattr(result, "values", result))
    probs = run(detection_probabilities, v.z, v.u)
    assert probs is None or _finite(probs)
    rates = run(simulate_counts, (v.z, v.u), v.x, v.y, v.repeats)
    assert rates is None or _finite(rates)

    # The kernel sum and the calibration on a small mask, the drawn one where
    # a phase field can be built on it.
    mask = geometry or SMALL_FIELD.geometry
    field = run(build_phase_field, v.x, times, v.order, mask, seed)
    assert field is None or _finite(field.phasors)
    if field is None:
        mask, field = SMALL_FIELD.geometry, SMALL_FIELD
    kp = replace(kernel or KernelParams(1.5, 4.0), geometry=mask)
    coherence = run(kernel_coherence, kp, field, field, v.start)
    assert coherence is None or _finite(coherence.values)
    sweep = run(transition_sweep, v.x, [kp], [v.start], times, v.order, seed)
    assert sweep is None or all(_finite(s.values) for s in sweep)
    pattern = run(rect_phase_pattern, mask.pixels_per_half, v.repeats)
    assert pattern is None or _finite(pattern)
    result = run(calibrate_wcp, kp, v.u, v.repeats, v.h_values, v.x, v.y, v.repeats, v.flag, seed)
    assert result is None or _finite(result.v_of_h, result.vis_of_v, result.vis_uncertainty,
                                     result.w_cp_estimate, result.w_cp_uncertainty, result.curve_vis)


@given(st.tuples(*DRAWS.values()))
@settings(max_examples=420, deadline=None, derandomize=True, database=None)
def test_odd_inputs_give_a_finite_result_or_a_refusal(values):
    # Any other exception, and any warning, fails.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _contract(_run, SimpleNamespace(**dict(zip(DRAWS, values))))


# Public names the contract does not call, each with why.
_RULE = "a rule: the entry points that take the value call it"
EXEMPT = {
    **dict.fromkeys(["rtn.check_rate", "rtn.check_horizon", "rtn.check_entries", "rtn.check_ensemble",
                     "rtn.check_integer", "rtn.check_real", "rtn.check_flag", "rtn.check_moment",
                     "rtn.check_grid", "slm.field_blocks", "slm.check_mirror",
                     "slm.check_field_grid", "slm.check_shift", "measurement.check_purity",
                     "measurement.check_counts", "measurement.check_repeats", "measurement.check_pattern",
                     "measurement.check_shifts", "series.check_times", "optics.check_spectral_width"],
                    _RULE),
    "rtn.Ensemble": "the result of draw_ensemble, which sample_batch reads",
    "slm.CorrelationKernel": "the dense kernel of build_kernel, a test oracle",
    "slm.build_kernel": "a test oracle: no run path forms the dense kernel",
    "slm.phasor_sum": "a test oracle of the kernel sum over literal mask phases",
    "slm.pair_sums": "a step of kernel_coherence and calibrate_wcp on kernel_factors' arrays",
    "slm.kernel_band": "a step of kernel_coherence and calibrate_wcp on kernel_factors' arrays",
    "slm.windows": "a strided view of arrays kernel_coherence and calibrate_wcp have formed",
    "slm.PhaseField": "the result of build_phase_field",
    "optics.NumericalError": "the refusal of a numerical failure",
    "optics.JointSpatialProfile": "the result of joint_profile",
    "optics.joint_profile": "a step of wcp_curve on a setup profile_axis has passed",
    "optics.curve_fit": "a step of wcp_curve's width estimators on the profile's samples",
    "optics.real_exp": "the package's one real exp, on arrays its callers have formed",
    "optics.estimate_wp": "a step of wcp_curve on joint_profile's result",
    "optics.estimate_wcp_tilde": "a step of wcp_curve on joint_profile's result",
    "optics.combined_wcp": "a step of wcp_curve on estimate_wcp_tilde's result",
    "optics.WcpTable": "the result of wcp_curve",
    "measurement.visibility": "a step of calibrate_wcp on simulate_counts' rates",
    "measurement.CalibrationResult": "the result of calibrate_wcp",
}

ORDINARY = SimpleNamespace(x=1.0, y=12.0, z=15.0, u=0.9, theta_0=THETA0_CALIBRATED, times=Points(3),
                           n_real=8, order=2, start=0, stop=None, count=8,
                           repeats=2, flag=False, h_values=[0, 1, 2, 3], points=3, antithetic=True)


def test_every_public_entry_point_is_in_the_contract():
    # A new entry point cannot skip the contract: each public function and
    # class of the model layers is called by it or named in EXEMPT.
    driven = set()

    def record(entry, *args, **kwargs):
        driven.add(f"{entry.__module__.rpartition('.')[2]}.{entry.__qualname__.partition('.')[0]}")
        return _run(entry, *args, **kwargs)

    _contract(record, ORDINARY)
    public = {f"{module.__name__.rpartition('.')[2]}.{name}"
              for module in (rtn, slm, optics, measurement, analytic, series)
              for name, obj in vars(module).items()
              if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == module.__name__}
    assert sorted(public - driven - EXEMPT.keys()) == []
    assert EXEMPT.keys() <= public - driven


class Refusal(NamedTuple):
    """A library call and the whole text of the one-line ValueError it raises."""

    call: Callable
    text: str


def _rows(text: str, *calls) -> list:
    """One row per call, each refused with ``text``."""
    return [Refusal(call, text) for call in calls]


# The fixtures of the rows: the default kernel, its dense form and a field on
# the default mask, a one-row batch, and the calibration's kernel.
_KP, _CAL = KernelParams(3.0, 20.0), KernelParams(3.1, 20.0)
_DENSE, _ZEROS = build_kernel(_KP), np.zeros((320, 1))
_TIMES = np.linspace(0.0, 2.0 * np.pi, 60)
_FIELD = build_phase_field(0.5, _TIMES, 3, seed=SeedSpec(30))
_BATCH = sample_trajectory(RtnParams(1.0, 2.0), SeedSpec(0))
_GRID = np.linspace(0.0, 1.0, 3)
_ORDER = "time grid must be ascending and t must be >= 0 and finite"
_WITHIN = "time grid must be ascending and must be finite and lie within [0, {}]"
_CEILING = "exceed the 100,000,000 (~0.8 GB per array) a run may hold"
_PHASES = "the sine fit of V(h) needs shifts of 4 distinct phases h mod 2 * n_r, got {}"
_OFF_MASK = "shift delta={} moves every pixel off the mask"
_UNIT_SUM = "kernel weights must sum to 1 within 1e-12"
_RATE = "switching rate gamma must be >= 0 and finite, got "
_WINDOW = "acquisition_s must be finite and > 0, got "


def _mc(t_max, times, n_real=8, order=2, gamma=1.0, **flag):
    return mc_exponential_moment(RtnParams(gamma, t_max), order, times, n_real, SeedSpec(0), **flag)


# Every entry point that takes a time grid, and four grids of no real numbers.
_TIME_ENTRIES = {
    "moment": lambda t: exponential_moment(1.0, 2, t), "local": lambda t: local_coherence(1.0, t),
    "global": lambda t: global_coherence(1.0, t), "phases": _BATCH.phases, "mc": lambda t: _mc(2.0, t),
    "field": lambda t: build_phase_field(0.5, t, 3), "sweep": lambda t: transition_sweep(0.5, [_KP], [0], t),
    "series": lambda t: CoherenceSeries(t, np.ones(2), ANALYTIC)}
_UNREAL_GRIDS = {"complex-list": ([0, 1 + 0j], "complex128"), "complex": (np.array([0, 1 + 1j]), "complex128"),
                 "bool": (np.array([False, True]), "bool"), "strings": (["0", "1"], "str32")}

# The library refusal table: each call a rule refuses, with its exact text,
# under the test that judges it, one test id per case where the cases are
# named.  The rows are grouped by the test module that installs them
# (``refusal_tests``), so each test keeps the id it had in that module.
_RTN = {
    # SeedSpec(-1) failed later in SeedSequence; SeedSpec(1.5).generator() raised a TypeError.
    "test_seed_spec_refuses_what_is_not_a_stream": [
        Refusal(lambda: SeedSpec(-1, 0), "master_seed must be >= 0, got -1"),
        Refusal(lambda: SeedSpec(1.5, 0), "master_seed must be an integer, got 1.5"),
        Refusal(lambda: SeedSpec(0, -1), "stream_index must be >= 0, got -1"),
        Refusal(lambda: SeedSpec(0, 2.0), "stream_index must be an integer, got 2.0"),
        Refusal(lambda: SeedSpec(True, 0), "master_seed must be an integer, got True"),
        Refusal(lambda: SeedSpec("1", 0), "master_seed must be an integer, got '1'")],
    # [0, nan] passed the range check (nan < 0 is false) and returned NaN.
    "test_mc_refuses_non_finite_times": _rows(_WITHIN.format(2.0), *[
        lambda t=t: _mc(2.0, np.array(t)) for t in ([0.0, np.nan], [np.nan], [0.0, np.inf], [-np.inf, 0.0])]),
    # build_phase_field built a field at t = -1, a time mc_exponential_moment refused.
    # A grid that is no 1-D array raised an IndexError (None, "2"), numpy's
    # "truth value ... is ambiguous" (2-D), or the horizon rule's "got nan".
    "test_field_and_mc_share_one_time_grid_rule": [
        Refusal(lambda: build_phase_field(0.1, [-1.0, 0.5], 3), _ORDER),
        Refusal(lambda: _mc(0.5, [-1.0, 0.5], gamma=0.1), _WITHIN.format(0.5)),
        *[Refusal(lambda run=run, t=t: run(t), f"time grid must be one-dimensional, got {ndim} dimensions")
          for t, ndim in ((None, 0), ("2", 0), ([[0.0, 0.5]], 2))
          for run in (lambda t: build_phase_field(0.1, t, 3), lambda t: local_coherence(0.1, t),
                      lambda t: _mc(0.5, t, gamma=0.1), _BATCH.phases)]],
    # phases([-1.0, 0.5]) returned phi(-1) = +1.0; phases and the series kept
    # "ascending" alone, and the moment "t >= 0 and finite" alone.
    "test_phases_series_and_moment_share_one_time_grid_rule": _rows(_ORDER, *[
        lambda run=run, t=t: run(t) for t in ([-1.0, 0.5], [0.0, np.nan], [0.0, np.inf], [1.0, 0.5])
        for run in (_BATCH.phases, _TIME_ENTRIES["series"], _TIME_ENTRIES["moment"])]),
    # n_rep, repeats and n_real raised a TypeError naming no argument, n_r =
    # 5.5 returned a width and 2.5 built a pattern, 320.5 pixels built a
    # geometry, 2-D shifts raised "unhashable type", and a kernel of order 4.0
    # (or True) recorded "n": 4.0.  Counts past the float range raised an
    # OverflowError where they met a float.
    "test_integer_parameters_refuse_fractions": {
        "n_rep": Refusal(lambda: build_phase_field(0.5, _GRID, 2.5), "n_rep must be an integer, got 2.5"),
        "repeats": Refusal(lambda: simulate_counts((0.25, 0.25), 250.0, 8.0, 2.5),
                           "repeats must be an integer, got 2.5"),
        "n_real": Refusal(lambda: _mc(1.0, _GRID, n_real=10.5), "n_real must be an integer, got 10.5"),
        "calibration-n_r": Refusal(lambda: calibrate_wcp(_CAL, n_r=5.5, shot_noise=False),
                                   "n_r must be an integer, got 5.5"),
        "pattern-n_r": Refusal(lambda: rect_phase_pattern(320, 2.5), "n_r must be an integer, got 2.5"),
        "pixels_per_half": Refusal(lambda: MaskGeometry(320.5),
                                   "pixels_per_half must be an integer, got 320.5"),
        "h_values-2d": Refusal(lambda: calibrate_wcp(_CAL, h_values=np.zeros((4, 2), int)),
                               "h_values must be one list of shifts, got shape (4, 2)"),
        "kernel-n": Refusal(lambda: KernelParams(3.0, 20.0, 4.0), "n must be an integer, got 4.0"),
        "kernel-n-bool": Refusal(lambda: KernelParams(3.0, 20.0, True), "n must be an integer, got True"),
        "n_real-past-floats": Refusal(lambda: _mc(1.0, _GRID, n_real=10**400),
                                      f"n_real must be <= 1.8e+308, got {10**400}"),
        "order-past-floats": Refusal(lambda: _mc(1.0, _GRID, order=10**400),
                                     f"moment order must be <= 1.8e+308, got {10**400}")},
    "test_mc_parameter_errors": [
        Refusal(lambda: _mc(1, [0.5], n_real=1), "n_real must be >= 2, got 1"),
        Refusal(lambda: _mc(1, [0.5], n_real=101, antithetic=True),
                "n_real must be even for antithetic pairs, got 101")],
    # The integrator bins jumps into an ascending grid; any other order would
    # give wrong phases, so every caller refuses it.
    "test_descending_grid_rejected": [
        Refusal(lambda: _mc(2.0, np.linspace(0, 2, 9)[::-1], n_real=10), _WITHIN.format(2.0)),
        *_rows(_ORDER, lambda: build_phase_field(1.0, np.linspace(0, 2, 9)[::-1], 3),
               lambda: TrajectoryBatch(np.ones(1), np.array([[0.5]])).phases([0.0, 1.0, 0.5]))],
    # True compares as 1: a range check alone took it as a rate of 1 and
    # recorded "gamma": true in a series.
    "test_a_bool_is_refused_where_a_real_number_is_meant": {
        name: Refusal(call, f"{what} must be a real number, got True") for name, call, what in (
            ("rate", lambda: RtnParams(True, 2.0), "switching rate gamma"),
            ("horizon", lambda: RtnParams(1.0, True), "horizon t_max"),
            ("moment", lambda: exponential_moment(True, 2, [0.5]), "switching rate gamma"),
            ("kernel", lambda: KernelParams(True, 20.0, 2), "w_cp"),
            ("geometry", lambda: MaskGeometry(320, True, 480.0), "j0"),
            ("setup", lambda: PdcSetup(spectral_width_nm=True), "spectral_width_nm"),
            ("counts", lambda: check_counts(True, 8.0), "n0"), ("purity", lambda: check_purity(True), "p"),
            ("detection", lambda: detection_probabilities(True, 0.5), "p"),
            ("simulate", lambda: simulate_counts((0.25, 0.25), n0=True), "n0"),
            ("widths", lambda: wcp_curve(PdcSetup(), [15.0, True]), "spectral_width_nm"))},
    "test_a_width_that_is_not_a_number_is_refused_before_any_width_runs": [
        Refusal(lambda: wcp_curve(PdcSetup(), [15.0, "15"]),
                "spectral_width_nm must be a real number, got '15'")],
    # A flag read by its truth value ran NaN and "no" as True, and recorded
    # "antithetic": NaN in the series params.
    "test_a_flag_must_be_a_bool": {
        "antithetic-nan": Refusal(lambda: _mc(2.0, [0.0, 1.0], n_real=4, antithetic=np.nan),
                                  "antithetic must be True or False, got nan"),
        "antithetic-no": Refusal(lambda: _mc(2.0, [0.0, 1.0], n_real=4, antithetic="no"),
                                 "antithetic must be True or False, got 'no'"),
        "shot-noise-nan": Refusal(lambda: calibrate_wcp(_CAL, shot_noise=np.nan),
                                  "shot_noise must be True or False, got nan")},
}
_ANALYTIC = {
    "test_precondition_errors": [
        Refusal(lambda: exponential_moment(-1.0, 2, 0.5), f"{_RATE}-1.0"),
        Refusal(lambda: exponential_moment(1.0, 0, 0.5), "moment order must be >= 1, got 0"),
        Refusal(lambda: exponential_moment(1.0, 2, -0.5), _ORDER)],
    # NaN fails every ordering test, so only checks written as "not >= 0"
    # catch it; before, both calls returned NaN moments.
    "test_moment_rejects_nan": [Refusal(lambda: exponential_moment(np.nan, 2, [0.5, 1.0]), f"{_RATE}nan"),
                                Refusal(lambda: exponential_moment(1.0, 2, np.array([0.5, np.nan])), _ORDER)],
    # An infinite time raised a RuntimeWarning from cos and returned NaN; in each branch.
    "test_moment_rejects_infinite_times": _rows(_ORDER, *[
        lambda gamma=gamma, t=t: exponential_moment(gamma, 2, t)
        for gamma in (1.0, 2.0, 3.0) for t in (np.inf, [0.0, np.inf], np.array([np.inf, 1.0]))]),
    # A negative time is refused by the moment at every grid point, not only
    # the first, and a descending grid by the series container.
    "test_coherence_rejects_bad_grids": _rows(_ORDER, *[
        lambda run=run, t=t: run(0.5, np.array(t)) for run in (local_coherence, global_coherence)
        for t in ([-0.5, 0.0, 1.0], [0.0, 1.0, -0.5], [1.0, 0.5, 0.0])]),
}
_SLM = {
    "test_geometry_validation": [Refusal(lambda: MaskGeometry(j0=-1.0), "j0 must lie in [0, 320)"),
                                 Refusal(lambda: MaskGeometry(k0=100.0), "k0 must lie in [320, 640)")],
    "test_odd_order_rejected": [Refusal(lambda: KernelParams(w_cp=3.0, w_p=20.0, n=3),
                                        "super-Gaussian order n must be a positive even integer, got 3; odd "
                                        "orders make the correlation factor sign-ambiguous")],
    "test_kernel_rejects_unnormalized": [
        Refusal(lambda: CorrelationKernel(np.full((4, 4), 1.0), _KP), _UNIT_SUM)],
    # A NaN width fails "> 0"; before, w_cp = NaN built an all-NaN kernel.
    "test_kernel_params_reject_nan_widths": {
        f"{w_cp}-{w_p}": Refusal(lambda w_cp=w_cp, w_p=w_p: KernelParams(w_cp, w_p),
                                 "w_cp and w_p must be positive")
        for w_cp, w_p in ((np.nan, 20.0), (3.0, np.nan))},
    # |NaN - 1| > 1e-12 is false, so the unit-sum check must be written as
    # "not within 1e-12" to refuse NaN weights.
    "test_kernel_rejects_nan_weights": [
        Refusal(lambda: CorrelationKernel(np.where(np.arange(16).reshape(4, 4) == 6, np.nan, 1 / 16), _KP),
                _UNIT_SUM)],
    "test_geometry_mismatch_rejected": [Refusal(
        lambda: kernel_coherence(_KP, *[build_phase_field(0.5, _TIMES, 3, MaskGeometry(j0=159.0))] * 2),
        "kernel and phase fields must share one mask geometry")],
    "test_field_needs_even_pixel_count": [
        Refusal(lambda: build_phase_field(0.7, _TIMES, 3, MaskGeometry(321, 160.0, 480.0), SeedSpec(7)),
                "pixels_per_half 321 is odd; a phase field mirrors each block half a mask away and needs an "
                "even number of pixels per half")],
    "test_field_needs_a_time_point": [
        Refusal(lambda: build_phase_field(0.5, np.array([]), 3), "phase fields need at least one time point")],
    # A shift of 1.5 px ran as the delta = 1 series and recorded delta 1; True
    # and False ran as delta = 1 and 0; a string, None, a list or a complex
    # number raised a TypeError.  A whole float is no shift either.
    "test_fractional_shift_refused": [
        *[Refusal(lambda run=run, d=d: run(d), f"shift delta={d!r} is not an integer")
          for d in (1.5, -0.5, np.float64(2.25), np.nan, np.inf, True, np.True_, "2", "1", None, [1], 1 + 0j)
          for run in (lambda d: kernel_coherence(_KP, _FIELD, _FIELD, d),
                      lambda d: phasor_sum(_DENSE, _ZEROS, _ZEROS, d))],
        *[Refusal(lambda d=d: transition_sweep(0.5, [_KP], [d], _TIMES, seed=SeedSpec(30)),
                  f"shift delta={d!r} is not an integer") for d in (False, "1")]],
    "test_shift_off_mask_rejected": [
        Refusal(lambda: phasor_sum(_DENSE, _ZEROS, _ZEROS, delta=320), _OFF_MASK.format(320)),
        *[Refusal(lambda d=d: kernel_coherence(_KP, _FIELD, _FIELD, d), _OFF_MASK.format(d))
          for d in (320, -320)]],
}
_MEASUREMENT = {
    # |Re Gamma| > 1 returned (0.5, 0.0) at p = 0.5 and a negative probability
    # at p = 1; NaN passed through to numpy's Poisson draw, as did NaN or
    # negative probabilities passed by hand.
    "test_detection_refuses_impossible_coherence": [
        *[Refusal(lambda p=p, re=re: detection_probabilities(p, re),
                  f"detection needs p in [0, 1] and |Re Gamma| <= 1, got p = {p!r}, Re Gamma = {re!r}")
          for p, re in ((0.5, 2.0), (1.0, 2.0), (1.0, -1.0000000000000002), (1.5, 0.5), (np.nan, 0.5),
                        (1.0, np.nan), (1.0, np.inf))],
        *[Refusal(lambda probs=probs: simulate_counts(probs, 250.0),
                  f"expected counts {lam} are not all >= 0; check probabilities")
          for probs, lam in (((0.25, -0.01), "[2000.0, -80.0]"), ((np.nan, 0.25), "[nan, 2000.0]"))]],
    # numpy's Poisson draw stopped with "lam value too large", naming no
    # argument; the counts ceiling names both.
    "test_counts_refuse_beyond_poisson_range": [
        *_rows("n0 1e+300 and acquisition_s 8.0 expect up to 1.6e+301 counts per acquisition, over 1e+18",
               lambda: simulate_counts((0.25, 0.25), 1e300), lambda: calibrate_wcp(_CAL, n0=1e300)),
        Refusal(lambda: simulate_counts((0.25, 0.25), np.nan), "n0 must be positive")],
    "test_visibility_zero_counts": [
        Refusal(lambda: visibility(0.0, 0.0), "visibility undefined: zero total counts")],
    # A window that is not positive and finite, or no repeat at all, has no
    # rate: refused by name instead of NaN rates or a numpy error.
    "test_counts_reject_bad_acquisition": [
        *[Refusal(lambda a=a: simulate_counts((0.25, 0.25), 250.0, a), f"{_WINDOW}{a}")
          for a in (0.0, -1.0, np.nan, np.inf)],
        Refusal(lambda: simulate_counts((0.25, 0.25), 250.0, 8.0, 0), "repeats must be >= 1, got 0"),
        Refusal(lambda: calibrate_wcp(_CAL, acquisition_s=0.0), f"{_WINDOW}0.0")],
    # h + 0.5 ran as the truncated whole shifts, 0 twice, and returned a width;
    # strings and None raised a TypeError.  A whole float is no shift either.
    "test_calibration_refuses_fractional_shifts": [
        Refusal(lambda h=h: calibrate_wcp(_CAL, shot_noise=False, h_values=h),
                f"shift delta={first} is not an integer")
        for h, first in ((np.arange(-10, 10) + 0.5, "-9.5"), ([0, 1, 2, np.nan], "nan"),
                         ([0, 1, 2, np.inf], "inf"), (["1", "2", "3", "4"], "'1'"), ([0, 1, 2, None], "None"),
                         (np.arange(-10.0, 10.0), "-10.0"))],
    # Shifts a period 2 * n_r apart repeat one phase of the sine fit: n_r = 1
    # (two phases) returned w_cp 2.93 for a true 3.1 with vis_of_v 1.6e-5 +-
    # 1.2e-16, and h = [0, 1, 0, 1] a contrast with sigma_V = 5e-16.
    "test_calibration_refuses_repeated_shift_phases": [
        Refusal(lambda kwargs=kwargs: calibrate_wcp(_CAL, shot_noise=False, **kwargs), _PHASES.format(phases))
        for kwargs, phases in (({"n_r": 1}, 2), ({"h_values": [0, 1, 0, 1]}, 2),
                               ({"h_values": [0, 10, -10, 20, 1]}, 2),
                               ({"n_r": 2, "h_values": np.arange(-3, 0)}, 3))],
}
_CONTRACT = {
    # A complex grid ran on its real parts with a ComplexWarning (an array) or
    # raised a TypeError (a list); bools and numeral strings ran.
    "test_time_grids_hold_real_numbers": {
        f"{entry}-{grid}": Refusal(lambda run=run, t=t: run(t),
                                   f"time grid must hold real numbers, got {dtype} values")
        for entry, run in _TIME_ENTRIES.items() for grid, (t, dtype) in _UNREAL_GRIDS.items()},
    # A whole float ran as the shift it names, where --validate refused it.
    "test_shifts_are_integers": {
        f"{where}-{name}": Refusal(call, f"shift delta={d!r} is not an integer")
        for name, d in (("float", 2.0), ("numpy", np.float64(2.0))) for where, call in (
            ("kernel-sum", lambda d=d: kernel_coherence(_KP, _FIELD, _FIELD, d)),
            ("sweep", lambda d=d: transition_sweep(0.5, [_KP], [0, d], _TIMES)),
            ("calibration", lambda d=d: calibrate_wcp(_CAL, shot_noise=False, h_values=[0, 1, d, 3])))},
    # The ceilings on jumps and entries, each where a run meets it first.
    "test_ceilings_refuse_in_one_line": {
        "ensemble": Refusal(lambda: RtnParams(1e5, 1e4), "gamma * t_max over 1 trajectories expects 1e+09 "
                            "jumps, more than the 100,000,000 (~0.8 GB of jump times) a run may hold"),
        "entries": Refusal(lambda: draw_ensemble(RtnParams(0.0, 1.0), 10**10, SeedSpec(0)),
                           f"1e+10 array entries {_CEILING}"),
        "mc-grid": Refusal(lambda: rtn.check_grid(10**8), f"7e+08 array entries {_CEILING}"),
        "field-grid": Refusal(lambda: build_phase_field(0.0, np.linspace(0.0, 1.0, 925_926), 3),
                              f"1e+08 array entries {_CEILING}")},
}
LIBRARY_REFUSALS = {"test_rtn": _RTN, "test_analytic": _ANALYTIC, "test_slm": _SLM,
                    "test_measurement": _MEASUREMENT, "test_contract": _CONTRACT}


def _judge(case: Refusal) -> None:
    with warnings.catch_warnings(), pytest.raises(ValueError) as err:
        warnings.simplefilter("error")
        case.call()
    assert str(err.value) == case.text


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


def refusal_tests(module: str) -> dict:
    """The tests of ``module``'s part of the table, by name."""
    return {name: _refusal_test(cases) for name, cases in LIBRARY_REFUSALS[module.rpartition(".")[2]].items()}


globals().update(refusal_tests(__name__))


def test_every_rule_has_a_row_in_the_refusal_table():
    # A rule cannot land without an exact-text case: each rule under _RULE
    # raises the refusal of some row, or lies on its way (check_grid by way
    # of check_entries, say).
    reached = set()
    for cases in (c for group in LIBRARY_REFUSALS.values() for c in group.values()):
        for case in (cases.values() if isinstance(cases, dict) else cases):
            try:
                case.call()
            except ValueError as err:
                reached |= {f"{frame.f_globals['__name__'].rpartition('.')[2]}.{frame.f_code.co_name}"
                            for frame, _ in traceback.walk_tb(err.__traceback__)}
    assert sorted(name for name, why in EXEMPT.items() if why == _RULE and name not in reached) == []


class _Float(float):
    """A float subclass: a real number, but not the exact float type."""


class _Count(enum.IntEnum):
    TWO = 2


# What the three type rules decide per kind of value 2, with the value's text
# in each refusal: (value, text, a real number, an integer); a shift is taken
# exactly when an integer is.
_TYPE_DECISIONS = {
    "float": (2.0, "2.0", True, False),
    "int": (2, "2", True, True),
    "float-subclass": (_Float(2.0), "2.0", True, False),
    "IntEnum": (_Count.TWO, "", True, True),
    "np.float64": (np.float64(2.0), "np.float64(2.0)", True, False),
    "np.float32": (np.float32(2.0), "np.float32(2.0)", True, False),
    "np.int64": (np.int64(2), "", True, True),
    "Fraction": (Fraction(2), "Fraction(2, 1)", True, False),
    "Decimal": (Decimal(2), "Decimal('2')", False, False),
    "bool": (True, "True", False, False),
    "np.bool_": (np.bool_(True), "np.True_", False, False),
    "complex": (2j, "2j", False, False),
    "str": ("2", "'2'", False, False),
    "None": (None, "None", False, False),
}


@pytest.mark.parametrize("value, text, real, integer", _TYPE_DECISIONS.values(), ids=_TYPE_DECISIONS.keys())
def test_type_rules_decide_each_kind_of_value(value, text, real, integer):
    # The exact float and int take a fast path in these rules, which must not
    # change what any other kind of value gets, refusal text included.
    for rule, accepts, refusal in (
            (lambda: rtn.check_real("x", value), real, f"x must be a real number, got {text}"),
            (lambda: rtn.check_integer("x", value, 0), integer, f"x must be an integer, got {text}"),
            (lambda: slm.check_shift(320, value), integer, f"shift delta={text} is not an integer")):
        if accepts:
            rule()
        else:
            _judge(Refusal(rule, refusal))
    if integer:
        assert type(slm.check_shift(320, value)) is int and slm.check_shift(320, value) == 2
