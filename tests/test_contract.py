"""The library contract: every entry point the runners call gives a finite
result or a one-line refusal, whatever it is given."""
import inspect
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ltgsim import analytic, measurement, optics, rtn, series, slm
from ltgsim.analytic import exponential_moment, global_coherence, local_coherence
from ltgsim.measurement import calibrate_wcp, detection_probabilities, rect_phase_pattern, simulate_counts
from ltgsim.optics import THETA0_CALIBRATED, NumericalError, PdcSetup, profile_axis, pump_floor_px, wcp_curve
from ltgsim.rtn import (RtnParams, SeedSpec, TrajectoryBatch, draw_ensemble, mc_exponential_moment,
                        sample_batch, sample_trajectory, stack_batches)
from ltgsim.series import ANALYTIC, CoherenceSeries
from ltgsim.slm import (KernelParams, MaskGeometry, build_phase_field, kernel_coherence, kernel_factors,
                        transition_sweep)


class Points(int):
    """An ordinary time grid: this many points from 0 to the horizon in use."""


# Odd values, drawn as often as ordinary ones: zeros, +-tiny, +-huge and
# non-finite floats, bools, and values that are no real number at all; for
# counts also fractions, negatives and integers past 64 bits and past the
# float range.  A time argument is an ordinary grid, one of these reals, or
# an odd grid: not 1-D, not ascending, not finite, or no array at all.
NOT_NUMBERS = ["2", None, 1 + 0j, [1]]
ODD_REALS = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300, 1.7e308, np.inf, -np.inf,
             np.nan, 0.5, True, False]
ODD_FLOATS = st.sampled_from(ODD_REALS + NOT_NUMBERS) | st.floats(0.0, 3.0)
ODD_COUNTS = st.sampled_from([-1, 2**64, 10**30, 10**400, 0.0, 2.0, 2.5, np.nan, np.inf, True, False,
                              *NOT_NUMBERS]) | st.integers(0, 40)
ODD_TIMES = st.floats(0.0, 3.0) | st.sampled_from(
    [*map(Points, range(6)), *ODD_REALS, "2", None, [1.0], [0.0, np.nan], [1.0, 0.5], [-1.0, 0.5],
     [[0.0, 1.0]], np.zeros((2, 2))])
ODD_FLAGS = st.booleans() | st.sampled_from([np.nan, "no", 0, 1, None])
ODD_SHIFTS = st.sampled_from([None, [0, 1, 2, 3], [0, 1, 0, 1], np.zeros((4, 2), int), ["1", "2", "3", "4"],
                              [0, 1, 2, None], [0, 1, 2, 1 + 0j]])

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
                     "rtn.check_seed", "rtn.check_grid", "slm.field_blocks", "slm.check_mirror",
                     "slm.check_field_grid", "slm.check_shift", "measurement.check_purity",
                     "measurement.check_counts", "measurement.check_repeats", "measurement.check_pattern",
                     "measurement.check_shifts", "series.check_times"], _RULE),
    "rtn.Ensemble": "the result of draw_ensemble, which sample_batch reads",
    "slm.CorrelationKernel": "the dense kernel of build_kernel, a test oracle",
    "slm.build_kernel": "a test oracle: no run path forms the dense kernel",
    "slm.phasor_sum": "a test oracle of the kernel sum over literal mask phases",
    "slm.pair_sums": "a step of kernel_coherence and calibrate_wcp on kernel_factors' arrays",
    "slm.kernel_band": "a step of kernel_coherence and calibrate_wcp on kernel_factors' arrays",
    "slm.PhaseField": "the result of build_phase_field",
    "optics.NumericalError": "the refusal of a numerical failure",
    "optics.JointSpatialProfile": "the result of joint_profile",
    "optics.expected_wp_px": "a grid-size estimate, no finite value at a tiny theta_0: profile_axis refuses it",
    "optics.joint_profile": "a step of wcp_curve on a setup profile_axis has passed",
    "optics.curve_fit": "a step of wcp_curve's width estimators on the profile's samples",
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
