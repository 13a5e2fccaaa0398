"""Output state, coincidence counting and the correlated-pixel calibration."""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltgsim.measurement import (
    CountRecord,
    TwoQubitState,
    _pattern_coherence,
    build_state,
    calibrate_wcp,
    concurrence,
    detection_probabilities,
    rect_phase_pattern,
    simulate_counts,
    visibility,
)
from ltgsim.optics import NumericalError
from ltgsim.rtn import SeedSpec
from ltgsim.slm import KernelParams, MaskGeometry, build_kernel, phasor_sum

GEO = MaskGeometry()

# Admissible (p, Gamma) pairs: purity in [0, 1], coherence inside the unit
# disk (drawn as magnitude and angle to keep the support exact).
p_vals = st.floats(0.0, 1.0)
gammas = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 2.0 * np.pi)).map(
    lambda mp: mp[0] * np.exp(1j * mp[1])
)


def test_bell_state():
    state = build_state(1.0, 1.0 + 0.0j)
    bell = np.zeros((4, 4), dtype=complex)
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    assert np.allclose(state.rho, bell, atol=1e-15)
    assert concurrence(state) == pytest.approx(1.0, abs=1e-12)


def test_fully_mixed_state():
    state = build_state(0.0, 0.3 + 0.1j)
    assert np.allclose(state.rho, np.diag([0.5, 0, 0, 0.5]), atol=1e-15)
    assert concurrence(state) == pytest.approx(0.0, abs=1e-12)


def test_partial_purity_concurrence():
    state = build_state(0.927, 1.0 + 0.0j)
    assert concurrence(state) == pytest.approx(0.927, abs=1e-10)


def test_build_state_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_state(1.2, 0.5)
    with pytest.raises(ValueError):
        build_state(0.5, 1.5 + 0.0j)


def test_state_invariants_enforced():
    bad = np.diag([0.6, 0.0, 0.0, 0.5])
    with pytest.raises(ValueError):
        TwoQubitState(bad)
    skew = np.zeros((4, 4), dtype=complex)
    skew[0, 0] = skew[3, 3] = 0.5
    skew[0, 3] = 0.3
    skew[3, 0] = 0.2  # not Hermitian
    with pytest.raises(ValueError):
        TwoQubitState(skew)


@given(p_vals, gammas)
@settings(max_examples=300, deadline=None)
def test_state_physics_properties(p, g):
    state = build_state(p, g)
    rho = state.rho
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-14
    assert abs(np.trace(rho).real - 1.0) < 1e-14
    assert np.linalg.eigvalsh(rho).min() > -1e-12
    assert abs(concurrence(state) - p * abs(g)) < 1e-10
    p_pp, p_pm = detection_probabilities(state)
    assert abs(p_pp - 0.25 * (1 + p * g.real)) < 1e-12
    assert abs(p_pm - 0.25 * (1 - p * g.real)) < 1e-12


def test_detection_bell():
    assert detection_probabilities(build_state(1.0, 1.0)) == pytest.approx((0.5, 0.0))


def test_detection_dephased():
    assert detection_probabilities(build_state(0.7, 0.0)) == pytest.approx((0.25, 0.25))


def test_detection_frozen_values():
    # direct arithmetic: p = 0.927, Gamma = -1
    p_pp, p_pm = detection_probabilities(build_state(0.927, -1.0 + 0.0j))
    assert p_pp == pytest.approx(0.018250, abs=1e-12)
    assert p_pm == pytest.approx(0.481750, abs=1e-12)


def test_counts_noise_free():
    rec = simulate_counts((0.25, 0.25), n0=250.0, shot_noise=False)
    assert rec.n_pp == pytest.approx(250.0, abs=1e-12)
    assert rec.n_pm == pytest.approx(250.0, abs=1e-12)
    assert rec.acquisition_s == 8.0 and rec.repeats == 4


def test_counts_poisson_oracle():
    # Mean of many noisy acquisitions sits on the expectation (3 sigma).
    probs = detection_probabilities(build_state(0.9, 0.4 + 0.0j))
    expect = 4 * 100.0 * np.array(probs)
    n = 10_000
    rates = np.array([
        [r.n_pp, r.n_pm]
        for r in (
            simulate_counts(probs, 100.0, 1.0, 1, SeedSpec(4, s), True)
            for s in range(n)
        )
    ])
    se = np.sqrt(expect / 1.0 / n)  # Poisson variance = mean counts
    assert np.all(np.abs(rates.mean(axis=0) - expect) < 3 * se)


def test_visibility_values():
    assert visibility(CountRecord(100.0, 100.0, 100.0, 8.0, 4)) == 0.0
    rec = simulate_counts(
        detection_probabilities(build_state(0.927, 1.0)), 250.0, shot_noise=False
    )
    assert visibility(rec) == pytest.approx(0.927, abs=1e-12)
    rec2 = simulate_counts(
        detection_probabilities(build_state(1.0, np.cos(4 * np.pi / 4) + 0j)),
        250.0, shot_noise=False,
    )
    assert visibility(rec2) == pytest.approx(1.0, abs=1e-12)


def test_visibility_zero_counts():
    with pytest.raises(ValueError):
        visibility(CountRecord(0.0, 0.0, 1.0, 8.0, 1))


def test_visibility_scale_invariant():
    for scale in (0.1, 10.0):
        a = simulate_counts((0.4, 0.1), 250.0, shot_noise=False)
        b = simulate_counts((0.4, 0.1), 250.0 * scale, shot_noise=False)
        assert visibility(a) == pytest.approx(visibility(b), rel=1e-12)


def test_rect_pattern():
    r = rect_phase_pattern(20, 5)
    assert np.allclose(r[:5], np.pi / 4)
    assert np.allclose(r[5:10], -np.pi / 4)
    assert np.allclose(r[10:15], np.pi / 4)


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n_r", [1, 5, 7])
@pytest.mark.parametrize("w_cp", [0.5, 3.1, 10.0])
@pytest.mark.parametrize(
    "geo, w_p",
    # centred beam; off-centre reference pixels with a beam wide enough
    # that the edge shifts keep real weight on the mask
    [(GEO, 20.0), (MaskGeometry(j0=40.5, k0=600.0), 120.0)],
)
def test_pattern_contraction_matches_pixel_sum(n_r, w_cp, geo, w_p):
    # Re Gamma(h) from one contraction a = z^T W per kernel equals the
    # literal pixel sum with half 2 shifted by h, at every shift.
    k = build_kernel(KernelParams(w_cp, w_p, 2, geo))
    pattern = rect_phase_pattern(320, n_r)[:, None]
    h = np.array([-319, -200, -37, -10, -3, -1, 0, 1, 2, 5, 9, 41, 160, 319])
    want = np.array([phasor_sum(k, pattern, pattern, int(d))[0].real for d in h])
    assert np.allclose(_pattern_coherence(k, n_r, h), want, rtol=0.0, atol=1e-13)
    for d in (320, -320):
        with pytest.raises(ValueError, match=f"shift delta={d} moves every pixel off"):
            _pattern_coherence(k, n_r, np.array([0, d]))


def test_calibration_narrow_kernel_maximal_contrast():
    # w_cp -> 0: the pattern survives unblurred, V(h) swings between ~0 and
    # ~p, and the contrast approaches the maximum the triangle overlap
    # allows under a period-10 sine fit.
    res = calibrate_wcp(KernelParams(0.2, 20.0, 2, GEO), shot_noise=False)
    assert res.vis_of_v > 0.8
    assert np.min(res.v_of_h) < 0.05
    assert np.max(res.v_of_h) > 0.9 * 0.927


def test_calibration_wide_kernel_no_contrast():
    # w_cp >> n_r: the kernel averages the pattern away, with or without
    # shot noise below every contrast the [0.5, 10] px calibration curve
    # reaches, so no width is returned (not the curve's end, 10.0 +- 0.3).
    for true_w, shot_noise in ((25.0, False), (14.0, False), (20.0, True), (30.0, True)):
        with pytest.raises(NumericalError, match=r"w_cp in \[0.5, 10\]") as err:
            calibrate_wcp(KernelParams(true_w, 20.0, 2, GEO), shot_noise=shot_noise,
                          seed=SeedSpec(12345))
        assert float(re.search(r"measured contrast (\S+)", str(err.value))[1]) < 0.02


def test_calibration_refuses_contrast_in_shot_noise():
    # True widths of 10-14 px leave a contrast of 2.7-4.9 sigma, inside the
    # curve's range, whose inversion reads ~8.6 px off the noise floor
    # (e.g. 8.67 +- 1.39 for a true 14 at seed 12345).
    for true_w, seed in ((14.0, 12345), (12.0, 0), (10.0, 12345), (10.0, 0), (10.0, 1)):
        with pytest.raises(NumericalError, match="not resolved above the shot noise") as err:
            calibrate_wcp(KernelParams(true_w, 20.0, 2, GEO), seed=SeedSpec(seed))
        assert float(re.search(r"\((\S+) sigma\)", str(err.value))[1]) < 5.0


def test_calibration_resolved_contrast_with_shot_noise():
    # Contrasts of >= 10.8 sigma still return the width within 3 sigma.
    for true_w in (3.1, 6.0, 8.0):
        for seed in (12345, 0, 1):
            res = calibrate_wcp(KernelParams(true_w, 20.0, 2, GEO), seed=SeedSpec(seed))
            assert res.vis_of_v >= 10.0 * res.vis_uncertainty
            assert abs(res.w_cp_estimate - true_w) < 3.0 * res.w_cp_uncertainty


def test_calibration_round_trip():
    for true_w in (1.0, 2.0, 3.0, 5.0, 8.0):
        res = calibrate_wcp(KernelParams(true_w, 20.0, 2, GEO), shot_noise=False)
        assert abs(res.w_cp_estimate - true_w) < max(0.5, 0.15 * true_w)


def test_calibration_protocol_metadata():
    res = calibrate_wcp(
        KernelParams(3.1, 20.0, 2, GEO), shot_noise=True, seed=SeedSpec(99)
    )
    assert np.array_equal(res.h_values, np.arange(-10, 10))
    assert 0.0 <= res.vis_of_v <= 1.0
    assert res.w_cp_uncertainty > 0.0


def test_calibration_deterministic_given_seed():
    a = calibrate_wcp(KernelParams(3.1, 20.0, 2, GEO), seed=SeedSpec(5))
    b = calibrate_wcp(KernelParams(3.1, 20.0, 2, GEO), seed=SeedSpec(5))
    assert np.array_equal(a.v_of_h, b.v_of_h)
    assert a.w_cp_estimate == b.w_cp_estimate
