"""Detection, coincidence counting and the correlated-pixel calibration."""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (TwoQubitState, build_state, concurrence, dense_pattern_coherence,
                     projections)
from test_contract import refusal_tests

from ltgsim import measurement
from ltgsim.measurement import (
    _CURVE_RANGE,
    _CURVE_SAMPLES,
    _pattern_coherence,
    calibrate_wcp,
    detection_probabilities,
    rect_phase_pattern,
    simulate_counts,
    visibility,
)
from ltgsim.optics import NumericalError
from ltgsim.rtn import SeedSpec
from ltgsim.slm import KernelParams, MaskGeometry, build_kernel, phasor_sum

GEO = MaskGeometry()

globals().update(refusal_tests(__name__))  # the refusal cases: test_contract's table

# Admissible (p, Gamma) pairs: purity in [0, 1], coherence inside the unit
# disk (drawn as magnitude and angle to keep the support exact).
p_vals = st.floats(0.0, 1.0)
gammas = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 2.0 * np.pi)).map(
    lambda mp: mp[0] * np.exp(1j * mp[1])
)


def expected_rates(p, re_gamma, n0=250.0):
    # N++ and N+- without shot noise: 4 * n0 * (p++, p+-).
    return tuple(4.0 * n0 * np.array(detection_probabilities(p, re_gamma)))


# ---------------------------------------------------------------------------
# state oracle (tests/oracles.py) and detection
# ---------------------------------------------------------------------------


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
    # The density-matrix projections onto |++> and |+-> are the closed form
    # the package computes.
    state = build_state(p, g)
    rho = state.rho
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-14
    assert abs(np.trace(rho).real - 1.0) < 1e-14
    assert np.linalg.eigvalsh(rho).min() > -1e-12
    assert abs(concurrence(state) - p * abs(g)) < 1e-10
    p_pp, p_pm = projections(state)
    want_pp, want_pm = detection_probabilities(p, g.real)
    assert abs(p_pp - want_pp) < 1e-12
    assert abs(p_pm - want_pm) < 1e-12


def test_detection_bell():
    assert detection_probabilities(1.0, 1.0) == pytest.approx((0.5, 0.0))
    assert detection_probabilities(1.0, -1.0) == (0.0, 0.5)  # |Re Gamma| = 1 is a coherence
    assert projections(build_state(1.0, 1.0)) == pytest.approx((0.5, 0.0))


def test_detection_dephased():
    assert detection_probabilities(0.7, 0.0) == pytest.approx((0.25, 0.25))


def test_detection_frozen_values():
    # direct arithmetic: p = 0.927, Gamma = -1
    p_pp, p_pm = detection_probabilities(0.927, -1.0)
    assert p_pp == pytest.approx(0.018250, abs=1e-12)
    assert p_pm == pytest.approx(0.481750, abs=1e-12)


@given(p_vals, st.floats(-1.0, 1.0), st.sampled_from([1.0, 250.0, 1e6]))
@settings(max_examples=300, deadline=None)
def test_visibility_of_expected_rates_is_closed_form(p, re_gamma, n0):
    # V of the noise-free rates 4 * n0 * (p++, p+-) is p |Re Gamma|.
    assert abs(visibility(*expected_rates(p, re_gamma, n0)) - p * abs(re_gamma)) < 1e-12


# ---------------------------------------------------------------------------
# counts and visibility
# ---------------------------------------------------------------------------


def test_counts_noise_free():
    # The noise-free limit: over a long acquisition the Poisson rates sit
    # on the expected 4 * n0 * prob (relative spread ~3e-8 here).
    n_pp, n_pm = simulate_counts((0.25, 0.0), n0=250.0, acquisition_s=1e12)
    assert n_pp == pytest.approx(250.0, rel=1e-6)
    assert n_pm == 0.0
    simulate_counts((0.25, 0.25), 250.0, 2e15)  # the counts ceiling itself is allowed


def test_counts_poisson_oracle():
    # Mean of many noisy acquisitions sits on the expectation (3 sigma).
    probs = detection_probabilities(0.9, 0.4)
    expect = 4 * 100.0 * np.array(probs)
    n = 10_000
    rates = np.array([simulate_counts(probs, 100.0, 1.0, 1, SeedSpec(4, s)) for s in range(n)])
    se = np.sqrt(expect / 1.0 / n)  # Poisson variance = mean counts
    assert np.all(np.abs(rates.mean(axis=0) - expect) < 3 * se)


def test_visibility_values():
    assert visibility(100.0, 100.0) == 0.0
    assert visibility(*expected_rates(0.927, 1.0)) == pytest.approx(0.927, abs=1e-12)
    assert visibility(*expected_rates(1.0, np.cos(4 * np.pi / 4))) == pytest.approx(1.0, abs=1e-12)


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
    # Re Gamma(h) from the kernel's factors, with no weight matrix formed,
    # equals the literal pixel sum with half 2 shifted by h, at every shift,
    # for both super-Gaussian orders.
    pattern = rect_phase_pattern(320, n_r)[:, None]
    h = np.array([-319, -200, -37, -10, -3, -1, 0, 1, 2, 5, 9, 41, 160, 319])
    for n in (2, 4):
        kp = KernelParams(w_cp, w_p, n, geo)
        k = build_kernel(kp)
        want = np.array([phasor_sum(k, pattern, pattern, int(d))[0].real for d in h])
        assert np.allclose(_pattern_coherence(kp, [w_cp], n_r, h)[0], want, rtol=0.0, atol=1e-13)
        for d in (320, -320):
            with pytest.raises(ValueError, match=f"shift delta={d} moves every pixel off"):
                calibrate_wcp(kp, n_r=n_r, h_values=np.array([0, d]), shot_noise=False)


# Bound on the move of Re Gamma(h) by the diagonals the banded pattern
# contraction leaves out (2^-70), plus rounding.
_BAND_ATOL = 2.0**-70 + 1e-15


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize(
    "w_cp, w_p, geo",
    # the figS-calibration kernels, the wide kernel, the off-centre geometry
    [(3.1, 20.0, GEO), (20.0, 200.0, GEO), (3.1, 120.0, MaskGeometry(j0=40.5, k0=600.0))],
)
def test_banded_pattern_contraction_matches_dense(n, w_cp, w_p, geo):
    # The measured kernel and the 20 curve widths, contracted over the band
    # of diagonals that carry weight, match the dense Toeplitz route within
    # the stated bound at every shift.
    kp = KernelParams(w_cp, w_p, n, geo)
    widths = [w_cp, *np.linspace(*_CURVE_RANGE, _CURVE_SAMPLES).tolist()]
    h = np.array([-319, -160, -37, -10, -3, -1, 0, 1, 2, 5, 9, 41, 200, 319])
    for n_r in (1, 5):
        got = _pattern_coherence(kp, widths, n_r, h)
        np.testing.assert_allclose(got, dense_pattern_coherence(kp, widths, n_r, h),
                                   rtol=0.0, atol=_BAND_ATOL)


def test_calibration_refuses_kernel_without_support():
    # Half-pixel offsets and w_cp = 1e-3 px underflow every correlation value.
    kp = KernelParams(1e-3, 20.0, 2, MaskGeometry(j0=160.5))
    with pytest.raises(NumericalError) as built:
        build_kernel(kp)
    with pytest.raises(NumericalError) as calibrated:
        calibrate_wcp(kp, shot_noise=False)
    assert str(calibrated.value) == str(built.value) == "kernel has no support on the mask"


def test_calibration_narrow_kernel_maximal_contrast():
    # w_cp -> 0: the pattern survives unblurred, V(h) swings between ~0 and
    # ~p, and the contrast approaches the maximum the triangle overlap
    # allows under a period-10 sine fit.
    res = calibrate_wcp(KernelParams(0.2, 20.0, 2, GEO), shot_noise=False)
    assert res.vis_of_v > 0.8
    assert np.min(res.v_of_h) < 0.05
    assert np.max(res.v_of_h) > 0.9 * 0.927


def test_calibration_wide_kernel_no_contrast():
    # w_cp >> n_r: the kernel averages the pattern away below every contrast
    # the [0.5, 10] px calibration curve reaches, so no width is returned
    # (not the curve's end, 10.0 +- 0.3).  With shot noise such widths are
    # refused for the noise first (test_calibration_refuses_contrast_in_shot_noise).
    for true_w in (25.0, 14.0):
        with pytest.raises(NumericalError, match=r"w_cp in \[0.5, 10\]") as err:
            calibrate_wcp(KernelParams(true_w, 20.0, 2, GEO), shot_noise=False)
        assert float(re.search(r"measured contrast (\S+)", str(err.value))[1]) < 0.02


def test_calibration_refuses_contrast_in_shot_noise():
    # True widths of 10-14 px leave a contrast of 2.7-4.9 sigma, inside the
    # curve's range, whose inversion reads ~8.6 px off the noise floor
    # (e.g. 8.67 +- 1.39 for a true 14 at seed 12345).  At 16-30 px the
    # contrast (0.9-1.9 sigma) falls below the curve's range too; the noise,
    # not the range, is named as the cause.
    for true_w, seed in ((14.0, 12345), (12.0, 0), (10.0, 12345), (10.0, 0), (10.0, 1),
                         (16.0, 3), (20.0, 0), (20.0, 12345), (30.0, 12345)):
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
    assert res.h_values.dtype.kind == "i" and np.array_equal(res.h_values, np.arange(-10, 10))
    assert 0.0 <= res.vis_of_v <= 1.0
    assert res.w_cp_uncertainty > 0.0


@pytest.mark.parametrize("n_r, h, rtol", [(160, np.arange(4), 1e-9), (5, np.arange(-10, 10), 1e-13)],
                         ids=["clustered", "preset"])
def test_least_squares_matches_lapack(n_r, h, rtol):
    # Four shifts over 3/320 of the pattern period leave the sine basis with
    # condition number ~1e4: the QR solve stays within rounding of LAPACK's
    # SVD solve there (~3e-13), where the normal equations drift ~3e-9.
    phase = np.pi * h / n_r
    basis = np.stack([np.ones(h.size), np.cos(phase), np.sin(phase)])
    rng = np.random.default_rng(7)
    rhs = 0.4 + 0.2 * np.cos(phase) - 0.1 * np.sin(phase) + 0.01 * rng.standard_normal((21, h.size))
    coef, resid = measurement._least_squares(basis, rhs)
    want = np.linalg.lstsq(basis.T, rhs.T, rcond=None)[0].T
    assert np.max(np.abs(coef - want)) <= rtol * np.max(np.abs(want))
    np.testing.assert_allclose(resid, rhs - np.einsum("rk,km->rm", want, basis), rtol=0,
                               atol=rtol * np.max(np.abs(rhs)))


def test_calibration_cubic_matches_polynomial_fit():
    # The cubic and its slope, by QR and Horner in the mapped width, against
    # numpy's Polynomial.fit on the same contrast curve.
    res = calibrate_wcp(KernelParams(3.1, 20.0, 2, GEO), shot_noise=False)
    t = measurement._to_window(res.curve_w)
    coef, _ = measurement._least_squares(np.stack([t**0, t, t * t, t * t * t]), res.curve_vis[None, :])
    want = np.polynomial.Polynomial.fit(res.curve_w, res.curve_vis, deg=3)
    grid = np.linspace(*_CURVE_RANGE, 400)
    value, slope = measurement._cubic(coef[0], grid)
    np.testing.assert_allclose(value, want(grid), rtol=1e-13, atol=0)
    np.testing.assert_allclose(slope, want.deriv()(grid), rtol=1e-12, atol=1e-15)


def test_least_squares_refuses_a_dependent_basis():
    with pytest.raises(NumericalError, match="rank-deficient"):
        measurement._least_squares(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]), np.ones((1, 3)))
