"""Down-conversion spatial-correlation model and width pipeline."""
import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

from ltgsim import optics
from ltgsim.optics import (
    GridSpec,
    JointSpatialProfile,
    PdcSetup,
    calibrate_theta0,
    combined_wcp,
    estimate_wcp_tilde,
    estimate_wp,
    joint_profile,
    pump_floor_px,
    wcp_curve,
)

SETUP = PdcSetup()  # calibrated theta_0, 15 nm window

# Frozen from direct arithmetic: 810e-9 * 0.2 / (pi * 0.6e-3) m in 100-um
# pixels, commonly rounded to "about 1 pixel".
FLOOR_PX = 0.8594366926962348


def quad_F(setup: PdcSetup, x1_px: float, x2_px: float) -> float:
    """Independent oracle: adaptive quadrature of |A~ * Sinc|^2 over the window."""
    c = optics.C_LIGHT
    th1 = x1_px * setup.pixel_width_d / setup.focal
    th2 = x2_px * setup.pixel_width_d / setup.focal
    wp0 = setup.pump_angular_freq
    dk_par = -wp0 * setup.theta_0 * (th1 + th2) / (2 * c)
    sinc2 = np.sinc(dk_par * setup.crystal_length / 2 / np.pi) ** 2

    def density(omega):
        dk_perp = wp0 * (th1 - th2) / (2 * c) + 2 * setup.theta_0 * omega / c
        return np.exp(-(dk_perp**2) * setup.pump_waist**2 / 2)

    half = setup.window_angular_freq / 2
    value, _ = quad(density, -half, half, epsabs=0.0, epsrel=1e-13, limit=200)
    return sinc2 * value


# Centre, along the diagonal out to the beam edge, and across it into the
# conditional tail, where F falls to 1e-11 (100 nm) ... 1e-198 (1 nm) of
# its peak without underflowing.
ORACLE_POINTS = [(0.0, 0.0), (-12.0, -10.5), (30.0, 30.0), (-45.0, -44.0),
                 (3.0, -2.5), (8.0, 0.0), (-5.0, 5.0), (10.0, -3.0)]


def test_closed_form_matches_quad_oracle():
    for width_nm in (1.0, 15.0, 100.0):
        setup = dataclasses.replace(SETUP, spectral_width_nm=width_nm)
        prof = joint_profile(setup, GridSpec(half_extent_px=64.5, spacing_px=1.61))
        for x1, x2 in ORACLE_POINTS:
            want = quad_F(setup, x1, x2)
            got = prof.evaluate(np.array([x1]), np.array([x2]))[0, 0]
            assert want > 0.0
            assert got == pytest.approx(want, rel=1e-9, abs=0.0), (width_nm, x1, x2)


def test_profile_symmetry():
    x = np.linspace(-30, 30, 41)
    F = joint_profile(SETUP).evaluate(x, x)
    assert np.max(np.abs(F - F.T)) / F.max() < 1e-9


def test_vanishing_window_is_pump_limited():
    # Spectrum width -> 0: the conditional width is set by the pump
    # transform alone, i.e. the floor value.
    s = dataclasses.replace(SETUP, spectral_width_nm=0.0)
    prof = joint_profile(s)
    w, order = estimate_wcp_tilde(prof, pixel_integration=False)
    assert order == 2
    assert w == pytest.approx(FLOOR_PX, rel=1e-3)


def test_estimate_wp_defaults():
    prof = joint_profile(SETUP)
    assert estimate_wp(prof) == pytest.approx(20.0, abs=3.0)


def test_estimate_wp_recovers_synthetic_gaussian():
    x = np.linspace(-40, 40, 401)
    F = np.exp(-2 * x[:, None] ** 2 / 10.0**2) * np.exp(-2 * x[None, :] ** 2 / 10.0**2)
    prof = JointSpatialProfile(F, x, SETUP)
    assert estimate_wp(prof) == pytest.approx(10.0, abs=1e-6)


def test_longer_crystal_narrows_beam():
    s2 = dataclasses.replace(SETUP, crystal_length=2e-3)
    w1 = estimate_wp(joint_profile(SETUP))
    w2 = estimate_wp(joint_profile(s2))
    assert w2 < w1


def test_conditional_order_preference():
    # Narrow window: Gaussian profile preferred; wide window: the
    # quasi-rectangular spectrum makes the order-4 fit win.
    prof15 = joint_profile(SETUP)
    _, n15 = estimate_wcp_tilde(prof15)
    assert n15 == 2
    s40 = dataclasses.replace(SETUP, spectral_width_nm=40.0)
    _, n40 = estimate_wcp_tilde(joint_profile(s40))
    assert n40 == 4


@pytest.mark.xfail(
    strict=True,
    reason="first-order model: at 15 nm the conditional width (~1.7 px) is "
    "narrow enough that one-pixel averaging widens it by ~6-18%, not <2%; "
    "the stability claim only holds for conditional widths well above "
    "one pixel (tested below at a 40 nm window)",
)
def test_pixel_integration_width_stable_at_15nm():
    prof = joint_profile(SETUP)
    w_on, _ = estimate_wcp_tilde(prof, pixel_integration=True)
    w_off, _ = estimate_wcp_tilde(prof, pixel_integration=False)
    assert abs(w_on - w_off) / w_off < 0.02


def test_pixel_integration_width_stable_wide_window():
    # Same claim, in the regime where the artifact's widths support it.
    s40 = dataclasses.replace(SETUP, spectral_width_nm=40.0)
    prof = joint_profile(s40)
    w_on, _ = estimate_wcp_tilde(prof, pixel_integration=True)
    w_off, _ = estimate_wcp_tilde(prof, pixel_integration=False)
    assert abs(w_on - w_off) / w_off < 0.02


def test_pump_floor_value():
    assert pump_floor_px(SETUP) == pytest.approx(FLOOR_PX, abs=1e-12)


def test_combined_width_floor():
    assert combined_wcp(SETUP, 0.0) == pytest.approx(FLOOR_PX, abs=1e-12)
    assert combined_wcp(SETUP, 3.0) == pytest.approx(np.hypot(3.0, FLOOR_PX), abs=1e-12)


def test_scaling_leaves_widths_unchanged():
    prof = joint_profile(SETUP)
    scaled = JointSpatialProfile(7.3 * prof.F, prof.axis_px, prof.setup)
    assert estimate_wp(scaled) == pytest.approx(estimate_wp(prof), rel=1e-9)
    # conditional estimates re-evaluate from the setup, so scale-free by
    # construction; the marginal fit must also be amplitude-free
    w1, _ = estimate_wcp_tilde(prof)
    w2, _ = estimate_wcp_tilde(scaled)
    assert w2 == pytest.approx(w1, rel=1e-9)


def test_wcp_curve_monotone_with_floor():
    table = wcp_curve(SETUP, [1.0, 5.0, 15.0, 25.0, 40.0])
    assert np.all(np.diff(table.w_cp) >= 0.0)
    assert np.all(table.w_cp >= pump_floor_px(SETUP))
    # flat near small widths: the first step is much smaller than the last
    assert table.w_cp[1] - table.w_cp[0] < table.w_cp[-1] - table.w_cp[-2]


def test_wcp_single_row_matches_combined():
    table = wcp_curve(SETUP, [15.0])
    prof = joint_profile(SETUP)
    wt, order = estimate_wcp_tilde(prof)
    assert table.w_cp[0] == pytest.approx(combined_wcp(SETUP, wt), rel=1e-6)
    assert table.order[0] == order


@pytest.mark.filterwarnings("ignore::scipy.optimize.OptimizeWarning")
def test_kernel_conditional_consistent_with_profile():
    # End to end: the mask kernel built from (w_cp, n) at 15 nm has a
    # conditional width within 10% of the profile-derived estimate.
    from scipy.optimize import curve_fit

    from ltgsim.slm import KernelParams, MaskGeometry, build_kernel

    table = wcp_curve(SETUP, [15.0])
    w_cp, order = float(table.w_cp[0]), int(table.order[0])
    geo = MaskGeometry()
    k = build_kernel(KernelParams(w_cp, 20.0, order, geo))
    col = np.argmin(np.abs(geo.offsets2()))
    cond = k.weights[:, col]
    x = geo.offsets1()

    def model(xx, a, c, w):
        return a * np.exp(-2.0 * np.abs(xx - c) ** order / w**order)

    popt, _ = curve_fit(model, x, cond, p0=[cond.max(), 0.0, w_cp])
    assert abs(popt[2]) == pytest.approx(w_cp, rel=0.10)


def test_table_rows_follow_input_order():
    # transition-spectral reads one kernel per row, in config order: each
    # row is computed from its own width, whatever the order or repeats.
    table = wcp_curve(SETUP, [10.0, 15.0])
    again = wcp_curve(SETUP, [15.0, 10.0, 15.0])
    assert again.widths_nm.tolist() == [15.0, 10.0, 15.0]
    for col in ("w_cp", "order", "w_p", "w_tilde"):
        got, want = getattr(again, col), getattr(table, col)
        assert np.array_equal(got, want[[1, 0, 1]]), col


def test_calibration_reproduces_frozen_angle():
    theta = calibrate_theta0(PdcSetup())
    assert theta == pytest.approx(optics.THETA0_CALIBRATED, abs=2e-5)


def test_out_of_model_range_rejected():
    with pytest.raises(ValueError):
        wcp_curve(SETUP, [200.0])


def test_setup_validation():
    with pytest.raises(ValueError):
        PdcSetup(pump_waist=-1.0)
    with pytest.raises(ValueError):
        PdcSetup(spectral_width_nm=-5.0)
