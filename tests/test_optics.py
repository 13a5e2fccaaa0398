"""Down-conversion spatial-correlation model and width pipeline."""
import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from ltgsim import optics
from ltgsim.cli import main, resolve_config
from ltgsim.optics import (
    JointSpatialProfile,
    NumericalError,
    PdcSetup,
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


def point_slice_fit(prof: JointSpatialProfile) -> tuple[float, int]:
    """estimate_wcp_tilde without the pixel average: the same guess, extent
    and fits, on the point slice F(dx1, 0)."""
    mid = int(np.argmin(np.abs(prof.axis_px)))
    guess = 2.0 * np.sqrt(max(optics._second_moment(prof.axis_px, prof.column(mid)), 0.01))
    extent = max(6.0 * guess, 4.0)
    x = np.linspace(-extent, extent, 401)
    y = prof.evaluate(x, [0.0])[:, 0]
    w2, r2 = optics.curve_fit(x, y, 2, guess)
    w4, r4 = optics.curve_fit(x, y, 4, guess)
    return (w2, 2) if r2 <= r4 else (w4, 4)


def calibrate_theta0(target_wp_px: float = 20.0, bracket=(0.008, 0.12)) -> float:
    """Central angle at which the default setup's fitted beam width is the
    target, by bisection: the beam width is the only stated observable that
    constrains theta_0 * crystal_length."""

    def mismatch(theta):
        return estimate_wp(joint_profile(PdcSetup(theta_0=theta))) - target_wp_px

    lo, hi = bracket
    below = mismatch(lo) < 0
    assert below != (mismatch(hi) < 0), "the bracket does not enclose the target beam width"
    while hi - lo > 1e-7:  # bisection to the angle tolerance
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if (mismatch(mid) < 0) == below else (lo, mid)
    return 0.5 * (lo + hi)


# Centre, along the diagonal out to the beam edge, and across it into the
# conditional tail, where F falls to 1e-11 (100 nm) ... 1e-198 (1 nm) of
# its peak without underflowing.
ORACLE_POINTS = [(0.0, 0.0), (-12.0, -10.5), (30.0, 30.0), (-45.0, -44.0),
                 (3.0, -2.5), (8.0, 0.0), (-5.0, 5.0), (10.0, -3.0)]


def test_closed_form_matches_quad_oracle():
    for width_nm in (1.0, 15.0, 100.0):
        setup = dataclasses.replace(SETUP, spectral_width_nm=width_nm)
        prof = joint_profile(setup)
        for x1, x2 in ORACLE_POINTS:
            want = quad_F(setup, x1, x2)
            got = prof.evaluate(np.array([x1]), np.array([x2]))[0, 0]
            assert want > 0.0
            assert got == pytest.approx(want, rel=1e-9, abs=0.0), (width_nm, x1, x2)


def test_separable_grid_matches_pointwise_evaluation():
    # joint_profile lays the two factors out as Hankel x Toeplitz matrices;
    # evaluate forms x1 + x2 and x1 - x2 on the product grid directly.
    for width_nm in (1.0, 15.0, 100.0):
        prof = joint_profile(dataclasses.replace(SETUP, spectral_width_nm=width_nm))
        direct = prof.evaluate(prof.axis_px, prof.axis_px)
        assert np.max(np.abs(prof.F - direct)) <= 1e-14 * prof.F.max(), width_nm


def test_profile_symmetry():
    x = np.linspace(-30, 30, 41)
    F = joint_profile(SETUP).evaluate(x, x)
    assert np.max(np.abs(F - F.T)) / F.max() < 1e-9


def test_vanishing_window_is_pump_limited():
    # Spectrum width -> 0: the conditional width is set by the pump
    # transform alone, i.e. the floor value.
    s = dataclasses.replace(SETUP, spectral_width_nm=0.0)
    w, order = point_slice_fit(joint_profile(s))
    assert order == 2
    assert w == pytest.approx(FLOOR_PX, rel=1e-3)


def test_estimate_wp_defaults():
    prof = joint_profile(SETUP)
    assert estimate_wp(prof) == pytest.approx(20.0, abs=3.0)


def grid_sums_diffs(x):
    """The 2n - 1 sums x1 + x2 and differences x1 - x2 of a uniform axis, in
    the order JointSpatialProfile holds its factors."""
    return (np.concatenate([x[0] + x[:-1], x + x[-1]]),
            np.concatenate([x[-1] - x[:-1], x[0] - x]))


def gaussian_profile() -> JointSpatialProfile:
    """A separable Gaussian of width 10: exp(-2 x1^2 / w^2) exp(-2 x2^2 / w^2)
    = exp(-s^2 / w^2) exp(-d^2 / w^2) for s = x1 + x2, d = x1 - x2."""
    x = np.linspace(-40, 40, 401)
    s, d = grid_sums_diffs(x)
    return JointSpatialProfile(np.exp(-(s**2) / 10.0**2), np.exp(-(d**2) / 10.0**2), x, SETUP)


def test_estimate_wp_recovers_synthetic_gaussian():
    assert estimate_wp(gaussian_profile()) == pytest.approx(10.0, abs=1e-6)


@pytest.mark.parametrize("asymmetric", [False, True])
def test_factored_profile_matches_materialised_matrix(asymmetric):
    # marginal() and column() read the factors only; they must equal the
    # trapezoid and the columns of F formed element by element, also when W
    # is not even in x1 - x2 (a skewed, offset Gaussian difference factor).
    x = np.linspace(-6.0, 6.0, 49)
    s, d = grid_sums_diffs(x)
    sum_factor = np.exp(-(s**2) / 30.0)
    diff_factor = np.exp(-((d - 1.3) ** 2) / 2.0) * (1.0 + 0.5 * np.tanh(d)) if asymmetric \
        else np.exp(-(d**2) / 2.0)
    prof = JointSpatialProfile(sum_factor, diff_factor, x, SETUP)
    n = x.size
    F = np.array([[sum_factor[i + j] * diff_factor[j - i + n - 1] for j in range(n)]
                  for i in range(n)])
    if asymmetric:
        assert not np.allclose(F, F.T)
    assert np.array_equal(prof.F, F)
    for j in range(n):
        assert np.array_equal(prof.column(j), F[:, j]), j
    h = x[1] - x[0]
    trapezoid = h * (F.sum(axis=1) - 0.5 * (F[:, 0] + F[:, -1]))
    np.testing.assert_allclose(prof.marginal(), trapezoid, rtol=1e-14, atol=0.0)


def test_negative_profile_factor_is_refused():
    x = np.linspace(-1.0, 1.0, 5)
    with pytest.raises(ValueError, match="non-negative"):
        JointSpatialProfile(np.ones(9), np.r_[np.ones(8), -1e-300], x, SETUP)
    with pytest.raises(ValueError, match="non-negative"):
        JointSpatialProfile(np.r_[-1.0, np.ones(8)], np.ones(9), x, SETUP)


def test_width_pipeline_never_forms_the_matrix(tmp_path, monkeypatch):
    # The width fits read F's factors only: with the n x n matrix refused, the
    # width table and the spectral sweep still run.
    def refuse(self):
        raise AssertionError("the width pipeline formed the joint-profile matrix")

    monkeypatch.setattr(JointSpatialProfile, "F", property(refuse))
    wcp_curve(SETUP, [0.0, 1.0, 15.0, 40.0, 100.0])
    assert main(["--preset", "fig4-right", "--out", str(tmp_path / "spectral")]) == 0
    config = tmp_path / "table.json"
    config.write_text('{"command": "optics-table", "optics": {"widths_nm": [2.5, 60.0]}}')
    assert main(["--config", str(config), "--out", str(tmp_path / "table")]) == 0


# Dense grid over [-30, 30], with both sides of Cody's range edges 0.46875
# and 4 resolved and the band 26.5-27.3 where math.erfc turns subnormal and
# then 0.
ERFC_GRID = np.unique(np.concatenate([
    np.linspace(-30.0, 30.0, 120001),
    np.linspace(-0.48, -0.46, 2001), np.linspace(0.46, 0.48, 2001),
    np.linspace(-4.01, -3.99, 2001), np.linspace(3.99, 4.01, 2001),
    np.linspace(26.5, 27.3, 16001),
    [np.nextafter(0.46875, 0.0), 0.46875, np.nextafter(0.46875, 1.0),
     np.nextafter(4.0, 0.0), 4.0, np.nextafter(4.0, 5.0), -0.46875, -4.0],
]))


def test_vectorised_erfc_matches_math_erfc():
    # Bounds fixed before measuring: 8 ulp where math.erfc is a normal
    # number, 1e-322 absolute (about 20 steps of 4.9e-324) in the subnormal tail.
    got = optics._erfc(ERFC_GRID)
    want = np.array([math.erfc(v) for v in ERFC_GRID])
    normal = want >= np.finfo(float).tiny
    assert np.count_nonzero(~normal & (want > 0.0)) > 100  # the tail is sampled
    ulps = np.abs(got - want)[normal] / np.spacing(want[normal])
    assert ulps.max() <= 8.0, ERFC_GRID[normal][np.argmax(ulps)]
    assert np.abs(got - want)[~normal].max() <= 1e-322
    assert np.all(got[ERFC_GRID < -6.0] == 2.0)
    edge = optics._erfc(np.array([np.inf, -np.inf, np.nan, 0.0, -0.0]))
    assert edge[:2].tolist() == [0.0, 2.0] and np.isnan(edge[2]) and edge[3:].tolist() == [1.0, 1.0]


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
    w_on, _ = estimate_wcp_tilde(prof)
    w_off, _ = point_slice_fit(prof)
    assert abs(w_on - w_off) / w_off < 0.02


def test_pixel_rule_is_leggauss_halved_exact_and_read_only():
    # The constant rule holds the bits numpy's leggauss(9) gives, halved, on
    # this build; it is exact for polynomials of degree <= 17 over one pixel.
    nodes, weights = np.polynomial.legendre.leggauss(9)
    assert optics._PIXEL_NODES.tobytes() == (nodes * 0.5).tobytes()
    assert optics._PIXEL_WEIGHTS.tobytes() == (weights * 0.5).tobytes()
    x, w = optics._PIXEL_NODES.tolist(), optics._PIXEL_WEIGHTS.tolist()
    for k in range(18):
        exact = 0.0 if k % 2 else 0.5**k / (k + 1)  # integral of x^k over [-1/2, 1/2]
        assert abs(math.fsum(wi * xi**k for wi, xi in zip(w, x)) - exact) <= 1e-16, k
    for table in (optics._PIXEL_NODES, optics._PIXEL_WEIGHTS):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.0


def test_pixel_integration_width_stable_wide_window():
    # Same claim, in the regime where the artifact's widths support it.
    s40 = dataclasses.replace(SETUP, spectral_width_nm=40.0)
    prof = joint_profile(s40)
    w_on, _ = estimate_wcp_tilde(prof)
    w_off, _ = point_slice_fit(prof)
    assert abs(w_on - w_off) / w_off < 0.02


def test_pump_floor_value():
    assert pump_floor_px(SETUP) == pytest.approx(FLOOR_PX, abs=1e-12)


def test_combined_width_floor():
    assert combined_wcp(SETUP, 0.0) == pytest.approx(FLOOR_PX, abs=1e-12)
    assert combined_wcp(SETUP, 3.0) == pytest.approx(np.hypot(3.0, FLOOR_PX), abs=1e-12)


def test_scaling_leaves_widths_unchanged():
    prof = joint_profile(SETUP)
    scaled = JointSpatialProfile(7.3 * prof.sum_factor, prof.diff_factor, prof.axis_px, prof.setup)
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


@pytest.mark.filterwarnings("ignore::scipy.optimize.OptimizeWarning")
def test_fits_reach_scipy_residual(monkeypatch):
    # Every fit of the width pipeline (w_p, then the n = 2 and n = 4
    # conditional fits) ends at a residual no larger than scipy's
    # curve_fit reaches from the same start on the same data.
    from scipy.optimize import curve_fit as scipy_fit

    calls, own_fit = [], optics.curve_fit

    def recorded(x, y, order, width_guess):
        width, resid = own_fit(x, y, order, width_guess)
        calls.append((x, y / y.max(), order, width_guess, resid))
        return width, resid

    monkeypatch.setattr(optics, "curve_fit", recorded)
    wcp_curve(SETUP, [15.0, 30.0, 60.0, 100.0])
    assert [c[2] for c in calls] == [2, 2, 4] * 4
    for x, y, order, guess, resid in calls:
        def model(xx, a, c, w):
            return a * np.exp(-2.0 * np.abs(xx - c) ** order / w**order)

        popt, _ = scipy_fit(model, x, y, p0=[1.0, 0.0, guess], maxfev=20000)
        assert resid <= np.sum((y - model(x, *popt)) ** 2) * (1 + 1e-9), (order, guess)


@pytest.mark.parametrize("order", [2, 4])
def test_newton_terms_match_finite_differences(order):
    # Gradient and Hessian of half the residual sum against central
    # differences of the residual sum alone, at a point with large,
    # asymmetric residuals and with u = (x - c) / w = 0 on the grid.
    x = np.arange(-60, 61) * 0.25
    y = np.exp(-np.abs(x - 0.3)) + 0.2 * (x > 2.0)
    p0 = np.array([0.8, 1.25, 3.0])

    def half_cost(p):
        a, c, w = p
        return 0.5 * np.sum((y - a * np.exp(-2.0 * ((x - c) / w) ** order)) ** 2)

    a, c, w = p0
    u = (x - c) / w
    rows = np.empty((2 * order + 2, x.size))  # r, e, then scratch
    rows[1] = np.exp(-2.0 * u**order)
    rows[0] = y - a * rows[1]
    _, grad, hess = optics._newton_terms(u, rows, a, w, order)
    h, eye = 1e-4, np.eye(3)
    fd_grad = [(half_cost(p0 + h * d) - half_cost(p0 - h * d)) / (2 * h) for d in eye]
    fd_hess = [[(half_cost(p0 + h * (di + dj)) - half_cost(p0 + h * (di - dj))
                 - half_cost(p0 - h * (di - dj)) + half_cost(p0 - h * (di + dj))) / (4 * h * h)
                for dj in eye] for di in eye]
    assert np.allclose(-np.array(grad), fd_grad, rtol=1e-6, atol=1e-8)
    assert np.allclose(hess, fd_hess, rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("guess", [2.0, 8.0, 12.0])
def test_fit_recovers_off_centre_profile(order, guess):
    # Noise-free data off the origin, so the fit has to move c: the centre
    # rows of the exact Hessian are exercised, which symmetric profiles
    # never reach.  A zero residual pins a and c along with the width.
    x = np.linspace(-20.0, 20.0, 401)
    y = 0.7 * np.exp(-2.0 * np.abs(x - 1.3) ** order / 4.0**order)
    width, resid = optics.curve_fit(x, y, order, guess)
    assert width == pytest.approx(4.0, abs=1e-8)
    assert resid < 1e-12


def test_fit_rejects_unsupported_order():
    x = np.linspace(-10.0, 10.0, 81)
    with pytest.raises(ValueError, match="order 2 or 4"):
        optics.curve_fit(x, np.exp(-np.abs(x) ** 3), 3, 3.0)


def table_widths():
    """The spectral widths of the fig4-right and optics-table width tables."""
    from ltgsim.cli import PRESETS

    widths = set(PRESETS["fig4-right"]["spectral"]["widths_nm"])
    return sorted(widths | set(resolve_config({"command": "optics-table"})["optics"]["widths_nm"]))


def test_width_fits_converge_in_few_steps(monkeypatch):
    # Newton steps on the exact Hessian: every fit of the presets' width
    # tables and of the angle calibration converges well inside 20
    # residual evaluations (Gauss-Newton needed up to 50).
    monkeypatch.setattr(optics, "_FIT_MAX_STEPS", 20)
    wcp_curve(SETUP, table_widths())
    calibrate_theta0()


def test_beam_fits_converge_in_five_evaluations(monkeypatch):
    # From the half-maximum start the w_p fit of every table width converges
    # within 5 residual evaluations (the second-moment start took 8-9).
    monkeypatch.setattr(optics, "_FIT_MAX_STEPS", 5)
    for width_nm in table_widths():
        estimate_wp(joint_profile(dataclasses.replace(SETUP, spectral_width_nm=width_nm)))


def second_moment_fit(prof: JointSpatialProfile) -> float:
    """The w_p fit from 2 sqrt(second moment) of the marginal."""
    x, marg = prof.axis_px, prof.marginal()
    guess = 2.0 * np.sqrt(max(optics._second_moment(x, marg), 1e-6))
    return optics.curve_fit(x, marg, 2, guess)[0]


def test_half_maximum_start_keeps_the_beam_width():
    # The start moves w_p by at most 1e-8 relative: on every table width, on
    # a marginal that stays above half its maximum to the grid's edge (the
    # second-moment fallback, the same fit), and on a separable Gaussian.
    profiles = [joint_profile(dataclasses.replace(SETUP, spectral_width_nm=w))
                for w in table_widths()]
    wide = joint_profile(dataclasses.replace(SETUP, theta_0=0.12, spectral_width_nm=120.0))
    marg = wide.marginal()
    assert marg[0] >= 0.5 * marg.max() or marg[-1] >= 0.5 * marg.max()
    for prof in (*profiles, wide, gaussian_profile()):
        assert estimate_wp(prof) == pytest.approx(second_moment_fit(prof), rel=1e-8, abs=0.0)
    assert estimate_wp(wide) == second_moment_fit(wide)


def test_singular_fit_is_a_numerical_error():
    # Every sample at the centre: the centre and width columns of the
    # Hessian vanish, and the solve meets a zero pivot.
    with pytest.raises(NumericalError, match="order-2 profile fit is singular"):
        optics.curve_fit(np.zeros(5), np.ones(5), 2, 3.0)
    with pytest.raises(ZeroDivisionError):
        optics._damped_solve(((1.0, 2.0, 0.0), (2.0, 4.0, 0.0), (0.0, 0.0, 1.0)),
                             (0.0, 0.0, 0.0), 0.0, (1.0, 1.0, 1.0))


def test_fit_keeps_a_step_that_ties_the_cost(monkeypatch):
    # Far in the tail the model underflows to 0, so every trial's cost is
    # the same bits; a step that does not raise the cost is kept, so a
    # last-bit tie cannot decide how many evaluations a fit takes.
    steps = iter([(0.0, 0.0, 0.5), (0.0, 0.0, 0.0)])
    monkeypatch.setattr(optics, "_damped_solve", lambda *args: next(steps))
    assert optics.curve_fit(np.linspace(1e3, 1e3 + 10.0, 11), np.ones(11), 2, 1.0) == (1.5, 11.0)


def test_damped_solve_matches_lapack():
    rng = np.random.default_rng(7)
    for _ in range(200):
        hess = rng.standard_normal((3, 3))
        damping, rhs, lam = rng.random(3), rng.standard_normal(3), 10.0 ** rng.integers(-4, 2)
        want = np.linalg.solve(hess + lam * np.diag(damping), rhs)
        got = optics._damped_solve(hess.tolist(), damping.tolist(), lam, rhs.tolist())
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


def test_degenerate_fit_is_a_numerical_error(tmp_path, capsys, monkeypatch):
    x = np.linspace(-10.0, 10.0, 81)
    y = np.exp(-2.0 * x**2 / 9.0)
    y[40] = np.nan
    for order in (2, 4):
        with pytest.raises(NumericalError, match="non-finite"):
            optics.curve_fit(x, y, order, 3.0)
    with pytest.raises(NumericalError, match="no positive samples"):
        optics.curve_fit(x, np.zeros_like(x), 2, 3.0)
    # through the command line: a profile with non-finite samples ends in
    # one line and exit 2, with no output written
    factors = optics._f_samples
    monkeypatch.setattr(optics, "_f_samples", lambda *a: [f * np.nan for f in factors(*a)])
    assert main(["--preset", "fig4-right", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("numerical error: order-2 profile fit")
    assert not (tmp_path / "out").exists()


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
    theta = calibrate_theta0()
    assert theta == pytest.approx(optics.THETA0_CALIBRATED, abs=2e-5)


def test_out_of_model_range_rejected():
    with pytest.raises(ValueError):
        wcp_curve(SETUP, [200.0])


@pytest.mark.parametrize("name", ["lambda_pump", "lambda_0", "crystal_length", "pump_waist",
                                  "focal", "theta_0", "pixel_width_d"])
def test_setup_rejects_nan_lengths(name):
    # NaN fails "> 0"; before, it passed "<= 0" and surfaced later as an
    # unrelated cast or fit error.
    with pytest.raises(ValueError, match=f"{name} must be positive"):
        PdcSetup(**{name: float("nan")})


def test_setup_validation():
    with pytest.raises(ValueError):
        PdcSetup(pump_waist=-1.0)
    with pytest.raises(ValueError):
        PdcSetup(spectral_width_nm=-5.0)
