"""Two-photon spatial correlations of the down-conversion source.

The pair state, to first order in angle and frequency shift, factors into
a pump-transform part and a phase-matching part:

    amplitude ~ A~(dk_perp) * Sinc(dk_par * L / 2),
    dk_par  = -w_pump_freq * theta0 * (th1 + th2) / (2c),
    dk_perp =  w_pump_freq * (th1 - th2) / (2c) + 2 * theta0 * w / c,

with w the signal frequency shift from degeneracy, theta0 the central
emission angle and A~ the transform of a Gaussian pump of waist
``pump_waist`` (|A~(k)|^2 = exp(-k^2 * waist^2 / 2)).  The selected
spectrum is a hard rectangle of full width ``spectral_width_nm`` centered
at degeneracy, so the joint spatial profile on the mask plane is

    F(dx1, dx2) = integral over the window of |A~ * Sinc|^2 dw,

with angles mapped to mask positions through the imaging lens,
dx = f * theta, and positions expressed in pixels.  Sinc does not depend
on w and |A~|^2 is a Gaussian in a variable linear in w, so the window
integral is an exact erf difference (no numerical quadrature).  F factors
as S(dx1 + dx2) * W(|dx1 - dx2|): the phase-matching sinc^2 times the
window integral of |A~|^2.

Derived widths (all e^-2 convention, i.e. the w of exp(-2 x^2 / w^2)):

* ``w_p``      -- width of the marginal of F: the beam size in pixels.
* ``w~_cp``    -- width of the conditional F(dx1, 0): how far photon 1
                  can land from photon 2.  Gaussian at narrow spectra,
                  quasi-rectangular (order-4 super-Gaussian) at wide ones.
* ``w0_cp``    -- pump-limited floor, lambda0 * f / (pi * waist), ~0.86 px
                  at the default setup.
* ``w_cp``     -- quadrature sum sqrt(w~^2 + w0^2), the correlated-pixel
                  width fed to the mask kernel.

theta0 is not directly measurable here; :func:`calibrate_theta0` picks it
so the marginal width reproduces a target beam size (20 px by default),
which is the one observable that pins theta0 * L.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

C_LIGHT = 299792458.0

# Central emission angle (rad) calibrated so the default setup yields a
# 20-pixel beam width on the mask; see calibrate_theta0 and the test that
# regenerates this number.
THETA0_CALIBRATED = 0.0291771450

# First-order angular model; keep the window well inside its validity.
MAX_SPECTRAL_WIDTH_NM = 120.0

# Ceiling on the points per axis of a sampled profile: F holds points^2
# floats, 134 MB at this size (the calibrated setup's default grid has 511).
MAX_GRID_POINTS = 4097

# Floor on the expected beam width in grid spacings: a fit to a narrower
# marginal reads the grid, not the beam (at theta_0 = 2, 1.2 spacings, it
# returned 1.33 px for an expected 0.29 px).
MIN_WP_SPACINGS = 4


class NumericalError(RuntimeError):
    """A profile fit failed, or a calibration left the range it can invert."""


@dataclass(frozen=True)
class PdcSetup:
    """Source and imaging parameters (SI lengths; spectral width in nm)."""

    lambda_pump: float = 405e-9
    lambda_0: float = 810e-9
    crystal_length: float = 1e-3
    pump_waist: float = 0.6e-3
    focal: float = 0.2
    theta_0: float = THETA0_CALIBRATED
    pixel_width_d: float = 100e-6
    spectral_width_nm: float = 15.0

    def __post_init__(self):
        for name in ("lambda_pump", "lambda_0", "crystal_length", "pump_waist",
                     "focal", "theta_0", "pixel_width_d"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.spectral_width_nm < 0:
            raise ValueError("spectral_width_nm must be >= 0")

    @property
    def pump_angular_freq(self) -> float:
        return 2.0 * np.pi * C_LIGHT / self.lambda_pump

    @property
    def window_angular_freq(self) -> float:
        """Full angular-frequency width of the rectangular spectral window."""
        return 2.0 * np.pi * C_LIGHT * (self.spectral_width_nm * 1e-9) / self.lambda_0**2


@dataclass(frozen=True)
class GridSpec:
    """Sampling of the (dx1, dx2) plane, in pixels."""

    half_extent_px: float
    spacing_px: float = 0.25

    def size(self) -> int:
        """Points on the axis: 2 * floor(half_extent / spacing) + 1."""
        return 2 * int(np.floor(self.half_extent_px / self.spacing_px)) + 1

    def axis(self) -> np.ndarray:
        n = self.size() // 2
        return np.arange(-n, n + 1) * self.spacing_px


@dataclass
class JointSpatialProfile:
    """F sampled on a square pixel grid, plus on-demand evaluation."""

    F: np.ndarray
    axis_px: np.ndarray
    setup: PdcSetup

    def __post_init__(self):
        if np.any(self.F < 0):
            raise ValueError("joint profile must be non-negative")

    def spacing(self) -> float:
        return float(self.axis_px[1] - self.axis_px[0])

    def marginal(self) -> np.ndarray:
        """F_p(dx1) = integral over dx2 (trapezoid on the stored grid)."""
        F = self.F
        return self.spacing() * (F.sum(axis=1) - 0.5 * (F[:, 0] + F[:, -1]))

    def evaluate(self, x1_px: np.ndarray, x2_px: np.ndarray) -> np.ndarray:
        """F on an arbitrary (x1, x2) product grid, from the closed form."""
        x1, x2 = np.asarray(x1_px, float)[:, None], np.asarray(x2_px, float)
        return np.multiply(*_f_samples(self.setup, x1 + x2, x1 - x2))


_erfc = np.frompyfunc(math.erfc, 1, 1)  # element-wise over a few thousand points


def _f_samples(setup: PdcSetup, sum_px: np.ndarray, diff_px: np.ndarray):
    """The factors S(x1 + x2) and W(|x1 - x2|) of F, at the given sums and differences.

    Sinc^2 does not depend on w and |A~|^2 = exp(-((a + b w) s)^2), with
    a = dk_perp at degeneracy, b = 2 theta0 / c and s = waist / sqrt(2), so
    over a window of full angular width D the window factor is the erf
    difference

        W = sqrt(pi) / (2 b s) * [erfc(|a| s - b s D/2) - erfc(|a| s + b s D/2)].

    The integral is even in a; taking |a| keeps both erfc arguments on the
    side where erfc is accurate, so the tails stay exact and F >= 0.
    """
    px_angle = setup.pixel_width_d / setup.focal
    wp0 = setup.pump_angular_freq
    dk_par = -wp0 * setup.theta_0 * (sum_px * px_angle) / (2.0 * C_LIGHT)
    sinc2 = np.sinc(dk_par * setup.crystal_length / 2.0 / np.pi) ** 2
    s = setup.pump_waist / np.sqrt(2.0)
    u = np.abs(wp0 * (diff_px * px_angle) / (2.0 * C_LIGHT)) * s
    window = setup.window_angular_freq
    if window == 0.0:
        # Vanishing window: report the spectral density at degeneracy.
        return sinc2, np.exp(-(u**2))
    bs = 2.0 * setup.theta_0 / C_LIGHT * s
    half = bs * window / 2.0
    erfc_diff = (_erfc(u - half) - _erfc(u + half)).astype(float)
    return sinc2, (np.sqrt(np.pi) / (2.0 * bs)) * erfc_diff


def expected_wp_px(setup: PdcSetup) -> float:
    """Phase-matching estimate of the beam width, for grid sizing.

    The coefficient matches the Gaussian-fit convention used by
    :func:`estimate_wp` (a fit to the sinc-squared marginal), so grids
    sized from this estimate cover +-3 of the fitted width.
    """
    return 0.36 * setup.focal * setup.lambda_0 / (
        setup.theta_0 * setup.crystal_length * setup.pixel_width_d
    )


def default_grid(setup: PdcSetup, spacing_px: float = 0.25) -> GridSpec:
    return GridSpec(half_extent_px=3.2 * expected_wp_px(setup), spacing_px=spacing_px)


def joint_profile(setup: PdcSetup, grid: Optional[GridSpec] = None) -> JointSpatialProfile:
    """Sample F on the grid (defaults to +-3.2 expected beam widths)."""
    if grid is None:
        grid = default_grid(setup)
    if grid.half_extent_px < 3.0 * expected_wp_px(setup):
        raise ValueError("grid must cover at least +-3 expected beam widths")
    axis = grid.axis()
    # S over the 2n - 1 sums and W over the 2n - 1 differences of the axis,
    # laid out as the Hankel matrix S[i + j] times the Toeplitz W[i - j + n - 1].
    sums = np.concatenate([axis[0] + axis[:-1], axis + axis[-1]])
    diffs = np.concatenate([axis[0] - axis[:0:-1], axis - axis[0]])
    sinc2, window = _f_samples(setup, sums, diffs)
    F = sliding_window_view(sinc2, axis.size) * sliding_window_view(window, axis.size)[:, ::-1]
    return JointSpatialProfile(F, axis, setup)


# Stopping rule of curve_fit's damped Newton iteration: converged once a step
# would move the parameters by at most _FIT_XTOL of their norm; failed after
# _FIT_MAX_STEPS residual evaluations.
_FIT_XTOL = 1e-9
_FIT_MAX_STEPS = 200


def curve_fit(x, y, order, width_guess):
    """Width and residual of a * exp(-2 |x - c|^n / w^n), n in {2, 4}, fitted to y / max(y).

    Damped Newton from (a, c, w) = (1, 0, width_guess) on the residual sum
    of squares: each step solves (J^T J - sum r * d2f + lam * diag(J^T J)) d = J^T r
    with the analytic Jacobian J and the exact second derivatives d2f of the
    model (:func:`_newton_terms`), so the step stays quadratically convergent
    on these large-residual misfits, where Gauss-Newton (d2f dropped) converges
    only linearly.  A step is kept only if it lowers the residual; lam then
    falls tenfold, else it rises tenfold and the step is re-solved.  The fits
    of the width pipeline take 4-10 residual evaluations.  Normalizing y
    keeps the width free of the profile's scale; single-threaded einsum keeps
    it free of the thread count.
    """
    if order not in (2, 4):
        raise ValueError("profile fits take order 2 or 4")
    scale = float(y.max())
    if scale <= 0:
        raise NumericalError("profile has no positive samples to fit")
    y = y / scale
    p, step, cost, lam = np.array([1.0, 0.0, width_guess]), np.zeros(3), math.inf, 1e-2
    for _ in range(_FIT_MAX_STEPS):
        a, c, w = p + step
        u = (x - c) / w
        u2 = u * u  # powers by products: u**4 costs twice as much
        e = np.exp(-2.0 * (u2 if order == 2 else u2 * u2))
        trial_r = y - a * e
        trial_cost = float(np.einsum("k,k->", trial_r, trial_r, optimize=False))
        if not math.isfinite(trial_cost):
            raise NumericalError(f"order-{order} profile fit reached a non-finite value")
        if trial_cost < cost:  # accept the step (the first, empty one always)
            p, cost, lam = p + step, trial_cost, lam / 10.0
            jtj, grad, hess = _newton_terms(u, e, trial_r, a, w, order)
            damping = np.diag(np.diag(jtj))
        else:
            lam *= 10.0
        try:
            step = np.linalg.solve(hess + lam * damping, grad)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"order-{order} profile fit is singular") from exc
        if np.linalg.norm(step) <= _FIT_XTOL * np.linalg.norm(p):
            return abs(p[2]), cost
    raise NumericalError(f"order-{order} profile fit did not converge in {_FIT_MAX_STEPS} steps")


def _newton_terms(u, e, r, a, w, order):
    """J^T J, J^T r and the Hessian J^T J - sum r * d2f of half the residual sum.

    For f = a * e, e = exp(-2 u^n), u = (x - c) / w and q = 2n u^(n-1) / w,
    over the parameters (a, c, w):

        f_a = e,  f_c = a e q,  f_w = a e q u,
        f_aa = 0,  f_ac = e q,  f_aw = e q u,
        f_cc = a e (q^2 - 2n(n-1) u^(n-2) / w^2),
        f_cw = a e q (q u - n / w),  f_ww = a e q u (q u - (n+1) / w).

    Powers of u are products, never divisions by u, which vanishes on the grid.
    """
    u2 = u * u
    q = (2.0 * order / w) * (u if order == 2 else u2 * u)
    eq = e * q
    f_c = a * eq
    f_w = f_c * u
    qu = q * u
    rows = np.stack([
        e, f_c, f_w, r,
        eq, eq * u,
        f_c * q - (2.0 * order * (order - 1) * a / w**2) * (e if order == 2 else e * u2),
        f_c * (qu - order / w),
        f_w * (qu - (order + 1) / w),
    ])
    # J^T J, J^T r and sum r * (f_ac, f_aw, f_cc, f_cw, f_ww) in one contraction.
    m = np.einsum("ik,jk->ij", rows[:4], rows, optimize=False)
    jtj, grad = m[:3, :3], m[:3, 3]
    r_ac, r_aw, r_cc, r_cw, r_ww = m[3, 4:]
    return jtj, grad, jtj - np.array([[0.0, r_ac, r_aw], [r_ac, r_cc, r_cw], [r_aw, r_cw, r_ww]])


def estimate_wp(profile: JointSpatialProfile) -> float:
    """Beam width in pixels: Gaussian fit of the marginal of F."""
    x = profile.axis_px
    marg = profile.marginal()
    guess = 2.0 * np.sqrt(max(_second_moment(x, marg), 1e-6))
    width, _ = curve_fit(x, marg, 2, guess)
    return width


def _second_moment(x, y):
    total = y.sum()
    mean = (x * y).sum() / total
    return ((x - mean) ** 2 * y).sum() / total


def estimate_wcp_tilde(
    profile: JointSpatialProfile, pixel_integration: bool = True
) -> tuple[float, int]:
    """Width and preferred order of the conditional profile F(dx1, 0).

    Fits both a Gaussian and an order-4 super-Gaussian to a finely
    resampled slice and returns the lower-residual fit.  With
    ``pixel_integration`` the second coordinate is averaged over one
    pixel, matching how a physical pixel collects photon 2.
    """
    # Coarse width from the stored grid row nearest dx2 = 0.
    mid = int(np.argmin(np.abs(profile.axis_px)))
    coarse = profile.F[:, mid]
    guess = 2.0 * np.sqrt(max(_second_moment(profile.axis_px, coarse), 0.01))

    extent = max(6.0 * guess, 4.0)
    x_fine = np.linspace(-extent, extent, 401)
    if pixel_integration:
        nodes, wts = np.polynomial.legendre.leggauss(9)
        x2 = nodes * 0.5
        slab = profile.evaluate(x_fine, x2)
        y = (slab * (wts * 0.5)[None, :]).sum(axis=1)
    else:
        y = profile.evaluate(x_fine, np.array([0.0]))[:, 0]

    w2, r2 = curve_fit(x_fine, y, 2, guess)
    w4, r4 = curve_fit(x_fine, y, 4, guess)
    return (w2, 2) if r2 <= r4 else (w4, 4)


def pump_floor_px(setup: PdcSetup) -> float:
    """Pump-limited correlation floor lambda0 * f / (pi * waist), in pixels."""
    return setup.lambda_0 * setup.focal / (np.pi * setup.pump_waist) / setup.pixel_width_d


def combined_wcp(setup: PdcSetup, w_tilde: float) -> float:
    """Correlated-pixel width: conditional width and pump floor in quadrature."""
    return float(np.hypot(w_tilde, pump_floor_px(setup)))


@dataclass
class WcpTable:
    """Kernel parameters versus spectral width, as computed by wcp_curve."""

    widths_nm: np.ndarray
    w_cp: np.ndarray
    order: np.ndarray
    w_p: np.ndarray
    w_tilde: np.ndarray
    theta_0: float
    w0_floor: float


def wcp_curve(setup: PdcSetup, widths_nm: Sequence[float]) -> WcpTable:
    """Run the width pipeline for each spectral width; one row per width, in order."""
    floor = pump_floor_px(setup)
    w_cp, order, w_p, w_tilde = [], [], [], []
    for width in widths_nm:
        if width > MAX_SPECTRAL_WIDTH_NM:
            raise ValueError(
                f"spectral width {width} nm beyond the first-order model "
                f"range ({MAX_SPECTRAL_WIDTH_NM} nm)"
            )
        s = replace(setup, spectral_width_nm=float(width))
        prof = joint_profile(s)
        w_p.append(estimate_wp(prof))
        wt, n = estimate_wcp_tilde(prof)
        w_tilde.append(wt)
        order.append(n)
        w_cp.append(combined_wcp(s, wt))
    return WcpTable(
        widths_nm=np.asarray(widths_nm, float),
        w_cp=np.asarray(w_cp),
        order=np.asarray(order, int),
        w_p=np.asarray(w_p),
        w_tilde=np.asarray(w_tilde),
        theta_0=setup.theta_0,
        w0_floor=floor,
    )


def calibrate_theta0(
    setup: PdcSetup,
    target_wp_px: float = 20.0,
    bracket: tuple[float, float] = (0.008, 0.12),
) -> float:
    """Central angle that reproduces the target beam width on the mask.

    The beam width is the only stated observable constraining
    theta_0 * crystal_length, so this is how the model gets its angle.
    """

    def mismatch(theta):
        s = replace(setup, theta_0=theta)
        return estimate_wp(joint_profile(s, default_grid(s, spacing_px=0.5))) - target_wp_px

    lo, hi = bracket
    below = mismatch(lo) < 0
    if below == (mismatch(hi) < 0):
        raise ValueError("the bracket does not enclose the target beam width")
    while hi - lo > 1e-7:  # bisection to the angle tolerance
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if (mismatch(mid) < 0) == below else (lo, mid)
    return 0.5 * (lo + hi)
