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
integral is an exact erf difference (no numerical quadrature).

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

scipy (``erfc``, ``curve_fit``, ``brentq``) is imported inside the
functions that use it, so importing this module costs only numpy; only
the ``transition-spectral`` and ``optics-table`` commands and
:func:`calibrate_theta0` load scipy.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

C_LIGHT = 299792458.0

# Central emission angle (rad) calibrated so the default setup yields a
# 20-pixel beam width on the mask; see calibrate_theta0 and the test that
# regenerates this number.
THETA0_CALIBRATED = 0.0291771450

# First-order angular model; keep the window well inside its validity.
MAX_SPECTRAL_WIDTH_NM = 120.0


class NumericalError(RuntimeError):
    """A profile fit failed, or a calibration left the range it can invert."""


def curve_fit(*args, **kwargs):
    # Imports scipy on first call, so importing optics stays cheap (numpy only).
    from scipy.optimize import curve_fit as fit

    return fit(*args, **kwargs)


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

    def axis(self) -> np.ndarray:
        n = int(np.floor(self.half_extent_px / self.spacing_px))
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
        return np.trapezoid(self.F, dx=self.spacing(), axis=1)

    def evaluate(self, x1_px: np.ndarray, x2_px: np.ndarray) -> np.ndarray:
        """F on an arbitrary (x1, x2) product grid, from the closed form."""
        return _f_samples(self.setup, np.asarray(x1_px, float), np.asarray(x2_px, float))


def _f_samples(setup: PdcSetup, x1_px: np.ndarray, x2_px: np.ndarray) -> np.ndarray:
    """Integral of |A~ * Sinc|^2 over the spectral window, per grid point.

    Sinc^2 does not depend on w and |A~|^2 = exp(-((a + b w) s)^2), with
    a = dk_perp at degeneracy, b = 2 theta0 / c and s = waist / sqrt(2), so
    the window integral is the erf difference

        sqrt(pi) / (2 b s) * [erfc(|a| s - b s W/2) - erfc(|a| s + b s W/2)].

    The integral is even in a; taking |a| keeps both erfc arguments on the
    side where erfc is accurate, so the tails stay exact and F >= 0.
    """
    from scipy.special import erfc

    th1 = x1_px * setup.pixel_width_d / setup.focal
    th2 = x2_px * setup.pixel_width_d / setup.focal
    t1 = th1[:, None]
    t2 = th2[None, :]
    wp0 = setup.pump_angular_freq
    dk_par = -wp0 * setup.theta_0 * (t1 + t2) / (2.0 * C_LIGHT)
    sinc2 = np.sinc(dk_par * setup.crystal_length / 2.0 / np.pi) ** 2
    s = setup.pump_waist / np.sqrt(2.0)
    u = np.abs(wp0 * (t1 - t2) / (2.0 * C_LIGHT)) * s
    window = setup.window_angular_freq
    if window == 0.0:
        # Vanishing window: report the spectral density at degeneracy.
        return sinc2 * np.exp(-(u**2))
    bs = 2.0 * setup.theta_0 / C_LIGHT * s
    half = bs * window / 2.0
    return sinc2 * (np.sqrt(np.pi) / (2.0 * bs)) * (erfc(u - half) - erfc(u + half))


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
    return JointSpatialProfile(_f_samples(setup, axis, axis), axis, setup)


def _gaussian(x, amp, center, width):
    return amp * np.exp(-2.0 * (x - center) ** 2 / width**2)


def _super_gaussian4(x, amp, center, width):
    return amp * np.exp(-2.0 * np.abs(x - center) ** 4 / width**4)


def _fit_width(x, y, model, width_guess):
    from scipy.optimize import OptimizeWarning

    scale = float(y.max())
    if scale <= 0:
        raise NumericalError("profile has no positive samples to fit")
    y = y / scale  # widths must not depend on the profile's normalization
    try:
        with warnings.catch_warnings():
            # Near-exact fits make the covariance singular; only widths matter.
            warnings.simplefilter("ignore", OptimizeWarning)
            popt, _ = curve_fit(
                model, x, y, p0=[1.0, 0.0, width_guess], maxfev=20000
            )
    except RuntimeError as exc:
        raise NumericalError(f"profile fit failed: {exc}") from exc
    resid = float(np.sum((y - model(x, *popt)) ** 2))
    return abs(popt[2]), resid


def estimate_wp(profile: JointSpatialProfile) -> float:
    """Beam width in pixels: Gaussian fit of the marginal of F."""
    x = profile.axis_px
    marg = profile.marginal()
    guess = 2.0 * np.sqrt(max(_second_moment(x, marg), 1e-6))
    width, _ = _fit_width(x, marg, _gaussian, guess)
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

    w2, r2 = _fit_width(x_fine, y, _gaussian, guess)
    w4, r4 = _fit_width(x_fine, y, _super_gaussian4, guess)
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
    from scipy.optimize import brentq

    def mismatch(theta):
        s = replace(setup, theta_0=theta)
        return estimate_wp(joint_profile(s, default_grid(s, spacing_px=0.5))) - target_wp_px

    return float(brentq(mismatch, *bracket, xtol=1e-7))
