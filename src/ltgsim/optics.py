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

F is held on one grid, :func:`profile_axis`, as its two factors: S over
the grid's 2n - 1 sums and W over its 2n - 1 differences, never as the
n x n matrix.  The marginal and the slice the width fits read are sums
and products of the two.  Every caller is held to
the model's input rules: :class:`PdcSetup` refuses a spectral width outside
[0, 120] nm or positive below 1e-6 nm, and :func:`profile_axis` a theta0
that sizes the grid too small, too large or too coarse for the beam.

The pixel average of the conditional slice takes a constant 9-point
Gauss-Legendre rule and the width fits solve their 2 x 2 Newton steps in
Python floats, so, like the rest of the package, this module runs on
numpy's core alone: no result passes through numpy.linalg,
numpy.polynomial or the BLAS/LAPACK kernels behind them.

theta0 is not directly measurable here; it is fixed so that the marginal
width reproduces a 20 px beam, the one observable that pins theta0 * L.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .rtn import check_real

C_LIGHT = 299792458.0

# Central emission angle (rad) that gives the default setup a 20-pixel beam
# on the mask; tests/test_optics.py re-derives it by bisection.
THETA0_CALIBRATED = 0.0291771450

# First-order angular model; keep the window well inside its validity.
MAX_SPECTRAL_WIDTH_NM = 120.0

# Ceiling on the points per axis of a sampled profile (the calibrated setup's
# grid has 511): F itself, formed only on request, holds points^2 floats,
# 134 MB at this size.
MAX_GRID_POINTS = 4097

# Floor on the expected beam width in grid spacings: a fit to a narrower
# marginal reads the grid, not the beam (at theta_0 = 2, 1.2 spacings, it
# returned 1.33 px for an expected 0.29 px).
MIN_WP_SPACINGS = 4

# Floor on a positive spectral width: the window factor, an erfc difference
# across half the window (see _f_samples), keeps ~9 digits at 1e-6 nm and
# the calibrated setup, none below ~1e-15 nm (F vanishes on the whole grid).
MIN_SPECTRAL_WIDTH_NM = 1e-6


class NumericalError(RuntimeError):
    """A profile fit failed, a calibration left the range it can invert, or a
    kernel's weight underflowed to nothing on the mask."""


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
            check_real(name, getattr(self, name))
            if not getattr(self, name) > 0:  # refuses NaN too
                raise ValueError(f"{name} must be positive")
        check_real("spectral_width_nm", self.spectral_width_nm)
        if not 0 <= self.spectral_width_nm <= MAX_SPECTRAL_WIDTH_NM:
            raise ValueError(f"width {self.spectral_width_nm} nm outside model range "
                             f"[0, {MAX_SPECTRAL_WIDTH_NM}] nm")
        if 0 < self.spectral_width_nm < MIN_SPECTRAL_WIDTH_NM:
            raise ValueError(f"width {self.spectral_width_nm} nm is below the "
                             f"{MIN_SPECTRAL_WIDTH_NM:g} nm the window factor resolves "
                             "(0 nm gives the zero-width limit)")

    @property
    def pump_angular_freq(self) -> float:
        return 2.0 * np.pi * C_LIGHT / self.lambda_pump

    @property
    def window_angular_freq(self) -> float:
        """Full angular-frequency width of the rectangular spectral window."""
        return 2.0 * np.pi * C_LIGHT * (self.spectral_width_nm * 1e-9) / self.lambda_0**2


@dataclass
class JointSpatialProfile:
    """F on a square pixel grid of n points, held as its two factors, plus
    on-demand evaluation.

    ``sum_factor[k]`` is S at x1 + x2 = 2 axis[0] + k h and ``diff_factor[k]``
    is W at x1 - x2 = (n - 1 - k) h, for k < 2n - 1 and spacing h, so

        F[i, j] = S[i + j] * W[i - j + n - 1] = sum_factor[i + j] * diff_factor[j - i + n - 1].

    W is stored in that order so that row i of F reads both factors forward.
    """

    sum_factor: np.ndarray
    diff_factor: np.ndarray
    axis_px: np.ndarray
    setup: PdcSetup

    def __post_init__(self):
        if np.any(self.sum_factor < 0) or np.any(self.diff_factor < 0):  # hence F >= 0
            raise ValueError("joint profile must be non-negative")

    def _windows(self) -> tuple[np.ndarray, np.ndarray]:
        """Views [i, j] = sum_factor[i + j] and diff_factor[j - i + n - 1]."""
        n = self.axis_px.size
        return sliding_window_view(self.sum_factor, n), sliding_window_view(self.diff_factor, n)[::-1]

    @property
    def F(self) -> np.ndarray:
        """The n x n matrix F[i, j], formed on each access: for inspection only."""
        s, w = self._windows()
        return s * w

    def spacing(self) -> float:
        return float(self.axis_px[1] - self.axis_px[0])

    def column(self, j: int) -> np.ndarray:
        """F[:, j], the profile along x1 at x2 = axis_px[j]."""
        n = self.axis_px.size
        return self.sum_factor[j:j + n] * self.diff_factor[j:j + n][::-1]

    def marginal(self) -> np.ndarray:
        """F_p(dx1) = integral over dx2 (trapezoid on the grid).

        Row sums by one single-threaded einsum over the windows of the factors.
        """
        rows = np.einsum("ij,ij->i", *self._windows(), optimize=False)
        return self.spacing() * (rows - 0.5 * (self.column(0) + self.column(self.axis_px.size - 1)))

    def evaluate(self, x1_px: np.ndarray, x2_px: np.ndarray) -> np.ndarray:
        """F on an arbitrary (x1, x2) product grid, from the closed form."""
        x1, x2 = np.asarray(x1_px, float)[:, None], np.asarray(x2_px, float)
        return np.multiply(*_f_samples(self.setup, x1 + x2, x1 - x2))


def real_exp(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """np.exp(x), bit for bit: the package's one real exp.  np.exp's last bits
    depend on the SIMD level numpy dispatches, so a dispatch-independent exp
    can replace it here.  Below x = -746 np.exp is exactly 0.0 but takes a slow
    path (the calibration's 21 rows of c, ~79 % of them below -746, took three
    times as long), so there 0.0 is written without it, into ``out`` too
    (which may be ``x``)."""
    if out is None:
        return np.exp(x, out=np.zeros_like(x), where=x >= -746.0)
    keep = x >= -746.0
    np.exp(x, out=out, where=keep)
    np.copyto(out, 0.0, where=~keep)
    return out


# W. J. Cody's rational approximations (CALERF): erf(x) = x P(x^2) / Q(x^2)
# for |x| <= 0.46875; erfc(y) = exp(-y^2) P(y) / Q(y) for 0.46875 < y <= 4;
# erfc(y) = exp(-y^2) / y * (1/sqrt(pi) - z P(z) / Q(z)), z = 1/y^2, above.
# Each tuple holds the numerator's leading coefficient, then the remaining
# numerator and denominator coefficients from the highest order down.
_ERF_SMALL = (1.85777706184603153e-1,
              (3.16112374387056560e00, 1.13864154151050156e02, 3.77485237685302021e02,
               3.20937758913846947e03),
              (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
               2.84423683343917062e03))
_ERFC_MID = (2.15311535474403846e-8,
             (5.64188496988670089e-1, 8.88314979438837594e00, 6.61191906371416295e01,
              2.98635138197400131e02, 8.81952221241769090e02, 1.71204761263407058e03,
              2.05107837782607147e03, 1.23033935479799725e03),
             (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
              1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
              3.43936767414372164e03, 1.23033935480374942e03))
_ERFC_LARGE = (1.63153871373020978e-2,
               (3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1,
                1.60837851487422766e-2, 6.58749161529837803e-4),
               (2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
                6.05183413124413191e-2, 2.33520497626869185e-3))
_INV_SQRT_PI = 5.6418958354775628695e-1


def _rational(coeffs, z: np.ndarray) -> np.ndarray:
    """P(z) / Q(z) by Horner's rule, Q monic: P = (lead z + num[0]) z + ... + num[-1],
    Q = (z + den[0]) z + ... + den[-1]."""
    lead, num, den = coeffs
    p, q = lead * z, z
    for a, b in zip(num[:-1], den[:-1]):
        p, q = (p + a) * z, (q + b) * z
    return (p + num[-1]) / (q + den[-1])


def _erfc(x: np.ndarray) -> np.ndarray:
    """Complementary error function, element-wise, in Cody's rational form.

    Within 8 ulp of ``math.erfc`` where that is a normal number, and within
    1e-322 in the subnormal tail; 2.0 exactly below x = -6.  exp(-y^2) is
    taken as exp(-r^2) exp(-(y - r)(y + r)) with r = y rounded down to 1/16,
    which keeps the rounding of y^2 out of the exponent.
    """
    x = np.asarray(x, float)
    y = np.abs(x)
    out = np.empty_like(y)
    small = y <= 0.46875
    xs = x[small]
    out[small] = 1.0 - xs * _rational(_ERF_SMALL, xs * xs)
    tail = ~small  # NaN lands here and stays NaN
    yt = np.minimum(y[tail], 30.0)  # erfc underflows to 0 below 27.3; keeps inf finite
    mid = yt <= 4.0
    r = np.empty_like(yt)
    r[mid] = _rational(_ERFC_MID, yt[mid])
    yl = yt[~mid]
    z = 1.0 / (yl * yl)
    r[~mid] = (_INV_SQRT_PI - z * _rational(_ERFC_LARGE, z)) / yl
    r16 = np.floor(yt * 16.0) / 16.0
    r = real_exp(-r16 * r16) * real_exp(-(yt - r16) * (yt + r16)) * r
    out[tail] = np.where(x[tail] < 0.0, 2.0 - r, r)
    return out


# 9-point Gauss-Legendre nodes and weights over one pixel, [-1/2, 1/2]: the
# bits of numpy's leggauss(9) halved (numpy 2.4.6), held as read-only
# constants so that no run path calls leggauss's LAPACK eigen-solve.
_PIXEL_NODES = np.array([-0.48408011975381304, -0.4180155536633179, -0.3066857163502952,
                         -0.16212671170190446, 0.0, 0.16212671170190446, 0.3066857163502952,
                         0.4180155536633179, 0.48408011975381304])
_PIXEL_WEIGHTS = np.array([0.04063719418078708, 0.09032408034742868, 0.1303053482014678,
                           0.15617353852000146, 0.16511967750062992, 0.15617353852000146,
                           0.1303053482014678, 0.09032408034742868, 0.04063719418078708])
_PIXEL_NODES.flags.writeable = _PIXEL_WEIGHTS.flags.writeable = False


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
        return sinc2, real_exp(-(u**2))
    bs = 2.0 * setup.theta_0 / C_LIGHT * s
    half = bs * window / 2.0
    lower, upper = _erfc(np.stack([u - half, u + half]))  # one call: half the per-call overhead
    return sinc2, (np.sqrt(np.pi) / (2.0 * bs)) * (lower - upper)


def profile_axis(setup: PdcSetup) -> np.ndarray:
    """The axis of both coordinates of F, in pixels: +-3.2 expected beam
    widths (which scale as 1 / theta_0) at 0.25 px.  A grid outside 3 to
    MAX_GRID_POINTS points, or a beam narrower than MIN_WP_SPACINGS
    spacings, is refused with a ValueError.

    The expected width is the phase-matching estimate, whose coefficient
    matches the Gaussian-fit convention of :func:`estimate_wp` (a fit to the
    sinc-squared marginal), so the grid covers +-3.2 of the fitted width.
    """
    spacing = 0.25
    try:
        wp = 0.36 * setup.focal * setup.lambda_0 / (
            setup.theta_0 * setup.crystal_length * setup.pixel_width_d)
        n = int(np.floor(3.2 * wp / spacing))
    except ArithmeticError:  # a theta_0 so small that the beam width overflows
        n = math.inf
    points = 2 * n + 1
    if not 3 <= points <= MAX_GRID_POINTS:
        raise ValueError(
            f"theta_0 {setup.theta_0!r} sizes the profile grid at {points} points per axis, "
            f"outside the 3 to {MAX_GRID_POINTS} a profile may sample"
        )
    if wp / spacing < MIN_WP_SPACINGS:
        raise ValueError(
            f"theta_0 {setup.theta_0!r} gives an expected beam width of {wp / spacing:.3g} "
            f"grid spacings, fewer than the {MIN_WP_SPACINGS} a width fit resolves"
        )
    return np.arange(-n, n + 1) * spacing


def joint_profile(setup: PdcSetup) -> JointSpatialProfile:
    """F's two factors on :func:`profile_axis`: S over the 2n - 1 sums x1 + x2,
    W over the 2n - 1 differences x1 - x2, in the order JointSpatialProfile holds."""
    axis = profile_axis(setup)
    sums = np.concatenate([axis[0] + axis[:-1], axis + axis[-1]])
    diffs = np.concatenate([axis[-1] - axis[:-1], axis[0] - axis])
    return JointSpatialProfile(*_f_samples(setup, sums, diffs), axis, setup)


# Stopping rules of curve_fit's damped Newton iteration: converged once a step
# would move the parameters by at most _FIT_XTOL of their norm, or once its
# predicted decrease |grad . step| is at most _FIT_FTOL of the cost, where the
# cost no longer resolves it; failed after _FIT_MAX_STEPS residual evaluations.
_FIT_XTOL = 1e-9
_FIT_FTOL = 2.0**-52
_FIT_MAX_STEPS = 200


def curve_fit(x, y, order, width_guess):
    """Width and residual of a * exp(-2 |x|^n / w^n), n in {2, 4}, fitted to y / max(y).

    The profiles fitted here are even in x (their asymmetry stays below 1e-13
    of their maximum), so the model has no centre to move.  Damped Newton
    from (a, w) = (1, width_guess) on the residual sum of squares: each step
    solves (J^T J - sum r * d2f + lam * diag(J^T J)) d = J^T r with the
    analytic Jacobian J and the exact second derivatives d2f of the model
    (:func:`_newton_terms`), so the step stays quadratically convergent on
    these large-residual misfits, where Gauss-Newton (d2f dropped) converges
    only linearly.  A step is kept if it does not raise the residual; lam then
    falls tenfold, else it rises tenfold and the step is re-solved.  The
    ``_FIT_FTOL`` stop ends a fit before a step below the cost's last bit,
    whose acceptance would hang on the CPU's rounding of exp.  The 2 x 2
    terms, their solve (:func:`_damped_solve`) and the stopping norms are
    Python floats: on a few hundred points numpy's per-call cost, not the
    arithmetic, bounds a step.  From the starts of the width pipeline the
    w_p fits take 4 residual evaluations, the w~ fits 4-5.  Normalizing y
    keeps the width free of the profile's scale; single-threaded einsum keeps
    it free of the thread count.
    """
    if order not in (2, 4):
        raise ValueError("profile fits take order 2 or 4")
    scale = float(y.max())
    if scale <= 0:
        raise NumericalError("profile has no positive samples to fit")
    y = y / scale
    u = np.empty(x.size)
    rows = np.empty((4, x.size))  # r, e, then |u|^n and scratch for _newton_terms
    r, e, v = rows[0], rows[1], rows[2]
    p, step, cost, lam = (1.0, float(width_guess)), (0.0, 0.0), math.inf, 1e-2
    for _ in range(_FIT_MAX_STEPS):
        a, w = trial = (p[0] + step[0], p[1] + step[1])
        np.divide(x, w, out=u)
        np.multiply(u, u, out=v)  # powers by products: u**4 costs twice as much
        if order == 4:
            v *= v
        np.multiply(v, -2.0, out=e)
        real_exp(e, out=e)
        np.multiply(e, a, out=r)
        np.subtract(y, r, out=r)
        trial_cost = float(np.einsum("k,k->", r, r, optimize=False))
        if not math.isfinite(trial_cost):
            raise NumericalError(f"order-{order} profile fit reached a non-finite value")
        if trial_cost <= cost:  # accept a step that does not raise the cost (the first always)
            p, cost, lam = trial, trial_cost, lam / 10.0
            damping, grad, hess = _newton_terms(rows, a, w, order)
        else:
            lam *= 10.0
        try:
            step = _damped_solve(hess, damping, lam, grad)
        except ZeroDivisionError:  # a singular system
            step = (math.nan,) * 2
        size = math.hypot(*step)
        if not math.isfinite(size):  # a singular system or non-finite terms
            raise NumericalError(f"order-{order} profile fit is singular")
        if (size <= _FIT_XTOL * math.hypot(*p)
                or abs(grad[0] * step[0] + grad[1] * step[1]) <= _FIT_FTOL * cost):
            return abs(p[1]), cost
    raise NumericalError(f"order-{order} profile fit did not converge in {_FIT_MAX_STEPS} steps")


def _newton_terms(rows, a, w, order):
    """diag(J^T J), J^T r and the Hessian J^T J - sum r * d2f of half the residual
    sum, as Python floats.

    ``rows`` holds r, e = exp(-2 u^n) and u^n in its first three rows; the last
    two are overwritten with e u^n and e u^2n.  For f = a * e, u = x / w and
    k = 2n / w, over the parameters (a, w):

        f_a = e,  f_w = a k e u^n,
        f_aa = 0,  f_aw = k e u^n,  f_ww = a k e u^n (k u^n - (n+1) / w),

    so each entry is a scalar times a sum of e * e u^(jn) (J^T J) or r * e u^(jn)
    (the rest), all from one contraction.
    """
    _, e, en, e2n = rows
    np.multiply(en, en, out=e2n)
    en *= e
    e2n *= e
    sr, se = np.einsum("ik,jk->ij", rows[:2], rows[1:], optimize=False).tolist()
    k = 2.0 * order / w
    ak = a * k
    r_aw = k * sr[1]
    r_ww = a * (k * k * sr[2] - ((order + 1) / w) * k * sr[1])
    h_aw = ak * se[1] - r_aw
    damping = (se[0], ak * ak * se[2])
    grad = (sr[0], ak * sr[1])
    hess = ((damping[0], h_aw), (h_aw, damping[1] - r_ww))
    return damping, grad, hess


def _damped_solve(hess, damping, lam, rhs):
    """d with (hess + lam * diag(damping)) d = rhs for 2 x 2 hess, in Python
    floats, by Cramer's rule.  A zero determinant raises ZeroDivisionError."""
    (h00, h01), (h10, h11) = hess
    h00, h11 = h00 + lam * damping[0], h11 + lam * damping[1]
    det = h00 * h11 - h01 * h10
    return (rhs[0] * h11 - h01 * rhs[1]) / det, (h00 * rhs[1] - h10 * rhs[0]) / det


def estimate_wp(profile: JointSpatialProfile) -> float:
    """Beam width in pixels: Gaussian fit of the marginal of F.

    The fit starts from the marginal's half-maximum width, HWHM / sqrt(ln 2 / 2)
    with both crossings interpolated linearly: 4 residual evaluations on the
    sinc^2 marginals of the width pipeline, where 2 sqrt(second moment), ~26.4 px
    for a ~20 px beam, took 8-9.  A marginal that does not fall to half its
    maximum inside the grid (theta_0 above ~0.111 at 120 nm) starts from
    2 sqrt(second moment).
    """
    x = profile.axis_px
    marg = profile.marginal()
    half = 0.5 * marg.max()
    above = np.flatnonzero(marg >= half)  # empty if the marginal holds NaN
    if above.size and 0 < above[0] and above[-1] < x.size - 1:
        i, j, h = above[0], above[-1], profile.spacing()
        out_l, in_l, in_r, out_r = marg[[i - 1, i, j, j + 1]].tolist()
        left = x[i] - h * (in_l - half) / (in_l - out_l)
        right = x[j] + h * (in_r - half) / (in_r - out_r)
        guess = 0.5 * (right - left) / math.sqrt(0.5 * math.log(2.0))
    else:
        guess = 2.0 * np.sqrt(max(_second_moment(x, marg), 1e-6))
    width, _ = curve_fit(x, marg, 2, guess)
    return width


def _second_moment(x, y):
    total = y.sum()
    mean = (x * y).sum() / total
    return ((x - mean) ** 2 * y).sum() / total


def estimate_wcp_tilde(profile: JointSpatialProfile) -> tuple[float, int]:
    """Width and preferred order of the conditional profile F(dx1, 0).

    Fits both a Gaussian and an order-4 super-Gaussian to a finely
    resampled slice, its second coordinate averaged over one pixel as a
    physical pixel collects photon 2 (the 9-point Gauss-Legendre rule of
    ``_PIXEL_NODES`` and ``_PIXEL_WEIGHTS``), and returns the lower-residual fit.
    """
    # Coarse width from the grid column nearest dx2 = 0.
    mid = int(np.argmin(np.abs(profile.axis_px)))
    coarse = profile.column(mid)
    guess = 2.0 * np.sqrt(max(_second_moment(profile.axis_px, coarse), 0.01))

    extent = max(6.0 * guess, 4.0)
    x_fine = np.linspace(-extent, extent, 401)
    slab = profile.evaluate(x_fine, _PIXEL_NODES)
    y = (slab * _PIXEL_WEIGHTS[None, :]).sum(axis=1)

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
    for width in widths_nm:
        check_real("spectral_width_nm", width)
    floor = pump_floor_px(setup)
    w_cp, order, w_p, w_tilde = [], [], [], []
    for width in widths_nm:
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
