"""Coincidence counting and the correlated-pixel width calibration.

The channel leaves the populations of HH and VV at 1/2 and multiplies the
HH-VV coherence by p * Gamma(t), where p in [0, 1] is the purity of the
initial state (p = 1 is the Bell state).  Detection behind 45/135-degree
polarizers turns the real part of the coherence into coincidence-count
contrast, which is all this module computes of the state:

    p++ = (1 + p Re Gamma) / 4      rate N++ = N0 (1 + p Re Gamma)
    p+- = (1 - p Re Gamma) / 4      rate N+- = N0 (1 - p Re Gamma)
    visibility V = |N++ - N+-| / (N++ + N+-) = p |Re Gamma|

``detection_probabilities`` is that closed form; the 4x4 density matrix,
its |++> and |+-> projections and the Wootters concurrence are its test oracle.

The correlated-pixel calibration imprints a static rectangular phase
pattern (+-pi/4 every n_r pixels) on both mask halves, shifts the second
half by h, and reads the visibility V(h).  The contrast of V(h) falls as
the kernel width w_cp blurs the pattern, which makes it an estimator of
w_cp once compared against a simulated contrast-versus-width curve
(20 widths over [0.5, 10] px).  The pattern does not change with h, so
Gamma(h) follows for every shift, for the measured width and every curve
width at once, from one contraction of the one kernel's factors with a
row of c per width (``_pattern_coherence``).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .optics import NumericalError, windows
from .rtn import SeedSpec, check_entries, check_flag, check_integer, check_real
from .slm import KernelParams, check_shift, kernel_band, kernel_factors, pair_sums

# A measured pattern contrast below this many standard errors sits in the
# shot-noise floor (~0.005-0.018 at the default counts), which overlaps the
# calibration curve's range, so inverting it would return a wrong width.
_MIN_CONTRAST_SIGMAS = 5.0

# Phase of the calibration pattern (the paper's +-pi/4), and the widths (px)
# of its simulated contrast-versus-width curve.
_PATTERN_AMPLITUDE = np.pi / 4
_CURVE_RANGE = (0.5, 10.0)
_CURVE_SAMPLES = 20

# Ceiling on the expected counts of one acquisition (at most 2 * n0 *
# acquisition_s), below numpy's Poisson limit of ~9.2e18.
MAX_EXPECTED_COUNTS = 1e18

# Distinct shift phases h mod 2 * n_r a calibration needs: the sine fit of V(h)
# has three parameters, and its scatter (the contrast's uncertainty) one more.
MIN_SHIFTS = 4


def detection_probabilities(p: float, re_gamma: float) -> tuple[float, float]:
    """(p++, p+-) = ((1 + p Re Gamma) / 4, (1 - p Re Gamma) / 4) at unit efficiency,
    for a purity p in [0, 1] and |Re Gamma| <= 1 (NaN and bools refused)."""
    check_real("p", p)
    check_real("Re Gamma", re_gamma)
    if not (0.0 <= p <= 1.0 and abs(re_gamma) <= 1.0):
        raise ValueError(f"detection needs p in [0, 1] and |Re Gamma| <= 1, got p = {p!r}, "
                         f"Re Gamma = {re_gamma!r}")
    x = p * re_gamma
    return 0.25 * (1.0 + x), 0.25 * (1.0 - x)


def check_purity(p: float) -> None:
    """Refuse a purity outside (0, 1], or subnormal: p scales the calibration
    curve, which a subnormal p leaves without digits."""
    check_real("p", p)
    if not np.finfo(float).tiny <= p <= 1.0:  # refuses NaN too
        raise ValueError(f"p must be a normal float in (0, 1], got {p!r}")


def check_counts(n0: float, acquisition_s: float) -> None:
    """Refuse a rate scale n0 <= 0, an acquisition window that is not finite
    and > 0, or one that may expect more than ``MAX_EXPECTED_COUNTS`` counts:
    2 * n0 * acquisition_s, the counts at p++ = 1/2."""
    check_real("n0", n0)
    check_real("acquisition_s", acquisition_s)
    if not n0 > 0:  # refuses NaN too
        raise ValueError("n0 must be positive")
    if not 0.0 < acquisition_s < np.inf:
        raise ValueError(f"acquisition_s must be finite and > 0, got {acquisition_s}")
    counts = 2.0 * n0 * acquisition_s
    if counts > MAX_EXPECTED_COUNTS:
        raise ValueError(f"n0 {n0!r} and acquisition_s {acquisition_s!r} expect up to "
                         f"{counts:.3g} counts per acquisition, over {MAX_EXPECTED_COUNTS:.0e}")


def check_repeats(repeats: int) -> None:
    """Refuse repeats not an integer >= 1, or more than a (repeats, 2) counts array holds."""
    check_integer("repeats", repeats, 1)
    check_entries(2 * repeats)


def check_pattern(n_pixels: int, n_r: int) -> None:
    """Refuse a run n_r not an integer >= 1, or a period 2 * n_r longer than a mask half."""
    check_integer("n_r", n_r, 1)
    if 2 * n_r > n_pixels:
        raise ValueError(f"pattern period 2 * n_r = {2 * n_r} exceeds a mask half")


def check_shifts(n_phases: int) -> None:
    """Refuse calibration shifts of fewer than ``MIN_SHIFTS`` distinct phases h mod 2 * n_r."""
    if n_phases < MIN_SHIFTS:
        raise ValueError(f"the sine fit of V(h) needs shifts of {MIN_SHIFTS} distinct phases "
                         f"h mod 2 * n_r, got {n_phases}")


def simulate_counts(probs: tuple[float, float], n0: float, acquisition_s: float = 8.0,
                    repeats: int = 4, seed: SeedSpec = SeedSpec(0)) -> tuple[float, float]:
    """Shot-noise coincidence rates (N++, N+-) per second from detection probabilities.

    The rate scale n0 absorbs the source brightness and every collection
    efficiency: the expected rates are 4 * n0 * prob.  Each of ``repeats``
    acquisitions draws Poisson counts over ``acquisition_s`` seconds, and
    the rates are averaged over repeats in index order.
    """
    check_counts(n0, acquisition_s)
    check_repeats(repeats)
    for prob in probs:
        check_real("detection probability", prob)
    lam = [4.0 * n0 * prob * acquisition_s for prob in probs]
    if not min(lam) >= 0:  # refuses NaN too
        raise ValueError(f"expected counts {lam} are not all >= 0; check probabilities")
    # Plain floats, summed repeat by repeat: the bits of a float64 mean over axis 0.
    sums = [0.0, 0.0]
    for row in seed.generator().poisson(lam, size=(repeats, 2)).tolist():
        sums = [total + count for total, count in zip(sums, row)]
    return sums[0] / repeats / acquisition_s, sums[1] / repeats / acquisition_s


def visibility(n_pp: float, n_pm: float) -> float:
    """|N++ - N+-| / (N++ + N+-); undefined when both rates vanish."""
    total = n_pp + n_pm
    if total <= 0:
        raise ValueError("visibility undefined: zero total counts")
    return abs(n_pp - n_pm) / total


def rect_phase_pattern(n_pixels: int, n_r: int = 5) -> np.ndarray:
    """Static mask phases switching +-pi/4 every n_r pixels (``check_pattern``)."""
    check_pattern(n_pixels, n_r)
    steps = np.arange(n_pixels) // n_r
    return _PATTERN_AMPLITUDE * np.where(steps % 2 == 0, 1.0, -1.0)


@dataclass
class CalibrationResult:
    """Outcome of the correlated-pixel calibration."""

    h_values: np.ndarray
    v_of_h: np.ndarray
    vis_of_v: float
    vis_uncertainty: float
    w_cp_estimate: float
    w_cp_uncertainty: float
    curve_w: np.ndarray
    curve_vis: np.ndarray

    def __post_init__(self):
        if not 0.0 <= self.vis_of_v <= 1.0:
            raise ValueError("visibility contrast must lie in [0, 1]")


def _shifts(n_pix: int, h_values) -> np.ndarray:
    """The calibration shifts as one int array, each entry as given by ``slm.check_shift``."""
    shape = np.shape(h_values)
    if len(shape) != 1:
        raise ValueError(f"h_values must be one list of shifts, got shape {shape}")
    entries = h_values.tolist() if isinstance(h_values, np.ndarray) else h_values
    return np.array([check_shift(n_pix, h) for h in entries], dtype=int)


def _pattern_coherence(kernel: KernelParams, w_cp: Sequence[float], n_r: int,
                       h_values: np.ndarray) -> np.ndarray:
    """Re Gamma(h) of the rectangular pattern on both halves, per width of ``w_cp``
    (rows) with the beam width, order and geometry of ``kernel``, and per shift
    of the int array ``h_values`` (columns, as ``_shifts`` gives them).

    Gamma(h) = sum_k a_k z_{k+h} over the k whose shifted index stays on the
    mask, the rest dropped as by ``slm.phasor_sum``, with a = z^T W, i.e.
    a_k = g2_k sum_j z_j g1_j c[j - k + N - 1] / total.  Re z is the constant
    cos(pi/4), so Re a correlates c with g1 and Im a with sin(pattern) * g1,
    both in one einsum (with the 2^500 lift of ``slm.pair_sums``) over the
    band of diagonals of ``slm.kernel_band``, which also gives the total and
    refuses a kernel without support.  The diagonals left out weigh less than
    2^-70 at every width, so with |z| = 1 each Gamma(h) moves by less than
    that.  Every width shares the one envelope pair g1, g2, and c takes one
    row per width from one exp.
    """
    n_pix = kernel.geometry.pixels_per_half
    pattern = rect_phase_pattern(n_pix, n_r)
    g1, g2, c = kernel_factors(kernel, w_cp)
    total, lo, hi, _ = kernel_band(c, pair_sums(g1, g2))
    lift = 2.0**500
    # [p, i] = envelope p (g1, then sin(pattern) * g1) at pixel i - N + 1, zero off the mask
    envelopes = np.zeros((2, 3 * n_pix - 2))
    envelopes[:, n_pix - 1:2 * n_pix - 1] = g1 * lift
    envelopes[1, n_pix - 1:2 * n_pix - 1] *= np.sin(pattern)
    # [p, k, d - lo] = envelopes[p, k + d]: the band of diagonals row k reads
    band = windows(envelopes, hi - lo)[:, lo:lo + n_pix]
    corr = np.einsum("wd,pkd->wpk", c[:, lo:hi] * lift, band, optimize=False) / lift**2
    a = (np.cos(_PATTERN_AMPLITUDE) * corr[:, 0] + 1j * corr[:, 1]) * (g2 / total[:, None])
    # [h, k] = z_{k+h}, read from z padded with zeros off the mask
    padded = np.zeros(3 * n_pix, complex)
    padded[n_pix:2 * n_pix] = np.exp(1j * pattern)
    shifted = windows(padded, n_pix)[n_pix + h_values]
    return np.clip(np.einsum("wk,hk->wh", a, shifted, optimize=False).real, -1.0, 1.0)


def calibrate_wcp(
    kernel_params: KernelParams,
    p: float = 0.927,
    n_r: int = 5,
    h_values: Optional[np.ndarray] = None,
    n0: float = 250.0,
    acquisition_s: float = 8.0,
    repeats: int = 4,
    shot_noise: bool = True,
    seed: SeedSpec = SeedSpec(0),
) -> CalibrationResult:
    """Estimate the correlated-pixel width from pattern-contrast data.

    ``kernel_params.w_cp`` plays the role of the unknown true width: the
    measurement leg reads Re Gamma(h) for every shift from the pattern
    contraction of its kernel and turns it into V(h), with shot noise by
    default (averaging ``repeats`` acquisitions of ``acquisition_s`` per
    point) or as p * |Re Gamma| without.  The estimation leg builds the
    noise-free contrast of each of 20 widths over [0.5, 10] px, with the
    same beam width and order (one contraction and one sine fit serve all
    21 widths), fits a cubic polynomial in w mapped onto [-1, 1], and
    inverts it at the measured contrast; a contrast the curve does not reach
    raises NumericalError.  Both fits go through one modified Gram-Schmidt QR
    (``_least_squares``) in single-threaded einsums and the cubic and its
    slope are evaluated by Horner's rule, so no BLAS or LAPACK kernel chosen
    for the CPU reaches the calibration's bits.
    Uncertainty combines the sine-fit scatter with the polynomial residual,
    both divided by the local curve slope.  A contrast within 5 sigma of
    zero is shot noise, not a measurement: it raises NumericalError before
    the inversion, as does a shift that records no coincidence.
    """
    check_purity(p)
    check_flag("shot_noise", shot_noise)
    h_values = _shifts(kernel_params.geometry.pixels_per_half,
                       np.arange(-10, 10) if h_values is None else h_values)

    # Row 0: the measured width; rows 1..: the noise-free curve's widths.
    curve_w = np.linspace(_CURVE_RANGE[0], _CURVE_RANGE[1], _CURVE_SAMPLES)
    re_gamma, *curve_re = _pattern_coherence(kernel_params, [kernel_params.w_cp, *curve_w.tolist()],
                                             n_r, h_values)
    check_shifts(len(set((h_values % (2 * n_r)).tolist())))
    if shot_noise:
        v = np.empty(h_values.size)
        # Python floats, which carry the bits of the array's float64 entries
        # through the per-shift arithmetic without numpy's scalar overhead.
        for i, re in enumerate(re_gamma.tolist()):
            rates = simulate_counts(detection_probabilities(p, re), n0, acquisition_s, repeats,
                                    seed=seed.item(i))
            if not sum(rates) > 0:
                raise NumericalError(
                    f"shift h = {h_values[i]} recorded no coincidences in {repeats} x "
                    f"{acquisition_s:g} s at n0 = {n0:g}; raise n0 or acquisition_s")
            v[i] = visibility(*rates)
    else:
        v = p * np.abs(re_gamma)
    # One least-squares sine of period 2 * n_r in h per row: V(h), then the curve's.
    phase = np.pi * h_values / n_r
    basis = np.stack([np.ones(h_values.size), np.cos(phase), np.sin(phase)])
    coef, resid = _least_squares(basis, np.vstack([v, p * np.abs(curve_re)]))
    amplitude, offset = float(np.hypot(coef[0, 1], coef[0, 2])), float(coef[0, 0])
    if offset <= 0:
        raise NumericalError("sine fit returned a non-positive offset")
    vis = amplitude / offset
    rms = np.sqrt(np.mean(resid[0] ** 2))
    sigma_amp = rms * np.sqrt(2.0 / h_values.size)
    sigma_off = rms / np.sqrt(h_values.size)
    vis_sigma = vis * np.sqrt(
        (sigma_amp / max(amplitude, 1e-12)) ** 2 + (sigma_off / offset) ** 2
    )
    curve_vis = np.hypot(coef[1:, 1], coef[1:, 2]) / coef[1:, 0]
    t = _to_window(curve_w)
    (cubic,), (cubic_resid,) = _least_squares(np.stack([np.ones_like(t), t, t * t, t * t * t]),
                                              curve_vis[None, :])
    poly_rms = float(np.sqrt(np.mean(cubic_resid**2)))

    if vis < _MIN_CONTRAST_SIGMAS * vis_sigma:
        raise NumericalError(
            f"measured contrast {vis:.4g} +- {vis_sigma:.2g} ({vis / vis_sigma:.1f} sigma) "
            f"is not resolved above the shot noise; {_MIN_CONTRAST_SIGMAS:g} sigma are needed"
        )
    w_est = _invert_monotone(cubic, vis, _CURVE_RANGE)
    slope = abs(_cubic(cubic, w_est)[1])
    if slope < 1e-9:
        raise NumericalError("calibration curve is flat at the inversion point")
    w_sigma = float(np.sqrt(vis_sigma**2 + poly_rms**2) / slope)

    return CalibrationResult(
        h_values=h_values,
        v_of_h=v,
        vis_of_v=float(np.clip(vis, 0.0, 1.0)),
        vis_uncertainty=float(vis_sigma),
        w_cp_estimate=float(w_est),
        w_cp_uncertainty=w_sigma,
        curve_w=curve_w,
        curve_vis=curve_vis,
    )


def _least_squares(basis: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares coefficients (r, k) and residuals (r, m) of each of the r rows
    of ``rhs`` on the k basis rows of ``basis``, all sampled at the same m points.

    Modified Gram-Schmidt QR of the basis, with each projection applied to the
    data as it is made (the augmented-matrix form, which keeps the residual
    orthogonal to the basis to rounding), then back substitution in R.  It never
    forms the normal equations, which square the basis's condition number.  The
    inner products are single-threaded einsums, so no BLAS kernel or thread
    count reaches the bits.  A basis row that is a combination of the rows
    before it leaves a zero pivot and raises NumericalError.
    """
    q, y = np.array(basis, float), np.array(rhs, float)
    k = q.shape[0]
    r = np.zeros((k, k))  # R, upper triangle
    d = np.empty((y.shape[0], k))  # Q^T y, per data row
    for j in range(k):
        r[j, j] = np.sqrt(np.einsum("m,m->", q[j], q[j], optimize=False))
        if not r[j, j] > 0:
            raise NumericalError("least-squares basis is rank-deficient")
        q[j] /= r[j, j]
        r[j, j + 1:] = np.einsum("m,im->i", q[j], q[j + 1:], optimize=False)
        q[j + 1:] -= r[j, j + 1:, None] * q[j]
        d[:, j] = np.einsum("m,im->i", q[j], y, optimize=False)
        y -= d[:, j, None] * q[j]
    coef = np.empty_like(d)
    for j in reversed(range(k)):
        tail = np.einsum("ri,i->r", coef[:, j + 1:], r[j, j + 1:], optimize=False)
        coef[:, j] = (d[:, j] - tail) / r[j, j]
    return coef, y


def _to_window(w):
    """Widths mapped linearly from the curve's range onto [-1, 1], where its
    cubic is fitted, as ``numpy.polynomial.Polynomial.fit`` maps its domain."""
    lo, hi = _CURVE_RANGE
    return -(hi + lo) / (hi - lo) + 2.0 / (hi - lo) * w


def _cubic(coef, w):
    """The calibration cubic sum_i coef[i] t^i at widths w (t = ``_to_window(w)``)
    and its slope in w, both by Horner's rule."""
    c0, c1, c2, c3 = coef
    t = _to_window(w)
    lo, hi = _CURVE_RANGE
    return ((c3 * t + c2) * t + c1) * t + c0, 2.0 / (hi - lo) * ((3.0 * c3 * t + 2.0 * c2) * t + c1)


def _invert_monotone(coef, target: float, w_range: tuple[float, float]) -> float:
    """Root of cubic(w) = target on the decreasing branch inside w_range.

    A target the curve never reaches inside w_range raises NumericalError
    rather than returning an endpoint as if it were a measurement.
    """
    lo, hi = w_range
    grid = np.linspace(lo, hi, 400)
    curve = _cubic(coef, grid)[0]
    vals = curve - target
    sign_change = np.nonzero(np.diff(np.sign(vals)) != 0)[0]
    if sign_change.size == 0:
        raise NumericalError(
            f"measured contrast {target:.4g} lies outside the calibration "
            f"curve's range [{curve.min():.4g}, {curve.max():.4g}] over "
            f"w_cp in [{lo:g}, {hi:g}] px"
        )
    i = sign_change[0]
    a, b = grid[i], grid[i + 1]
    fa, fb = vals[i], vals[i + 1]
    return float(a - fa * (b - a) / (fb - fa))
