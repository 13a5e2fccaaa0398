"""Two-qubit output state, coincidence counting and width calibration.

The channel leaves the populations of HH and VV at 1/2 and multiplies the
HH-VV coherence by p * Gamma(t), where p in [0, 1] is the purity of the
initial state (p = 1 is the Bell state).  Detection behind 45/135-degree
polarizers turns the real part of the coherence into coincidence-count
contrast:

    p++ = (1 + p Re Gamma) / 4      rate N++ = N0 (1 + p Re Gamma)
    p+- = (1 - p Re Gamma) / 4      rate N+- = N0 (1 - p Re Gamma)
    visibility V = |N++ - N+-| / (N++ + N+-) = p |Re Gamma|

The correlated-pixel calibration imprints a static rectangular phase
pattern (+-pi/4 every n_r pixels) on both mask halves, shifts the second
half by h, and reads the visibility V(h).  The contrast of V(h) falls as
the kernel width w_cp blurs the pattern, which makes it an estimator of
w_cp once compared against a simulated contrast-versus-width curve
(20 widths over [0.5, 10] px).  The pattern does not change with h, so
each kernel W is contracted once, a = z^T W with z = exp(i * pattern),
and Gamma(h) = sum_k a_k z_{k+h} follows for every shift from a.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .optics import NumericalError
from .rtn import SeedSpec
from .slm import CorrelationKernel, KernelParams, _on_mask, build_kernel

_PLUS_PLUS = 0.5 * np.array([1.0, 1.0, 1.0, 1.0])
_PLUS_MINUS = 0.5 * np.array([1.0, -1.0, 1.0, -1.0])

_SIGMA_Y2 = np.array(
    [[0, 0, 0, -1],
     [0, 0, 1, 0],
     [0, 1, 0, 0],
     [-1, 0, 0, 0]], dtype=float
)  # sigma_y (x) sigma_y in the {HH, HV, VH, VV} basis

# A measured pattern contrast below this many standard errors sits in the
# shot-noise floor (~0.005-0.018 at the default counts), which overlaps the
# calibration curve's range, so inverting it would return a wrong width.
_MIN_CONTRAST_SIGMAS = 5.0

# Phase of the calibration pattern (the paper's +-pi/4), and the widths (px)
# of its simulated contrast-versus-width curve.
_PATTERN_AMPLITUDE = np.pi / 4
_CURVE_RANGE = (0.5, 10.0)
_CURVE_SAMPLES = 20


@dataclass
class TwoQubitState:
    """4x4 density matrix in the {HH, HV, VH, VV} polarization basis."""

    rho: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        if rho.shape != (4, 4):
            raise ValueError("density matrix must be 4x4")
        if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
            raise ValueError("density matrix must be Hermitian within 1e-12")
        if abs(np.trace(rho).real - 1.0) > 1e-12:
            raise ValueError("density matrix must have unit trace within 1e-12")
        if np.linalg.eigvalsh(rho).min() < -1e-10:
            raise ValueError("density matrix must be positive semidefinite")
        self.rho = rho


def build_state(p: float, gamma_value: complex) -> TwoQubitState:
    """Dephased two-qubit state with purity p and coherence factor Gamma."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("purity p must lie in [0, 1]")
    if abs(gamma_value) > 1.0 + 1e-9:
        raise ValueError("|Gamma| must not exceed 1")
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho[3, 3] = 0.5
    rho[0, 3] = 0.5 * p * gamma_value
    rho[3, 0] = np.conj(rho[0, 3])
    return TwoQubitState(rho)


def concurrence(state: TwoQubitState) -> float:
    """Wootters concurrence of an arbitrary two-qubit state.

    Independent of the dephasing-channel structure; serves as the oracle
    for E(t) = |Gamma(t)| on the states this package produces.  Uses the
    Hermitian form sqrt(rho) rho~ sqrt(rho), whose eigensolve is
    backward-stable (the plain product rho rho~ is non-Hermitian and
    loses half the digits near degenerate spectra).
    """
    rho = state.rho
    evals, vecs = np.linalg.eigh(rho)
    sqrt_rho = (vecs * np.sqrt(np.clip(evals, 0.0, None))) @ vecs.conj().T
    # The Wootters lambdas are the singular values of
    # sqrt(rho) (sy x sy) sqrt(rho)* (sy x sy): singular values carry
    # absolute (not square-rooted) rounding error near zero.
    a = sqrt_rho @ _SIGMA_Y2 @ sqrt_rho.conj() @ _SIGMA_Y2
    lams = np.linalg.svd(a, compute_uv=False)
    return float(max(0.0, lams[0] - lams[1] - lams[2] - lams[3]))


def detection_probabilities(state: TwoQubitState) -> tuple[float, float]:
    """(p++, p+-): projections onto |++> and |+-> at unit efficiency."""
    p_pp = float((_PLUS_PLUS @ state.rho @ _PLUS_PLUS).real)
    p_pm = float((_PLUS_MINUS @ state.rho @ _PLUS_MINUS).real)
    return p_pp, p_pm


@dataclass
class CountRecord:
    """Coincidence rates (per second) in the two polarizer settings."""

    n_pp: float
    n_pm: float
    n0: float
    acquisition_s: float
    repeats: int

    def __post_init__(self):
        if self.n_pp < 0 or self.n_pm < 0:
            raise ValueError("count rates cannot be negative")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")


def simulate_counts(
    probs: tuple[float, float],
    n0: float,
    acquisition_s: float = 8.0,
    repeats: int = 4,
    seed: SeedSpec = SeedSpec(0),
    shot_noise: bool = True,
) -> CountRecord:
    """Coincidence rates from detection probabilities.

    The rate scale n0 absorbs the source brightness and every collection
    efficiency, so rates are n0 * (1 +- p Re Gamma) = 4 * n0 * prob.
    With ``shot_noise`` each repeat draws Poisson counts over the
    acquisition window; rates are averaged over repeats in index order.
    """
    if n0 <= 0:
        raise ValueError("n0 must be positive")
    expected = 4.0 * n0 * np.asarray(probs, dtype=float)
    if np.any(expected < 0):
        raise ValueError("negative expected rate; check probabilities")
    if shot_noise:
        rng = seed.generator()
        counts = rng.poisson(expected[None, :] * acquisition_s, size=(repeats, 2))
        rates = counts.mean(axis=0) / acquisition_s
    else:
        rates = expected
    return CountRecord(float(rates[0]), float(rates[1]), n0, acquisition_s, repeats)


def visibility(record: CountRecord) -> float:
    """|N++ - N+-| / (N++ + N+-); undefined when both rates vanish."""
    total = record.n_pp + record.n_pm
    if total <= 0:
        raise ValueError("visibility undefined: zero total counts")
    return abs(record.n_pp - record.n_pm) / total


def rect_phase_pattern(n_pixels: int, n_r: int = 5) -> np.ndarray:
    """Static mask phases switching +-pi/4 every n_r pixels."""
    if n_r < 1:
        raise ValueError("n_r must be >= 1")
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
    curve_w: np.ndarray = field(default_factory=lambda: np.empty(0))
    curve_vis: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self):
        if not 0.0 <= self.vis_of_v <= 1.0:
            raise ValueError("visibility contrast must lie in [0, 1]")


def _pattern_coherence(kernel: CorrelationKernel, n_r: int, h_values: np.ndarray) -> np.ndarray:
    """Re Gamma(h) of the rectangular pattern on both halves, for every shift h.

    Gamma(h) = sum_jk W[j,k] z_j z_{k+h} over the k whose shifted index
    stays on the mask, with z = exp(i * pattern).  The pattern does not
    change with h, so a = z^T W is contracted once and each shift is the
    sum of a_k z_{k+h}; pairs shifted off the mask are dropped without
    renormalizing, as in ``slm.phasor_sum``, which is the pixel-level
    oracle for this contraction.  Both sums are single-threaded einsums.
    """
    n_pix = kernel.weights.shape[0]
    z = np.exp(1j * rect_phase_pattern(n_pix, n_r))
    a = np.einsum("j,jk->k", z, kernel.weights, optimize=False)
    re = np.empty(h_values.size)
    for i, h in enumerate(h_values.tolist()):
        on = _on_mask(n_pix, h)
        re[i] = np.einsum("k,k->", a[on], z[on.start + h:on.stop + h], optimize=False).real
    return np.clip(re, -1.0, 1.0)


def _sine_fit(h_values: np.ndarray, v: np.ndarray, n_r: int) -> tuple[float, float, float]:
    """Amplitude, offset and rms residual of the LSQ sine of period 2 * n_r in h."""
    basis = np.column_stack(
        [np.ones(h_values.size),
         np.cos(np.pi * h_values / n_r),
         np.sin(np.pi * h_values / n_r)]
    )
    coef, _, _, _ = np.linalg.lstsq(basis, v, rcond=None)
    resid = v - basis @ coef
    return (float(np.hypot(coef[1], coef[2])), float(coef[0]),
            float(np.sqrt(np.mean(resid**2))))


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
    measurement leg reads Re Gamma(h) for every shift from one pattern
    contraction of its kernel and turns it into V(h), with shot noise by
    default (averaging ``repeats`` acquisitions of ``acquisition_s`` per
    point) or as p * |Re Gamma| without.  The estimation leg builds the
    noise-free contrast of each of 20 widths over [0.5, 10] px, with the
    same beam width and order and one contraction per kernel, fits a cubic
    polynomial, and inverts it at the measured contrast; a contrast the
    curve does not reach raises NumericalError.  Uncertainty combines the
    sine-fit scatter with the polynomial residual, both divided by the
    local curve slope.  A contrast within 5 sigma of zero is shot noise,
    not a measurement, and raises NumericalError as well.
    """
    if h_values is None:
        h_values = np.arange(-10, 10)
    h_values = np.asarray(h_values, dtype=int)

    re_gamma = _pattern_coherence(build_kernel(kernel_params), n_r, h_values)
    if shot_noise:
        # shift i draws its counts from stream s + 1 + i of the seed
        v = np.empty(h_values.size)
        for i, re in enumerate(re_gamma):
            rec = simulate_counts(
                (0.25 * (1.0 + p * re), 0.25 * (1.0 - p * re)), n0, acquisition_s, repeats,
                seed=SeedSpec(seed.master_seed, seed.stream_index + 1 + i),
            )
            v[i] = visibility(rec)
    else:
        v = p * np.abs(re_gamma)
    amplitude, offset, rms = _sine_fit(h_values, v, n_r)
    if offset <= 0:
        raise NumericalError("sine fit returned a non-positive offset")
    vis = amplitude / offset
    npts = h_values.size
    sigma_amp = rms * np.sqrt(2.0 / npts)
    sigma_off = rms / np.sqrt(npts)
    vis_sigma = vis * np.sqrt(
        (sigma_amp / max(amplitude, 1e-12)) ** 2 + (sigma_off / offset) ** 2
    )

    # Simulated calibration curve (noise-free) and cubic fit.
    curve_w = np.linspace(_CURVE_RANGE[0], _CURVE_RANGE[1], _CURVE_SAMPLES)
    curve_vis = np.empty(_CURVE_SAMPLES)
    for i, w in enumerate(curve_w):
        k = build_kernel(
            KernelParams(w_cp=float(w), w_p=kernel_params.w_p,
                         n=kernel_params.n, geometry=kernel_params.geometry)
        )
        v_i = p * np.abs(_pattern_coherence(k, n_r, h_values))
        a_i, c_i, _ = _sine_fit(h_values, v_i, n_r)
        curve_vis[i] = a_i / c_i
    poly = np.polynomial.Polynomial.fit(curve_w, curve_vis, deg=3)
    poly_rms = float(np.sqrt(np.mean((poly(curve_w) - curve_vis) ** 2)))

    w_est = _invert_monotone(poly, vis, _CURVE_RANGE)
    if vis < _MIN_CONTRAST_SIGMAS * vis_sigma:
        raise NumericalError(
            f"measured contrast {vis:.4g} +- {vis_sigma:.2g} ({vis / vis_sigma:.1f} sigma) "
            f"is not resolved above the shot noise; {_MIN_CONTRAST_SIGMAS:g} sigma are needed"
        )
    slope = abs(poly.deriv()(w_est))
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


def _invert_monotone(poly, target: float, w_range: tuple[float, float]) -> float:
    """Root of poly(w) = target on the decreasing branch inside w_range.

    A target the curve never reaches inside w_range raises NumericalError
    rather than returning an endpoint as if it were a measurement.
    """
    lo, hi = w_range
    grid = np.linspace(lo, hi, 400)
    curve = poly(grid)
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
