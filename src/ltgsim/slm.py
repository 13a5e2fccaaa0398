"""Pixel encoding of noise on a 1D phase mask and the kernel-sum coherence.

The mask has two halves of ``pixels_per_half`` pixels (default 320 each).
Half 1 carries qubit 1 with pixels j = 0..319 and half 2 carries qubit 2
with pixels k = 320..639; the half-2 axis runs opposite to half 1, so
equal offsets from the reference pixels (j0, k0) face each other
spatially.  A pair distribution over the pixel offsets dj = j - j0 and
dk = k - k0 encodes the beam envelope w_p and the photon-pair correlation
width w_cp, both in pixels (super-Gaussian order n even).  Its one
representation is its factors (``kernel_factors``):

    weights[j, k] = g1[j] * g2[k] * c[j - k + N - 1] / total,
    g1 = exp(-2*dj^2 / w_p^2),  g2 = exp(-2*dk^2 / w_p^2),
    c = exp(-2*|dj - dk|^n / w_cp^n),

with total = c . s, s[d] the sum of g1 g2 along diagonal d (``pair_sums``).
``kernel_band`` forms every total, for the kernel sum, the calibration in
``measurement`` and the dense kernel alike.

Noise enters as a phase field phi(offset, t) built from telegraph-noise
trajectories, constant over blocks of ``n_rep`` consecutive offsets.  Every
field is balanced: the blocks of the first half-mask of offsets are
independent, and offset i + n/2 carries -phi of offset i, so the phases sum
to zero at every time (``pixels_per_half`` must be even).  The
dephasing channel puts *twice* the noise phase between the polarization
components of each photon (the sigma_z eigenvalues differ by 2), so the
coherence factor read out by the kernel sum is

    Gamma(delta, t) = sum_jk weights[j,k]
                      * exp(2i * (phi1(dj, t) + phi2(dk + delta, t))).

With one shared field and delta = 0 this realizes the common-environment
limit <e^{4i phi}>; shifting by delta >= n_rep (or using independent
fields) decorrelates the two halves toward the independent-environment
limit <e^{2i phi}>^2.  A correlation width w_cp beyond n_rep (a wider
source spectrum) decorrelates them too, so both routes between the limits
are one sweep, ``transition_sweep``: one shared field, read by each kernel
at each shift.

Because phi is constant over blocks, ``kernel_coherence`` contracts over
block pairs:

    Gamma(delta, t) = sum_{b1 b2} B[b1, b2] * z1[b1, t] * z2[b2, t],
    z[b, t] = exp(2i * phi_block(b, t)),

where B[b1, b2] sums the on-mask weights of every pixel pair (j, k) with
j in block b1 of field 1 and k + delta in block b2 of field 2, and
``build_phase_field`` takes the phasors z once per field.  B is built from
the factors over the run of j - k diagonals whose weight can reach the
flush (``kernel_band``), and its entries below the rest of a 2^-70 budget
divided by B.size, the Gaussian tails, are set to zero.  What is left out
weighs less than 2^-70, so Gamma moves by less than that at every t.  The
contraction runs by single-threaded einsum over groups of block rows, each
over the columns that hold its nonzeros, in a fixed order, so the result
does not depend on the thread count.
``build_kernel`` (the dense (N, N) weights, ``CorrelationKernel``) and
``phasor_sum`` (the literal pixel sum for arbitrary mask phases) are test
oracles only: no model path calls them.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .optics import NumericalError, real_exp
from .rtn import (RtnParams, SeedSpec, check_ensemble, check_entries, check_integer, check_real,
                  sample_trajectory, stack_batches)
from .series import KERNEL_SUM, CoherenceSeries, check_times

_NO_SUPPORT = "kernel has no support on the mask"

# Bound on the weight a contraction leaves out of a kernel, and so on the
# change of Gamma (|z| = 1): far below the rounding of the sum itself (~1e-16).
_FLUSH_MASS = 2.0**-70


@dataclass(frozen=True)
class MaskGeometry:
    """Pixel layout of the two mask halves.

    ``j0`` / ``k0`` are the reference (central) pixels of each half, in
    mask numbering; they may be fractional to model a beam center sitting
    off the pixel center by a sub-pixel amount.
    """

    pixels_per_half: int = 320
    j0: float = 160.0
    k0: float = 480.0

    def __post_init__(self):
        n = self.pixels_per_half
        check_integer("pixels_per_half", n, 2)
        check_entries(n * (2 * n - 1))  # the kernel sum's pair weights, at most n x (2n - 1)
        check_real("j0", self.j0)
        check_real("k0", self.k0)
        if not 0 <= self.j0 < n:
            raise ValueError(f"j0 must lie in [0, {n})")
        if not n <= self.k0 < 2 * n:
            raise ValueError(f"k0 must lie in [{n}, {2 * n})")

    def offsets1(self) -> np.ndarray:
        """dj = j - j0 for every half-1 pixel, in array order."""
        return np.arange(self.pixels_per_half, dtype=float) - self.j0

    def offsets2(self) -> np.ndarray:
        """dk = k - k0 for every half-2 pixel, in array order."""
        return np.arange(self.pixels_per_half, dtype=float) + self.pixels_per_half - self.k0


@dataclass(frozen=True)
class KernelParams:
    """Pair-distribution parameters: correlation width, beam width, order."""

    w_cp: float
    w_p: float
    n: int = 2
    geometry: MaskGeometry = field(default_factory=MaskGeometry)

    def __post_init__(self):
        check_real("w_cp", self.w_cp)
        check_real("w_p", self.w_p)
        if not self.w_cp > 0 or not self.w_p > 0:  # refuses NaN too
            raise ValueError("w_cp and w_p must be positive")
        check_integer("n", self.n, 2)
        if self.n % 2 != 0:
            raise ValueError(
                f"super-Gaussian order n must be a positive even integer, got {self.n}; "
                "odd orders make the correlation factor sign-ambiguous"
            )
        # kernel_factors divides by w_cp**n and w_p**2: both must be normal floats.
        for name, width, power in (("w_cp", self.w_cp, self.n), ("w_p", self.w_p, 2)):
            try:
                ok = np.finfo(float).tiny <= float(width) ** power < math.inf
            except OverflowError:
                ok = False
            if not ok:
                raise ValueError(f"{name}**{power} = {width!r}**{power} is not a finite normal float")


@dataclass
class CorrelationKernel:
    """Normalized pixel-pair weights |f_jk|^2 (rows: half 1, cols: half 2): a test oracle."""

    weights: np.ndarray
    params: KernelParams

    def __post_init__(self):
        w = self.weights
        if np.any(w < 0):
            raise ValueError("kernel weights must be non-negative")
        if not abs(w.sum() - 1.0) <= 1e-12:  # refuses NaN too
            raise ValueError("kernel weights must sum to 1 within 1e-12")


def kernel_factors(params: KernelParams, w_cp: Sequence[float] | None = None
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Beam envelopes g1, g2 and correlation values c of the pair distribution.

    weights[j, k] = g1[j] * g2[k] * c[j - k + N - 1] / total for N pixels per
    half: the correlation factor depends only on j - k (2N - 1 values).
    Given ``w_cp``, c has one row per width, from one exp: bit for bit the c
    of ``params`` with that w_cp (a valid ``KernelParams`` width).
    """
    dj, dk = params.geometry.offsets1(), params.geometry.offsets2()
    diff = np.concatenate([dj[0] - dk[:0:-1], dj - dk[0]])
    scale = (params.w_cp**params.n if w_cp is None
             else np.array([w**params.n for w in w_cp])[:, None])
    # A quotient past the float range (a tiny normal width) is -inf: a factor
    # of exactly 0, as exp gives already far below the overflow.
    with np.errstate(over="ignore"):
        return (real_exp(-2.0 * dj**2 / params.w_p**2), real_exp(-2.0 * dk**2 / params.w_p**2),
                real_exp(-2.0 * np.abs(diff) ** params.n / scale))


def _windows(a: np.ndarray, width: int) -> np.ndarray:
    """Read-only view (a.size - width + 1, width) of every run of ``width``
    consecutive entries of a 1-D array: ``sliding_window_view`` without its
    argument handling, which cost ~12 us a call on the per-shift path."""
    step = a.strides[0]
    return as_strided(a, (a.size - width + 1, width), (step, step), writeable=False)


def pair_sums(g1: np.ndarray, g2: np.ndarray, cols: slice | np.ndarray = slice(None)) -> np.ndarray:
    """s[d] = sum of g1[j] * g2[k] over the pairs of diagonal d = j - k + N - 1 with
    k in ``cols``, by one einsum.  The tails reach the subnormal range, where
    products are many times slower: both operands are scaled by 2^500 (exactly;
    every sum stays below 2^1010) and the sums scaled back."""
    n_pix, lift = g1.size, 2.0**500
    padded = np.zeros(3 * n_pix - 2)
    padded[n_pix - 1:2 * n_pix - 1] = g1 * lift
    # [k, d] = g1[k + d - N + 1], the pair (j, k) of diagonal d, zero off the mask
    g1_diag = _windows(padded, 2 * n_pix - 1)[cols]
    return np.einsum("kd,k->d", g1_diag, g2[cols] * lift, optimize=False) / lift**2


def kernel_band(c: np.ndarray, s: np.ndarray, mass: float = _FLUSH_MASS
                ) -> tuple[np.ndarray, int, int, np.ndarray]:
    """(total, lo, hi, left_out): total = c . s per kernel (row of c), [lo, hi) the
    run of diagonals d where some kernel's weight c[d] s[d] / total reaches
    mass / (2N - 1), and left_out the weight outside it, below ``mass``.  A
    kernel without weight on the mask raises NumericalError."""
    total = np.einsum("...d,d->...", c, s, optimize=False)
    if not np.all(total > 0):
        raise NumericalError(_NO_SUPPORT)
    share = c * (s / total[..., None])
    kept = np.flatnonzero((share >= mass / s.size).reshape(-1, s.size).any(axis=0))
    lo, hi = int(kept[0]), int(kept[-1]) + 1
    return total, lo, hi, share[..., :lo].sum(axis=-1) + share[..., hi:].sum(axis=-1)


def _factored_kernel(params: KernelParams) -> tuple[np.ndarray, ...]:
    """(g1, g2, c, s): ``kernel_factors`` and their ``pair_sums``, read at any shift."""
    g1, g2, c = kernel_factors(params)
    return g1, g2, c, pair_sums(g1, g2)


def build_kernel(params: KernelParams) -> CorrelationKernel:
    """The normalized pair distribution as one (N, N) array: a test oracle only."""
    g1, g2, c = kernel_factors(params)
    total = kernel_band(c, pair_sums(g1, g2))[0]
    w = g1[:, None] * g2[None, :]
    w *= _windows(c, g2.size)[:, ::-1]
    w /= total
    return CorrelationKernel(w, params)


def field_blocks(n_pix: int, n_rep: int) -> int:
    """Independent blocks of a phase field, ceil(n_pix / 2 / n_rep), for an integer n_rep >= 1."""
    check_integer("n_rep", n_rep, 1)
    return -(-(n_pix // 2) // n_rep)


def check_mirror(n_pix: int) -> None:
    """Refuse an odd pixel count: a phase field mirrors each block half a mask away."""
    if n_pix % 2:
        raise ValueError(f"pixels_per_half {n_pix} is odd; a phase field mirrors each block "
                         "half a mask away and needs an even number of pixels per half")


def check_field_grid(n_indep: int, points: int) -> None:
    """Refuse a grid on which the phasors of n_indep blocks and their mirror
    twins fail ``rtn.check_entries``."""
    check_entries(2 * n_indep * points)


@dataclass
class PhaseField:
    """Noise phasors exp(2i * phi(offset, t)) on one mask half, stored per block.

    The field is constant within blocks of ``params["n_rep"]`` consecutive
    offsets.  ``phasors[b, g]`` is exp(2i * phi_b(times[g])) for block b,
    and ``block_index[i]`` is the block that offset index i (offset i - n/2
    relative to the reference pixel) carries.  Blocks are numbered along
    the mask: block_index runs 0, 0, .., 1, 1, .. and steps by one, so each
    block is one run of consecutive offsets.  The kernel sum reads only the
    phasors; the phases are not kept (see :func:`build_phase_field` for the
    stream each block's trajectory is drawn from).
    """

    phasors: np.ndarray
    times: np.ndarray
    block_index: np.ndarray
    geometry: MaskGeometry
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        steps = np.diff(self.block_index)
        if self.block_index[0] != 0 or np.any((steps != 0) & (steps != 1)):
            raise ValueError("block_index must number the blocks along the mask, one run each")

    def n_blocks(self) -> int:
        return self.phasors.shape[0]


def build_phase_field(gamma: float, times: np.ndarray, n_rep: int,
                      geometry: MaskGeometry = MaskGeometry(), seed: SeedSpec = SeedSpec(0)
                      ) -> PhaseField:
    """Sample a blockwise-constant, balanced noise phase field for one mask half.

    The first half-mask of offsets holds ceil(n_pixels / 2 / n_rep)
    independent blocks, block b covering offsets [b*n_rep, (b+1)*n_rep)
    (a truncated final block where n_rep does not divide n_pixels / 2).
    Each is mirrored half a mask away: offset i + n_pixels/2 carries -phi
    of offset i, and ``phasors`` holds the independent rows followed by
    their mirrored twins.  The half-mask separation keeps *adjacent* blocks
    independent, so small delta shifts see unbiased statistics, and the
    per-pixel phase sum is exactly zero at every time, which is what keeps
    the kernel-sum coherence real in the ideal-ensemble sense.  The mirror
    needs an even number of pixels per half.  Every block starts from the
    stationary ensemble (initial sign +1 with probability 1/2).

    ``times`` must be non-empty, ascending and >= 0.  One :meth:`TrajectoryBatch.phases`
    call over the whole grid gives the phases of every independent block.
    """
    n_pix = geometry.pixels_per_half
    n_indep = field_blocks(n_pix, n_rep)
    check_mirror(n_pix)
    times = check_times(times)
    if times.size == 0:
        raise ValueError("phase fields need at least one time point")
    params = RtnParams(gamma=gamma, t_max=float(times.max()))
    check_ensemble(gamma, params.t_max, n_indep)
    check_field_grid(n_indep, times.size)

    span = n_pix // 2
    # Block b draws from ``seed.item(b)``, so a field takes streams
    # [s+1, s+1+n_indep).  Callers building several independent fields must
    # space their stream indices by at least that count (a stride of 1000 is
    # ample for any n_rep >= 1).
    base = stack_batches([sample_trajectory(params, seed.item(b)) for b in range(n_indep)])

    # One whole-grid integration of the independent rows, written as
    # exp(2i * phi) straight into the table; a mirrored twin reads exactly
    # -phi, so its phasor is conj(z), bit for bit exp(2i * -phi).
    phasors = np.empty((2 * n_indep, times.size), dtype=complex)
    z = phasors[:n_indep]
    np.multiply(base.phases(times).T, 2j, out=z)
    np.exp(z, out=z)
    np.conjugate(z, out=phasors[n_indep:])
    block_half = np.arange(span) // min(n_rep, span)
    return PhaseField(
        phasors=phasors,
        times=times,
        block_index=np.concatenate([block_half, block_half + n_indep]),
        geometry=geometry,
        params={
            "gamma": gamma,
            "n_rep": n_rep,
            "master_seed": seed.master_seed,
            "stream_index": seed.stream_index,
        },
    )


# Block rows per einsum in the banded contraction of ``kernel_coherence``.
# Any group size gives the same bits (only exact zeros are skipped); 6 rows
# measured fastest at n_rep = 3.
_BAND_ROWS = 6


def check_shift(n_pix: int, delta: int) -> int:
    """The shift of half 2 in pixels as an int.  Refuses one that is not an integer
    (a float, whole or not, a bool, which would run as 0 or 1, or a string), or
    that moves every pixel off the mask."""
    if isinstance(delta, bool) or not isinstance(delta, numbers.Integral):
        raise ValueError(f"shift delta={delta!r} is not an integer")
    if abs(delta) >= n_pix:
        raise ValueError(f"shift delta={delta} moves every pixel off the mask")
    return int(delta)


def _on_mask(n_pix: int, delta: int) -> slice:
    """Kernel columns i whose half-2 index i + delta stays on the mask."""
    return slice(max(0, -delta), min(n_pix, n_pix - delta))


def phasor_sum(kernel: CorrelationKernel, slm_phases1: np.ndarray, slm_phases2: np.ndarray,
               delta: int = 0) -> np.ndarray:
    """Kernel-weighted sum of phasors of literal mask phases: a test oracle.

    ``slm_phases*`` have shape (pixels, T); half 2 is read at offset
    index i + delta.  Pixel pairs whose shifted index falls off the mask
    are dropped *without* renormalizing: photons addressed past the mask
    edge are simply lost.
    """
    n_pix = kernel.weights.shape[0]
    if slm_phases1.shape[0] != n_pix or slm_phases2.shape[0] != n_pix:
        raise ValueError("phase arrays do not match the kernel pixel count")
    if slm_phases1.shape[1] != slm_phases2.shape[1]:
        raise ValueError("phase arrays must share one time grid")
    delta = check_shift(n_pix, delta)
    on = _on_mask(n_pix, delta)
    z1 = np.exp(1j * slm_phases1)                                   # (n_pix, T)
    z2 = np.exp(1j * slm_phases2[on.start + delta:on.stop + delta])  # (n_on, T)
    m = np.einsum("jk,kt->jt", kernel.weights[:, on], z2, optimize=False)
    return (z1 * m).sum(axis=0)


def _flush(table: np.ndarray, mass: float) -> float:
    """Zero the entries of ``table`` below ``mass / table.size``; returns their sum (< mass)."""
    flushed = table < mass / table.size
    out = float(table[flushed].sum())
    table[flushed] = 0.0
    return out


def _block_weights(factors: tuple[np.ndarray, ...], index1: np.ndarray, index2: np.ndarray,
                   on: slice) -> tuple[np.ndarray, float, float]:
    """(B, flushed_mass, lost_mass) of the on-mask kernel, from ``_factored_kernel``.

    The diagonals of ``kernel_band`` at a budget of one flush threshold,
    ``_FLUSH_MASS / B.size``, enter B, pair weights formed as in
    ``build_kernel``.  B is flushed with the rest of ``_FLUSH_MASS``;
    flushed_mass is the weight left out plus the flushed weight, and
    lost_mass = c . s / total over the columns off the mask.
    """
    g1, g2, c, s = factors
    n_pix, first = g1.size, int(index2[0])
    shape = (int(index1[-1]) + 1, int(index2[-1]) - first + 1)
    total, lo, hi, left_out = kernel_band(c, s, _FLUSH_MASS / (shape[0] * shape[1]))
    # Row j reads columns j + n_pix - hi .. j + n_pix - 1 - lo: a window of g2
    # and of the block columns, zero off the mask and padded by n_pix - 1.
    g2_pad, cols_pad = np.zeros(3 * n_pix - 2), np.zeros(3 * n_pix - 2, dtype=np.intp)
    at = slice(n_pix - 1 + on.start, n_pix - 1 + on.stop)
    g2_pad[at], cols_pad[at] = g2[on], index2 - first
    rows = slice(2 * n_pix - 1 - hi, 3 * n_pix - 1 - hi)
    g2_win, cols_win = (_windows(a, hi - lo)[rows] for a in (g2_pad, cols_pad))
    w = g1[:, None] * g2_win
    w *= c[lo:hi][::-1]
    w /= total
    cells = (index1[:, None] * shape[1] + cols_win).ravel()
    # The pairs of one row and block pair first, then those sums: two short
    # sums, not one long one (at n_rep = 320 a block pair holds 160^2 pairs).
    runs = np.flatnonzero(np.r_[True, cells[1:] != cells[:-1]])
    table = np.bincount(cells[runs], np.add.reduceat(w.ravel(), runs),
                        minlength=shape[0] * shape[1]).reshape(shape)
    off = np.concatenate((np.arange(on.start), np.arange(on.stop, n_pix)))
    lost = float(np.einsum("d,d->", c, pair_sums(g1, g2, off), optimize=False) / total)
    return table, float(left_out) + _flush(table, _FLUSH_MASS - left_out), lost


def _band_product(table: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``table @ z`` as one einsum per group of block rows, over its nonzero columns.

    einsum accumulates each output entry term by term in column order, so
    leaving out exact zeros keeps every bit: the result equals
    ``np.einsum("ab,bt->at", table, z, optimize=False)``.
    """
    n_rows, n_cols = table.shape
    nonzero = table != 0
    cols = np.arange(n_cols)
    starts = np.arange(0, n_rows, _BAND_ROWS)
    lo = np.minimum.reduceat(np.where(nonzero, cols, n_cols).min(axis=1), starts)
    hi = np.maximum.reduceat(np.where(nonzero, cols + 1, 0).max(axis=1), starts)
    out = np.zeros((n_rows, z.shape[1]))
    for r, c0, c1 in zip(starts.tolist(), lo.tolist(), hi.tolist()):
        if c0 < c1:
            band = slice(r, r + _BAND_ROWS)
            np.einsum("ab,bt->at", table[band, c0:c1], z[c0:c1], out=out[band], optimize=False)
    return out


def _class_masses(table: np.ndarray, first: int, n_blocks: int) -> dict:
    """Weight of B on same-block, mirror-twin and independent pairs of one field."""
    gap = np.abs(np.arange(table.shape[0])[:, None] - (first + np.arange(table.shape[1])))
    same, mirror = gap == 0, gap == n_blocks // 2
    return {
        "m_same": float(table[same].sum()),
        "m_mirror": float(table[mirror].sum()),
        "m_indep": float(table[~(same | mirror)].sum()),
    }


def kernel_coherence(params: KernelParams, field1: PhaseField, field2: PhaseField,
                     delta: int = 0, factors: tuple[np.ndarray, ...] | None = None
                     ) -> CoherenceSeries:
    """Coherence factor Gamma(delta, t) of the pixel-encoded channel.

    Each pixel pair contributes exp(2i*(phi1 + phi2)), twice the noise phase
    (see the module docstring).  Passing ``field2 = field1`` writes one phase
    function across both halves; ``delta`` shifts the half-2 phase array in
    pixels.  The sum runs over the block table B of the module docstring,
    with ``params["b_nonzeros"]`` nonzero entries.  ``params["flushed_mass"]``
    <= 2^-70, the weight of B's zeroed entries and of the diagonals left out,
    bounds the change of Gamma(t) at every t, since |z1 z2| = 1.  As in
    ``phasor_sum``, pairs shifted off the mask are dropped without
    renormalizing; their weight is ``params["lost_mass"]``.

    With one shared field, ``params`` also holds the class masses of B:
    ``m_same`` (both pixels in one block, phasor e^{4i phi}), ``m_mirror``
    (a block and its mirror twin, phasor 1) and ``m_indep`` (independent
    blocks).  The ensemble mean of Gamma is m_same * M4(t) + m_mirror +
    m_indep * M2(t)^2, with M_m the moments of ``analytic.exponential_moment``.

    ``factors`` is ``_factored_kernel(params)`` from a caller that reads one
    kernel at several shifts; by default it is formed here.
    """
    if field1.geometry != params.geometry or field2.geometry != params.geometry:
        raise ValueError("kernel and phase fields must share one mask geometry")
    if not np.array_equal(field1.times, field2.times):
        raise ValueError("phase fields must share one time grid")
    delta = check_shift(params.geometry.pixels_per_half, delta)
    on = _on_mask(params.geometry.pixels_per_half, delta)
    # Column c of B is block first + c of field 2: B spans only the blocks
    # the shifted kernel reads.
    index2 = field2.block_index[on.start + delta:on.stop + delta]
    if factors is None:
        factors = _factored_kernel(params)
    table, flushed_mass, lost = _block_weights(factors, field1.block_index, index2, on)
    first = int(index2[0])
    # B is real, so it contracts the interleaved (re, im) floats of z2: the
    # same products as a complex einsum at a fraction of the cost.
    z2 = field2.phasors[first:first + table.shape[1]].view(float)
    m = _band_product(table, z2).view(complex)
    values = np.multiply(field1.phasors, m, out=m).sum(axis=0)
    shared = field2 is field1
    return CoherenceSeries(
        field1.times,
        values,
        KERNEL_SUM,
        params={
            "delta": delta,
            "lost_mass": lost,
            "flushed_mass": flushed_mass,
            "b_nonzeros": int(np.count_nonzero(table)),
            **(_class_masses(table, first, field1.n_blocks()) if shared else {}),
            "w_cp": params.w_cp,
            "w_p": params.w_p,
            "n": params.n,
            "n_rep": field1.params["n_rep"],
            "shared_field": shared,
            **{k: field1.params.get(k) for k in ("gamma", "master_seed", "stream_index")},
        },
    )


def transition_sweep(gamma: float, kernels: Sequence[KernelParams], deltas: Sequence[int],
                     times: np.ndarray, n_rep: int = 3, seed: SeedSpec = SeedSpec(0)
                     ) -> list[CoherenceSeries]:
    """Gamma(delta, t) for each kernel and shift, kernel-major, on one field.

    Both routes from local to global noise are this one sum over one phase
    field (and hence one set of noise realizations), built on the mask
    geometry of ``kernels``: decreasing the shift delta to zero, or
    narrowing w_cp (a narrower source spectrum) below the block size n_rep,
    lets the two qubits see the same phase blocks, walking the channel from
    independent-looking environments to one common environment.  Each
    kernel's factors and diagonal pair sums are formed once, for all its shifts.
    """
    if not kernels:
        return []
    fld = build_phase_field(gamma, times, n_rep, kernels[0].geometry, seed)
    sweep = []
    for params in kernels:
        factors = _factored_kernel(params)
        sweep += [kernel_coherence(params, fld, fld, d, factors) for d in deltas]
    return sweep
