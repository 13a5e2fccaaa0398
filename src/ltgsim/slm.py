"""Pixel encoding of noise on a 1D phase mask and the kernel-sum coherence.

The mask has two halves of ``pixels_per_half`` pixels (default 320 each).
Half 1 carries qubit 1 with pixels j = 0..319 and half 2 carries qubit 2
with pixels k = 320..639; the half-2 axis runs opposite to half 1, so
equal offsets from the reference pixels (j0, k0) face each other
spatially.  A pair distribution over pixel offsets,

    weights[j,k] ~ exp(-2*|dj-dk|^n / w_cp^n)
                   * exp(-2*dj^2 / w_p^2) * exp(-2*dk^2 / w_p^2),
    dj = j - j0,  dk = k - k0,

(unit sum; super-Gaussian order n even) encodes the beam envelope w_p and
the photon-pair correlation width w_cp, both in pixels.

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
block pairs rather than pixel pairs:

    Gamma(delta, t) = sum_{b1 b2} B[b1, b2] * z1[b1, t] * z2[b2, t],
    z[b, t] = exp(2i * phi_block(b, t)),

where B[b1, b2] sums the on-mask weights of every pixel pair (j, k) with
j in block b1 of field 1 and k + delta in block b2 of field 2.  Each block
covers one run of consecutive offsets, so B comes from two run sums (the
kernel rows of each field-1 block, then the on-mask columns of each
field-2 block, each added in pixel order), and ``build_phase_field``
takes the phasors z once per field.  B is banded: a pixel pair only carries weight within a few w_cp of
the diagonal, so the contraction runs over fixed groups of block rows, each
over the column range that holds its nonzeros; entries below the smallest
normal float are set to zero first (their weight is reported).  Every
contraction is a single-threaded einsum in a fixed order, so the result
does not depend on the thread count.
``phasor_sum`` keeps the literal pixel contraction for arbitrary (not
blockwise) mask phases.  No model path calls it: it is the pixel-level
oracle that the tests hold this block sum and the calibration's pattern
contraction (``measurement``) against.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .rtn import RtnParams, SeedSpec, sample_trajectory, stack_batches
from .series import KERNEL_SUM, CoherenceSeries


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
        if n < 1:
            raise ValueError("pixels_per_half must be positive")
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
        if self.w_cp <= 0 or self.w_p <= 0:
            raise ValueError("w_cp and w_p must be positive")
        if self.n < 2 or self.n % 2 != 0:
            raise ValueError(
                f"super-Gaussian order n must be a positive even integer, got {self.n}; "
                "odd orders make the correlation factor sign-ambiguous"
            )


@dataclass
class CorrelationKernel:
    """Normalized pixel-pair weights |f_jk|^2 (rows: half 1, cols: half 2)."""

    weights: np.ndarray
    params: KernelParams

    def __post_init__(self):
        w = self.weights
        if np.any(w < 0):
            raise ValueError("kernel weights must be non-negative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("kernel weights must sum to 1 within 1e-12")


def build_kernel(params: KernelParams) -> CorrelationKernel:
    """Evaluate and normalize the pair distribution on the pixel grid."""
    geo = params.geometry
    dj = geo.offsets1()
    dk = geo.offsets2()
    # The correlation factor depends only on j - k: take exp over the 2n - 1
    # differences (j - k = -(n-1) .. n-1), then lay them out as the Toeplitz
    # matrix corr[j, k] = corr_diff[j - k + n - 1].
    diff = np.concatenate([dj[0] - dk[:0:-1], dj - dk[0]])
    corr_diff = np.exp(-2.0 * np.abs(diff) ** params.n / params.w_cp**params.n)
    corr = sliding_window_view(corr_diff, dk.size)[:, ::-1]
    # One (n, n) array, scaled in place: a kernel is the largest array of a sweep.
    w = (np.exp(-2.0 * dj[:, None] ** 2 / params.w_p**2)
         * np.exp(-2.0 * dk[None, :] ** 2 / params.w_p**2))
    w *= corr
    total = w.sum()
    if total <= 0:
        raise ValueError("kernel has no support on the mask")
    w /= total
    return CorrelationKernel(w, params)


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


def build_phase_field(
    gamma: float,
    times: np.ndarray,
    n_rep: int,
    geometry: MaskGeometry = MaskGeometry(),
    seed: SeedSpec = SeedSpec(0),
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

    ``times`` must be ascending and non-empty.  The phases of every independent block
    come from one :meth:`TrajectoryBatch.phases` call over the whole grid.
    """
    times = np.asarray(times, dtype=float)
    if n_rep < 1:
        raise ValueError("n_rep must be >= 1")
    n_pix = geometry.pixels_per_half
    if n_pix % 2:
        raise ValueError("phase fields need an even number of pixels per half")
    if times.size == 0:
        raise ValueError("phase fields need at least one time point")
    params = RtnParams(gamma=gamma, t_max=float(times.max()))

    span = n_pix // 2
    n_indep = -(-span // n_rep)  # ceil
    base = stack_batches(
        [sample_trajectory(params, SeedSpec(seed.master_seed, seed.stream_index + 1 + b))
         for b in range(n_indep)]
    )
    # Stream derivation: block b of field stream s uses stream s+1+b, so a
    # field consumes streams [s+1, s+1+n_indep).  Callers building several
    # independent fields must space their stream indices by at least that
    # count (a stride of 1000 is ample for any n_rep >= 1).

    # One whole-grid integration of the independent rows, written as
    # exp(2i * phi) straight into the table; a mirrored twin reads exactly
    # -phi, so its phasor is conj(z), bit for bit exp(2i * -phi).
    phasors = np.empty((2 * n_indep, times.size), dtype=complex)
    z = phasors[:n_indep]
    np.multiply(base.phases(times).T, 2j, out=z)
    np.exp(z, out=z)
    np.conjugate(z, out=phasors[n_indep:])
    block_half = np.repeat(np.arange(n_indep), n_rep)[:span]
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


def _on_mask(n_pix: int, delta: int) -> slice:
    """Kernel columns i whose half-2 index i + delta stays on the mask."""
    on = slice(max(0, -delta), min(n_pix, n_pix - delta))
    if on.start >= on.stop:
        raise ValueError(f"shift delta={delta} moves every pixel off the mask")
    return on


def phasor_sum(
    kernel: CorrelationKernel,
    slm_phases1: np.ndarray,
    slm_phases2: np.ndarray,
    delta: int = 0,
) -> np.ndarray:
    """Kernel-weighted sum of phasors of literal mask phases.

    ``slm_phases*`` have shape (pixels, T); half 2 is read at offset
    index i + delta.  Pixel pairs whose shifted index falls off the mask
    are dropped *without* renormalizing: photons addressed past the mask
    edge are simply lost.  With the default beam width (w_p = 20 out of
    320 pixels) the lost mass is far below float precision.

    The (j, k) contraction runs in deterministic row-major order
    (single-threaded einsum), which the bit-reproducibility contract
    relies on.
    """
    n_pix = kernel.weights.shape[0]
    if slm_phases1.shape[0] != n_pix or slm_phases2.shape[0] != n_pix:
        raise ValueError("phase arrays do not match the kernel pixel count")
    if slm_phases1.shape[1] != slm_phases2.shape[1]:
        raise ValueError("phase arrays must share one time grid")
    delta = int(delta)
    on = _on_mask(n_pix, delta)
    z1 = np.exp(1j * slm_phases1)                                   # (n_pix, T)
    z2 = np.exp(1j * slm_phases2[on.start + delta:on.stop + delta])  # (n_on, T)
    m = np.einsum("jk,kt->jt", kernel.weights[:, on], z2, optimize=False)
    return (z1 * m).sum(axis=0)


def _run_sums(a: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Sums of the rows of ``a`` over each run of equal entries of ``index``.

    Each run's rows are added one by one in row order, all runs at once.
    """
    starts = np.flatnonzero(np.diff(index, prepend=-1))
    lengths = np.diff(starts, append=index.size)
    out = a[starts]
    for r in range(1, lengths.max()):
        more = lengths > r
        out[more] += a[starts[more] + r]
    return out


def _block_table(weights: np.ndarray, index1: np.ndarray, index2: np.ndarray) -> np.ndarray:
    """Sums of ``weights`` over the runs of ``index1`` (rows), then of ``index2`` (columns).

    Row b of the result is the b-th run of ``index1``, column c the c-th
    run of ``index2``; the result is C-contiguous.
    """
    return np.ascontiguousarray(_run_sums(_run_sums(weights, index1).T, index2).T)


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


def kernel_coherence(
    kernel: CorrelationKernel,
    field1: PhaseField,
    field2: PhaseField,
    delta: int = 0,
) -> CoherenceSeries:
    """Coherence factor Gamma(delta, t) of the pixel-encoded channel.

    The mask phase imprinted per pixel is twice the noise phase (see the
    module docstring), so each pixel pair contributes
    exp(2i*(phi1 + phi2)).  Passing ``field2 = field1`` writes one phase
    function across both halves; ``delta`` shifts the half-2 phase array
    in pixels.

    The sum runs over block pairs.  The on-mask kernel weights are summed
    into B[b1, b2] over runs: rows over the blocks of field 1, then the
    on-mask column slice over the blocks of field 2 it reads.  Entries of B
    below ``np.finfo(float).tiny`` (the kernel's underflowing Gaussian
    tails) are set to zero, so no product is subnormal; their weight is
    ``params["flushed_mass"]``.  Then Gamma(t) = sum_b1 z1[b1, t] *
    sum_b2 B[b1, b2] z2[b2, t], with the phasors z each field holds,
    contracted by single-threaded einsum over the band of B only (groups
    of ``_BAND_ROWS`` block rows, each over its nonzero columns).  As in
    ``phasor_sum``, pairs shifted off the mask are dropped without
    renormalizing; their weight is ``params["lost_mass"]``.

    With one shared field, ``params`` also holds the class masses of B:
    ``m_same`` (both pixels in one block, phasor e^{4i phi}), ``m_mirror``
    (a block and its mirror twin, phasor 1) and ``m_indep`` (independent
    blocks).  The ensemble mean of Gamma is m_same * M4(t) + m_mirror +
    m_indep * M2(t)^2, with M_m the moments of ``analytic.exponential_moment``.
    """
    if field1.geometry != kernel.params.geometry or field2.geometry != kernel.params.geometry:
        raise ValueError("kernel and phase fields must share one mask geometry")
    if field1.times.shape != field2.times.shape or not np.array_equal(
        field1.times, field2.times
    ):
        raise ValueError("phase fields must share one time grid")
    w = kernel.weights
    delta = int(delta)
    on = _on_mask(w.shape[0], delta)
    off = np.ones(w.shape[1], dtype=bool)
    off[on] = False
    # Column c of B is block first + c of field 2: B spans only the blocks
    # the shifted kernel reads.
    index2 = field2.block_index[on.start + delta:on.stop + delta]
    table, first = _block_table(w[:, on], field1.block_index, index2), int(index2[0])
    flushed = table < np.finfo(float).tiny
    flushed_mass = float(table[flushed].sum())
    table[flushed] = 0.0
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
            "lost_mass": float(w[:, off].sum()),
            "flushed_mass": flushed_mass,
            **(_class_masses(table, first, field1.n_blocks()) if shared else {}),
            "w_cp": kernel.params.w_cp,
            "w_p": kernel.params.w_p,
            "n": kernel.params.n,
            "n_rep": field1.params["n_rep"],
            "shared_field": shared,
            **{k: field1.params.get(k) for k in ("gamma", "master_seed", "stream_index")},
        },
    )


def transition_sweep(
    gamma: float,
    kernels: Sequence[KernelParams],
    deltas: Sequence[int],
    times: np.ndarray,
    n_rep: int = 3,
    seed: SeedSpec = SeedSpec(0),
) -> list[CoherenceSeries]:
    """Gamma(delta, t) for each kernel and shift, kernel-major, on one field.

    Both routes from local to global noise are this one sum over one phase
    field (and hence one set of noise realizations), built on the mask
    geometry of ``kernels``: decreasing the shift delta to zero, or
    narrowing w_cp (a narrower source spectrum) below the block size n_rep,
    lets the two qubits see the same phase blocks, walking the channel from
    independent-looking environments to one common environment.
    """
    if not kernels:
        return []
    fld = build_phase_field(gamma, times, n_rep, kernels[0].geometry, seed)
    out = []
    for params in kernels:
        kernel = build_kernel(params)
        out.extend(kernel_coherence(kernel, fld, fld, delta=d) for d in deltas)
    return out
