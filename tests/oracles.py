"""Independent oracles the tests hold the package to.

The package computes the detection probabilities of the dephased state in
closed form, stores each phase field as its phasors only and builds the
kernel sum's block table from the kernel's factors.  The density matrix
with its Wootters concurrence and |++>/|+-> projections, the per-pixel
noise phases re-drawn from a field's documented streams, and the block
table run-summed from the dense kernel (``slm.build_kernel``) live here as
the slower, more literal routes to the same numbers.  So does the dense
Toeplitz pair (``toeplitz_product``, ``normalization``): the kernel's total
summed column by column, where the package sums c against the diagonal
pair sums of ``slm.pair_sums``, and the dense contraction of the
calibration pattern built on it.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ltgsim.measurement import rect_phase_pattern
from ltgsim.rtn import RtnParams, SeedSpec, TrajectoryBatch, sample_trajectory, stack_batches
from ltgsim.slm import KernelParams, PhaseField, _on_mask, build_kernel, kernel_factors

_PLUS_PLUS = 0.5 * np.array([1.0, 1.0, 1.0, 1.0])
_PLUS_MINUS = 0.5 * np.array([1.0, -1.0, 1.0, -1.0])

_SIGMA_Y2 = np.array(
    [[0, 0, 0, -1],
     [0, 0, 1, 0],
     [0, 1, 0, 0],
     [-1, 0, 0, 0]], dtype=float
)  # sigma_y (x) sigma_y in the {HH, HV, VH, VV} basis


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
    for E(t) = |Gamma(t)| on the states the channel produces.  Uses the
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


def projections(state: TwoQubitState) -> tuple[float, float]:
    """(p++, p+-): projections of the density matrix onto |++> and |+->."""
    p_pp = float((_PLUS_PLUS @ state.rho @ _PLUS_PLUS).real)
    p_pm = float((_PLUS_MINUS @ state.rho @ _PLUS_MINUS).real)
    return p_pp, p_pm


def field_trajectories(fld: PhaseField) -> TrajectoryBatch:
    """The independent blocks of ``fld``, re-drawn from their streams.

    Block b of a field built at ``seed`` is
    ``sample_trajectory(RtnParams(gamma, max(times)), seed.item(b))``.
    """
    p = fld.params
    params, seed = RtnParams(p["gamma"], float(fld.times.max())), SeedSpec(p["master_seed"], p["stream_index"])
    return stack_batches([sample_trajectory(params, seed.item(b)) for b in range(fld.n_blocks() // 2)])


def field_phases(fld: PhaseField) -> np.ndarray:
    """Per-pixel noise phases of ``fld``, shape (pixels, T).

    The re-drawn independent blocks, then their mirror twins as -phi,
    gathered by ``block_index``.
    """
    phi = field_trajectories(fld).phases(fld.times).T
    return np.concatenate([phi, -phi])[fld.block_index]


def run_sums(a: np.ndarray, index: np.ndarray) -> np.ndarray:
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


def block_table(params: KernelParams, field1: PhaseField, field2: PhaseField,
                delta: int) -> tuple[np.ndarray, int]:
    """(B, first): the unflushed block table of the kernel sum, from the dense kernel.

    The on-mask columns of ``build_kernel(params).weights`` run-summed over
    the blocks of field 1 (rows), then over the blocks of field 2 that the
    shifted columns read; column c of B is block ``first`` + c of field 2.
    """
    on = _on_mask(params.geometry.pixels_per_half, delta)
    index2 = field2.block_index[on.start + delta:on.stop + delta]
    rows = run_sums(build_kernel(params).weights[:, on], field1.block_index)
    return np.ascontiguousarray(run_sums(rows.T, index2).T), int(index2[0])


def toeplitz_product(c: np.ndarray, g: np.ndarray) -> np.ndarray:
    """[..., k] = sum_j c[..., j - k + N - 1] * g[..., j], N = g.shape[-1], by one einsum.

    Both operands are scaled by 2^500 past the subnormal range, as in
    ``slm.pair_sums``.
    """
    lift = 2.0**500
    # [..., k, j] = c[..., j - k + N - 1]: the windows of c, last start first
    toeplitz = sliding_window_view(c * lift, g.shape[-1], axis=-1)[..., ::-1, :]
    return np.einsum("...kj,...j->...k", toeplitz, g * lift, optimize=False) / lift**2


def normalization(g1: np.ndarray, g2: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(corr, total): corr = ``toeplitz_product(c, g1)`` and total = g2 . corr,
    the kernel's whole weight summed column by column, batched over leading axes."""
    corr = toeplitz_product(c, g1)
    return corr, np.einsum("...k,...k->...", g2, corr, optimize=False)


def dense_pattern_coherence(kernel: KernelParams, w_cp: list[float], n_r: int,
                            h_values: np.ndarray) -> np.ndarray:
    """Re Gamma(h) of ``measurement._pattern_coherence`` over every j - k diagonal.

    a = z^T W from the dense Toeplitz products of the factors of ``kernel``
    at each width of ``w_cp``, each formed on its own: Re a from the
    correlation of c with g1 that ``normalization`` also takes for the total,
    Im a from the one with sin(pattern) * g1.
    """
    n_pix = kernel.geometry.pixels_per_half
    pattern = rect_phase_pattern(n_pix, n_r)
    kernels = [replace(kernel, w_cp=w) for w in w_cp]
    g1, g2, c = (np.array(f) for f in zip(*map(kernel_factors, kernels)))
    corr_re, total = normalization(g1, g2, c)
    corr_im = toeplitz_product(c, g1 * np.sin(pattern))
    a = (np.cos(np.pi / 4) * corr_re + 1j * corr_im) * (g2 / total[:, None])
    shifted = sliding_window_view(np.pad(np.exp(1j * pattern), n_pix), n_pix)[n_pix + h_values]
    return np.einsum("wk,hk->wh", a, shifted).real
