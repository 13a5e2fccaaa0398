"""Independent oracles the tests hold the package to.

The package computes the detection probabilities of the dephased state in
closed form and stores each phase field as its phasors only.  The density
matrix with its Wootters concurrence and |++>/|+-> projections, and the
per-pixel noise phases re-drawn from a field's documented streams, live
here as the slower, more literal routes to the same numbers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ltgsim.rtn import RtnParams, SeedSpec, TrajectoryBatch, sample_trajectory, stack_batches
from ltgsim.slm import PhaseField

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

    Block b of a field built at (master_seed, s) is
    ``sample_trajectory(RtnParams(gamma, max(times)), SeedSpec(master_seed, s + 1 + b))``.
    """
    p = fld.params
    params = RtnParams(p["gamma"], float(fld.times.max()))
    return stack_batches([
        sample_trajectory(params, SeedSpec(p["master_seed"], p["stream_index"] + 1 + b))
        for b in range(fld.n_blocks() // 2)
    ])


def field_phases(fld: PhaseField) -> np.ndarray:
    """Per-pixel noise phases of ``fld``, shape (pixels, T).

    The re-drawn independent blocks, then their mirror twins as -phi,
    gathered by ``block_index``.
    """
    phi = field_trajectories(fld).phases(fld.times).T
    return np.concatenate([phi, -phi])[fld.block_index]
