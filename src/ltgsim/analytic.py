"""Closed-form coherence factors for dephasing under telegraph noise.

These are the exact oracles for every Monte Carlo and kernel-sum result:

    < exp(i*m*phi(t)) > = exp(-g*t) * (cosh(d*t) + (g/d) * sinh(d*t)),
    d = sqrt(g*g - m*m),

with the stationary (equiprobable initial sign) ensemble.  For g < m the
root is imaginary and the hyperbolic form turns trigonometric; at g = m
it degenerates to exp(-g*t) * (1 + g*t).  The result is real in every
branch.

Local environments (independent noises):   Gamma_LE(t) = <e^{2i phi}>^2
Global environment (one shared noise):     Gamma_GE(t) = <e^{4i phi}>
Entanglement of the two-qubit state:       E(t) = |Gamma(t)|
"""
from __future__ import annotations

import numpy as np

from .series import ANALYTIC, CoherenceSeries

# Treat |gamma - order| below this as the degenerate branch; avoids
# catastrophic cancellation in gamma/delta near the crossover.
_DEGENERATE_TOL = 1e-9


def exponential_moment(gamma: float, order: int, t) -> np.ndarray | float:
    """< exp(i * order * phi(t)) > for stationary telegraph noise.

    Parameters
    ----------
    gamma : float
        Switching rate, >= 0.
    order : int
        Moment order m >= 1 (2 and 4 are the two-qubit cases).
    t : float or ndarray
        Time(s), >= 0.

    Returns
    -------
    Real moment value(s); scalar in, scalar out.
    """
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    if order < 1:
        raise ValueError("order must be >= 1")
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("t must be >= 0")

    if abs(gamma - order) < _DEGENERATE_TOL:
        out = np.exp(-gamma * t_arr) * (1.0 + gamma * t_arr)
    elif gamma > order:
        d = np.sqrt(gamma * gamma - float(order) ** 2)
        out = np.exp(-gamma * t_arr) * (
            np.cosh(d * t_arr) + (gamma / d) * np.sinh(d * t_arr)
        )
    else:
        w = np.sqrt(float(order) ** 2 - gamma * gamma)
        out = np.exp(-gamma * t_arr) * (
            np.cos(w * t_arr) + (gamma / w) * np.sin(w * t_arr)
        )
    return out if isinstance(t, np.ndarray) else float(out)


def local_coherence(gamma: float, times: np.ndarray) -> CoherenceSeries:
    """Gamma_LE: squared second moment, for independent per-qubit noises."""
    times = np.asarray(times, dtype=float)
    vals = exponential_moment(gamma, 2, times) ** 2
    return CoherenceSeries(
        times, vals.astype(complex), ANALYTIC, params={"gamma": gamma, "kind": "LE"}
    )


def global_coherence(gamma: float, times: np.ndarray) -> CoherenceSeries:
    """Gamma_GE: fourth moment, for one noise shared by both qubits."""
    times = np.asarray(times, dtype=float)
    vals = exponential_moment(gamma, 4, times)
    return CoherenceSeries(
        times, vals.astype(complex), ANALYTIC, params={"gamma": gamma, "kind": "GE"}
    )

