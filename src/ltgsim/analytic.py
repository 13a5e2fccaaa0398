"""Closed-form coherence factors for dephasing under telegraph noise.

These are the exact oracles for every Monte Carlo and kernel-sum result:

    < exp(i*m*phi(t)) > = exp(-g*t) * (cosh(d*t) + (g/d) * sinh(d*t)),
    d = sqrt(g*g - m*m),

with the stationary (equiprobable initial sign) ensemble.  For g < m the
root is imaginary and the hyperbolic form turns trigonometric; at g = m
it degenerates to exp(-g*t) * (1 + g*t).  The result is real in every
branch.  For g > m it is evaluated as exp(-m*x*t/(1+s)) * (1 + e/2 - e/(2s))
with x = m/g, s = d/g and e = expm1(-2*d*t), which stays finite at any g*t.

Local environments (independent noises):   Gamma_LE(t) = <e^{2i phi}>^2
Global environment (one shared noise):     Gamma_GE(t) = <e^{4i phi}>
Entanglement of the two-qubit state:       E(t) = |Gamma(t)|
"""
from __future__ import annotations

import numpy as np

from .rtn import check_moment, check_rate
from .series import ANALYTIC, CoherenceSeries, check_times

# Treat |gamma - order| below this as the degenerate branch; avoids
# catastrophic cancellation in gamma/delta near the crossover.
_DEGENERATE_TOL = 1e-9


def exponential_moment(gamma: float, order: int, t) -> np.ndarray | float:
    """< exp(i * order * phi(t)) > for stationary telegraph noise, real, at the
    time(s) t of a grid as ``series.check_times`` (scalar in, scalar out), for a
    switching rate gamma as ``rtn.check_rate`` and an order m as
    ``rtn.check_moment`` (2 and 4 are the two-qubit cases)."""
    check_rate(gamma)
    check_moment(order)
    t_arr = np.asarray(t, dtype=float)
    check_times(t_arr.ravel())

    if abs(gamma - order) < _DEGENERATE_TOL:
        out = np.exp(-gamma * t_arr) * (1.0 + gamma * t_arr)
    elif gamma > order:
        # exp(-g t) (cosh + (g/d) sinh) rewritten with e = exp(-2 d t) - 1 and
        # g - d = m^2 / (g + d), then in x = m / g and s = d / g = sqrt(1 - x^2)
        # (g^2, g + d and 2 d overflow near the largest floats):
        # exp(-m x t / (1 + s)) (1 + e/2 - e / (2 s)).  No factor overflows,
        # where exp(-g t) underflows against cosh's overflow once g t > ~710.
        x = order / gamma
        s = np.sqrt((1.0 - x) * (1.0 + x))
        d = gamma * s
        # Past d t = 20, expm1(-2 d t) is -1.0 exactly; capping t there keeps
        # d t finite at any g, and 0 at t = 0.
        e = np.expm1(-2.0 * (d * np.minimum(t_arr, 20.0 / d)))
        out = np.exp(-order * x * t_arr / (1.0 + s)) * (1.0 + 0.5 * e - e / (2.0 * s))
    else:
        w = np.sqrt(float(order) ** 2 - gamma * gamma)
        out = np.exp(-gamma * t_arr) * (
            np.cos(w * t_arr) + (gamma / w) * np.sin(w * t_arr)
        )
    return out if np.ndim(t) else float(out)


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

