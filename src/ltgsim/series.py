"""Shared container for coherence-factor time series, and its time-grid rule.

Analytic formulas, Monte Carlo ensembles and kernel sums all produce the
same object so that one comparison harness serves every route, and every
route reads its time grid through the same rule, :func:`check_times`: the
one place a time argument is converted to floats.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

ANALYTIC = "analytic"
MONTE_CARLO = "monte_carlo"
KERNEL_SUM = "kernel_sum"

_PROVENANCES = (ANALYTIC, MONTE_CARLO, KERNEL_SUM)

# Allow a hair of float slop on the |value| <= 1 physics bound.
_MAG_TOL = 1e-9


def check_times(times, t_max: float = math.inf) -> np.ndarray:
    """The float grid of an array-like ``times``; refuses one that is not 1-D, holds
    no real numbers (complex, bool, strings or objects), is not ascending, or is not
    finite within [0, t_max]."""
    times = np.asarray(times)
    if times.ndim != 1:
        raise ValueError(f"time grid must be one-dimensional, got {times.ndim} dimensions")
    if times.dtype.kind not in "iuf":
        raise ValueError(f"time grid must hold real numbers, got {times.dtype.name} values")
    times = times.astype(float, copy=False)
    if times.size and not (0.0 <= times[0] and times[-1] <= t_max and times[-1] < math.inf
                           and np.all(np.diff(times) >= 0)):
        bound = ("t must be >= 0 and finite" if t_max == math.inf
                 else f"must be finite and lie within [0, {t_max!r}]")
        raise ValueError(f"time grid must be ascending and {bound}")
    return times


@dataclass
class CoherenceSeries:
    """Complex coherence factor ``values`` on an ascending grid ``times``
    (dimensionless units of the dephasing coupling).  Each value is an
    average of unit phasors, so its magnitude never exceeds 1 (up to float
    tolerance).  ``provenance`` is ``analytic``, ``monte_carlo`` or
    ``kernel_sum``, ``params`` a free-form record of what produced the
    series, and ``stderr`` the per-time standard error of the real part
    (Monte Carlo routes only)."""

    times: np.ndarray
    values: np.ndarray
    provenance: str
    params: dict = field(default_factory=dict)
    stderr: Optional[np.ndarray] = None

    def __post_init__(self):
        self.times = check_times(self.times)
        self.values = np.asarray(self.values, dtype=complex)
        if self.times.shape != self.values.shape:
            raise ValueError("times and values must have matching shapes")
        if self.provenance not in _PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        mag = np.abs(self.values)
        if mag.size and mag.max() > 1.0 + _MAG_TOL:
            raise ValueError(
                f"coherence magnitude {mag.max():.6g} exceeds 1; "
                "values must be averages of unit phasors"
            )
        if self.stderr is not None:
            self.stderr = np.asarray(self.stderr, dtype=float)

    @property
    def magnitude(self) -> np.ndarray:
        return np.abs(self.values)
