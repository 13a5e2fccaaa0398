"""Shared container for coherence-factor time series.

Analytic formulas, Monte Carlo ensembles and kernel sums all produce the
same object so that one comparison harness serves every route.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

ANALYTIC = "analytic"
MONTE_CARLO = "monte_carlo"
KERNEL_SUM = "kernel_sum"

_PROVENANCES = (ANALYTIC, MONTE_CARLO, KERNEL_SUM)

# Allow a hair of float slop on the |value| <= 1 physics bound.
_MAG_TOL = 1e-9


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
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        if self.times.shape != self.values.shape:
            raise ValueError("times and values must have matching shapes")
        if self.times.size > 1 and np.any(np.diff(self.times) < 0):
            raise ValueError("time grid must be ascending")
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

    def __len__(self) -> int:
        return self.times.size
