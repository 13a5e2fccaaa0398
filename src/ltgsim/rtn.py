"""Random telegraph noise: trajectories, noise phases, Monte Carlo moments.

The noise is a dichotomous process X(t) = +-1 flipping at Poisson rate
``gamma``; its autocorrelation is exp(-2*gamma*t).  A qubit coupled to X
through a dephasing interaction accumulates the noise phase
phi(t) = integral of X(s) ds, and ensemble coherences reduce to averages
of exp(i*m*phi(t)).

Jumps are sampled as exact event times (exponential waiting times, or
equivalently uniform order statistics given a Poisson count), so phase
integrals carry no time-step discretization error.  Every ensemble, one
realization or many, is a :class:`TrajectoryBatch` of initial signs and
+inf-padded jump times, and :meth:`TrajectoryBatch.phases_at` is the one
phase integrator: the Monte Carlo moments and the pixel phase fields of
:mod:`ltgsim.slm` both read phases from it.

Reproducibility: all randomness derives from numpy's PCG64 generator,
seeded via SeedSequence(master_seed, spawn_key=(stream_index, ...)).
Spawn-key derivation is collision-free by construction, so distinct
stream indices give statistically independent streams and the same
(master_seed, stream_index) pair is always bit-identical.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .series import MONTE_CARLO, CoherenceSeries

# Ensemble reductions accumulate per-realization values in fixed-size chunks,
# in ascending realization order.  The chunk size is a module constant, not a
# tunable: changing it changes the floating-point reduction order and
# therefore the bit pattern of results.
_REDUCE_CHUNK = 16384


@dataclass(frozen=True)
class RtnParams:
    """Switching rate, time horizon and initial-sign bias of the noise.

    ``p_plus`` is the probability of starting in the +1 state.  The default
    1/2 is the stationary ensemble; a fixed initial sign (p_plus = 0 or 1)
    is exposed for non-stationary studies but every closed-form moment in
    :mod:`ltgsim.analytic` assumes the stationary choice.
    """

    gamma: float
    t_max: float
    p_plus: float = 0.5

    def __post_init__(self):
        if not self.gamma >= 0.0:
            raise ValueError(f"switching rate gamma must be >= 0, got {self.gamma}")
        if not self.t_max > 0.0:
            raise ValueError(f"horizon t_max must be > 0, got {self.t_max}")
        if not 0.0 <= self.p_plus <= 1.0:
            raise ValueError(f"p_plus must lie in [0, 1], got {self.p_plus}")


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus a stream index selecting one independent substream."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        if self.stream_index < 0:
            raise ValueError("stream_index must be non-negative")

    def sequence(self, *branch: int) -> np.random.SeedSequence:
        return np.random.SeedSequence(
            entropy=self.master_seed, spawn_key=(self.stream_index, *branch)
        )

    def generator(self, *branch: int) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self.sequence(*branch)))


@dataclass
class TrajectoryBatch:
    """Column-padded ensemble of trajectories (padding value +inf).

    Row r is X(t) = signs[r] * (-1)**(number of jumps at or before t).
    """

    signs: np.ndarray       # (R,) +-1
    jump_times: np.ndarray  # (R, max_jumps), row-sorted, padded with +inf
    t_max: float

    def __len__(self) -> int:
        return self.signs.size

    def mirrored(self) -> "TrajectoryBatch":
        """The sign-flipped twins (phi -> -phi), same jump times."""
        return TrajectoryBatch(-self.signs, self.jump_times, self.t_max)

    def phases_at(self, t: float) -> np.ndarray:
        """phi(t) for every realization (exact, vectorized).

        Uses phi(t) = s * (t + 2 * sum_i (-1)^i * max(t - tau_i, 0)) over the
        jump times tau_i (i starting at 1); each jump flips the slope and a
        padding column contributes exactly zero.
        """
        jt = self.jump_times
        if jt.shape[1] == 0:
            return self.signs * t
        alt = np.where(np.arange(jt.shape[1]) % 2 == 0, -1.0, 1.0)
        dt = t - jt
        np.clip(dt, 0.0, None, out=dt)
        return self.signs * (t + 2.0 * (dt * alt[None, :]).sum(axis=1))


def stack_batches(batches: Sequence[TrajectoryBatch]) -> TrajectoryBatch:
    """Rows of ``batches`` in order, jump columns padded with +inf to one width."""
    width = max(b.jump_times.shape[1] for b in batches)
    jumps = np.full((sum(len(b) for b in batches), width), np.inf)
    row = 0
    for b in batches:
        jumps[row : row + len(b), : b.jump_times.shape[1]] = b.jump_times
        row += len(b)
    signs = np.concatenate([b.signs for b in batches])
    return TrajectoryBatch(signs, jumps, batches[0].t_max)


def sample_trajectory(params: RtnParams, seed: SeedSpec) -> TrajectoryBatch:
    """Draw one trajectory as a one-row batch; deterministic given (params, seed).

    Draw order: the initial sign (+1 with probability ``params.p_plus``),
    then exponential waiting times of rate gamma until one passes t_max.
    """
    rng = seed.generator()
    sign = 1.0 if rng.random() < params.p_plus else -1.0
    jumps = []
    if params.gamma > 0.0:
        t = rng.exponential(1.0 / params.gamma)
        while t <= params.t_max:
            jumps.append(t)
            t += rng.exponential(1.0 / params.gamma)
    return TrajectoryBatch(np.array([sign]), np.array([jumps], dtype=float), params.t_max)


def sample_batch(params: RtnParams, n_real: int, seed: SeedSpec) -> TrajectoryBatch:
    """Draw ``n_real`` independent trajectories from one derived stream.

    Distributionally identical to ``n_real`` calls of :func:`sample_trajectory`
    but one stream for the whole ensemble: given the Poisson jump count on
    [0, t_max], jump times are sorted iid uniforms.  Draw order (fixed, part
    of the reproducibility contract): jump counts, then all jump positions,
    then initial signs.
    """
    rng = seed.generator()
    counts = rng.poisson(params.gamma * params.t_max, n_real)
    width = int(counts.max()) if n_real else 0
    jumps = rng.random((n_real, width)) * params.t_max
    jumps[np.arange(width)[None, :] >= counts[:, None]] = np.inf
    jumps.sort(axis=1)
    signs = np.where(rng.random(n_real) < params.p_plus, 1.0, -1.0)
    return TrajectoryBatch(signs, jumps, params.t_max)


def mc_exponential_moment(
    params: RtnParams,
    order: int,
    times: np.ndarray,
    n_real: int,
    seed: SeedSpec,
    antithetic: bool = False,
) -> CoherenceSeries:
    """Monte Carlo estimate of < exp(i * order * phi(t)) > on a time grid.

    With ``antithetic`` set, realizations come in mirrored (phi, -phi)
    pairs, each pair contributing cos(order * phi) with an identically
    zero imaginary part; this is the balanced-realization selection that
    keeps the estimate real for every switching rate.

    The reduction runs over realizations in ascending index order with a
    fixed chunk size, so the result is bit-reproducible regardless of how
    the caller parallelizes around it.
    """
    times = np.asarray(times, dtype=float)
    if n_real < 2:
        raise ValueError("n_real must be >= 2")
    if order < 1 or int(order) != order:
        raise ValueError("moment order must be a positive integer")
    if antithetic and n_real % 2:
        raise ValueError("antithetic pairing requires an even n_real")
    if times.size and (times.min() < 0.0 or times.max() > params.t_max):
        raise ValueError("time grid must lie within [0, t_max]")

    n_draw = n_real // 2 if antithetic else n_real
    batch = sample_batch(params, n_draw, seed)

    values, se = _reduce(order, batch, times, imag=not antithetic)

    return CoherenceSeries(
        times,
        values,
        MONTE_CARLO,
        params={
            "gamma": params.gamma,
            "order": order,
            "n_real": n_real,
            "antithetic": antithetic,
            "p_plus": params.p_plus,
            "master_seed": seed.master_seed,
            "stream_index": seed.stream_index,
        },
        stderr=se,
    )


def _reduce(order: int, batch: TrajectoryBatch, times: np.ndarray, imag: bool):
    """Mean of exp(i * order * phi) and standard error of its real part,
    per grid time.

    Without ``imag`` only cos(order * phi) is summed and the imaginary part
    is exactly zero (antithetic pairs).  cos and sin come from one phase
    evaluation per (chunk, time).  Accumulation is chunked with
    _REDUCE_CHUNK in ascending realization order (deterministic bit
    pattern).
    """
    n = len(batch)
    total = np.zeros(times.size)
    total_sq = np.zeros(times.size)
    total_im = np.zeros(times.size)
    for start in range(0, n, _REDUCE_CHUNK):
        sub = TrajectoryBatch(
            batch.signs[start : start + _REDUCE_CHUNK],
            batch.jump_times[start : start + _REDUCE_CHUNK],
            batch.t_max,
        )
        for g, t in enumerate(times):
            phase = order * sub.phases_at(t)
            v = np.cos(phase)
            total[g] += v.sum()
            total_sq[g] += (v * v).sum()
            if imag:
                total_im[g] += np.sin(phase).sum()
    mean = total / n
    var = np.clip(total_sq / n - mean**2, 0.0, None)
    se = np.sqrt(var / max(n - 1, 1))
    return (mean + 1j * (total_im / n) if imag else mean.astype(complex)), se
