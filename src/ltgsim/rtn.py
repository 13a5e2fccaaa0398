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
+inf-padded jump times.  Between jumps a phase is linear in t, and
:meth:`TrajectoryBatch._segments` tabulates those pieces for a whole
ascending time grid by prefix sums over the jumps: each realization's
slope and offset per jump segment, and which segment holds each grid time.
:meth:`TrajectoryBatch.phases` evaluates them, and the pixel phase fields
of :mod:`ltgsim.slm` read their phases from it.  The Monte Carlo reduction
reads the same tables and forms cos and sin of the phases by angle
addition over the segments, so trig runs once per time and once per
segment, not once per (time, realization).

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

# Ensemble reductions evaluate phases in tiles of whole rows holding about
# this many (time, realization) phases, max(1, _TILE_PHASES // T) rows each,
# in ascending realization order.  A fixed element budget keeps the working
# set of a tile flat in the grid size (a fixed 16384-row tile would hold
# 52 MB per array at T = 400).  It is a module constant, not a tunable: the
# tile size fixes the floating-point reduction order and therefore the bit
# pattern of results.
_TILE_PHASES = 1 << 16

# Ceiling on the expected jump count gamma * t_max of one trajectory (and,
# in ``cli.validate_config``, of a whole run): 1e8 jump times are ~0.8 GB.
MAX_EXPECTED_JUMPS = 1e8


@dataclass(frozen=True)
class RtnParams:
    """Switching rate and time horizon of the noise.

    Every trajectory starts from the stationary ensemble (initial sign +1
    with probability 1/2), as the closed forms of :mod:`ltgsim.analytic`
    assume.
    """

    gamma: float
    t_max: float

    def __post_init__(self):
        if not 0.0 <= self.gamma < np.inf:
            raise ValueError(f"switching rate gamma must be finite and >= 0, got {self.gamma}")
        if not 0.0 < self.t_max < np.inf:
            raise ValueError(f"horizon t_max must be finite and > 0, got {self.t_max}")
        if self.gamma * self.t_max > MAX_EXPECTED_JUMPS:
            raise ValueError(
                f"gamma * t_max = {self.gamma * self.t_max:.3g} expected jumps exceeds "
                f"the {MAX_EXPECTED_JUMPS:,.0f} a trajectory may hold"
            )


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
    :meth:`phases` integrates it over a whole time grid at once, laid out
    (times, rows).
    """

    signs: np.ndarray       # (R,) +-1
    jump_times: np.ndarray  # (R, max_jumps), row-sorted, padded with +inf

    def __len__(self) -> int:
        return self.signs.size

    def mirrored(self) -> "TrajectoryBatch":
        """The sign-flipped twins (phi -> -phi), same jump times."""
        return TrajectoryBatch(-self.signs, self.jump_times)

    def phases(self, times: np.ndarray) -> np.ndarray:
        """phi at every time of an ascending grid, shape (T, R) (exact).

        Closed form: with c the number of jumps at or before t and
        P_c = sum_{i <= c} (-1)^i * tau_i (i starting at 1),

            phi(t) = s * ((-1)^c * t - 2 * P_c),

        since each jump flips the slope.  The slope s * (-1)^c and the
        offset -2 * s * P_c are gathered from the tables of
        :meth:`_segments`.  Realizations lie along the contiguous axis, so a
        per-time sum over them is numpy's pairwise sum.
        """
        times = np.asarray(times, dtype=float)
        if not np.all(times[1:] >= times[:-1]):
            raise ValueError("time grid must be ascending")
        if self.jump_times.shape[1] == 0:
            return times[:, None] * self.signs
        at_c, slope, offset = self._segments(times)
        phi = slope.take(at_c)
        phi *= times[:, None]
        phi += offset.take(at_c)
        return phi

    def _segments(self, times: np.ndarray):
        """The linear pieces of phi on an ascending grid.

        Returns ``(at_c, slope, offset)``: ``slope`` and ``offset`` are the
        flattened (jumps + 1, R) tables of s * (-1)^c and -2 * s * P_c, and
        ``at_c`` (T, R) is the flat index of (c, row) for each grid time, so
        phi = slope.take(at_c) * t + offset.take(at_c).  Each jump is binned
        to the first grid time at or after it (``searchsorted``; the +inf
        padding falls past the grid), and ``at_c`` follows from one
        ``bincount`` and a cumulative sum along the grid.  The offsets come
        from the row prefix sums of the alternating jump times, padding
        counted as 0.
        """
        jt = self.jump_times
        n_t, (n_r, n_j) = times.size, jt.shape
        rows = np.arange(n_r)
        bins = np.searchsorted(times, jt) * n_r + rows[:, None]
        at_c = np.bincount(bins.ravel(), minlength=(n_t + 1) * n_r).reshape(n_t + 1, n_r)[:n_t]
        at_c *= n_r
        at_c[0] += rows
        np.cumsum(at_c, axis=0, out=at_c)  # c * n_r + row
        parity = np.where(np.arange(n_j + 1) % 2 == 0, 1.0, -1.0)  # (-1)^k
        prefix = np.zeros((n_j + 1, n_r))
        np.cumsum((np.where(np.isfinite(jt), jt, 0.0) * parity[1:]).T, axis=0, out=prefix[1:])
        return at_c, (parity[:, None] * self.signs).ravel(), (-2.0 * self.signs * prefix).ravel()


def stack_batches(batches: Sequence[TrajectoryBatch]) -> TrajectoryBatch:
    """Rows of ``batches`` in order, jump columns padded with +inf to one width."""
    width = max(b.jump_times.shape[1] for b in batches)
    jumps = np.full((sum(len(b) for b in batches), width), np.inf)
    row = 0
    for b in batches:
        jumps[row : row + len(b), : b.jump_times.shape[1]] = b.jump_times
        row += len(b)
    signs = np.concatenate([b.signs for b in batches])
    return TrajectoryBatch(signs, jumps)


def sample_trajectory(params: RtnParams, seed: SeedSpec) -> TrajectoryBatch:
    """Draw one trajectory as a one-row batch; deterministic given (params, seed).

    Draw order: the initial sign (+1 with probability 1/2),
    then exponential waiting times of rate gamma until one passes t_max.
    """
    rng = seed.generator()
    sign = 1.0 if rng.random() < 0.5 else -1.0
    jumps = []
    if params.gamma > 0.0:
        t = rng.exponential(1.0 / params.gamma)
        while t <= params.t_max:
            jumps.append(t)
            t += rng.exponential(1.0 / params.gamma)
    return TrajectoryBatch(np.array([sign]), np.array([jumps], dtype=float))


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
    signs = np.where(rng.random(n_real) < 0.5, 1.0, -1.0)
    return TrajectoryBatch(signs, jumps)


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

    ``times`` must be ascending.  The reduction runs over realizations in
    ascending index order with a fixed tile size, so the result is
    bit-reproducible regardless of how the caller parallelizes around it.
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
            "master_seed": seed.master_seed,
            "stream_index": seed.stream_index,
            "jump_columns": batch.jump_times.shape[1],
            "max_stderr": float(np.max(se, initial=0.0)),
        },
        stderr=se,
    )


def _reduce(order: int, batch: TrajectoryBatch, times: np.ndarray, imag: bool):
    """Mean of exp(i * order * phi) and standard error of its real part,
    per grid time.

    Without ``imag`` only cos(order * phi) is summed and the imaginary part
    is exactly zero (antithetic pairs).  Rows are taken in ascending tiles
    of max(1, _TILE_PHASES // T), laid out (T, rows); the per-time sums run
    over the contiguous row axis and the per-tile sums are added in tile
    order (deterministic bit pattern).

    No trig runs per (time, row).  Between jumps m * phi = sigma * m * t + B
    with sigma = +-1 and B = m * offset, both read from the segment tables
    of :meth:`TrajectoryBatch._segments`, so by angle addition

        cos(m phi) = cos(m t) * cos B - sin(m t) * (sigma * sin B),
        sin(m phi) = sin(m t) * (sigma * cos B) + cos(m t) * sin B:

    cos and sin run once per grid time and once per table entry (jumps + 1
    per row); per phase, each of cos(m phi) and sin(m phi) costs two
    gathers, two products and a sum.

    The variance comes from squares of cos - shift, with ``shift`` the first
    tile's per-time mean: close to the final mean, so the one-pass
    difference of moments keeps its relative precision where the variance
    is small (early times, cos close to 1).
    """
    n = len(batch)
    total = np.zeros(times.size)
    total_sq = np.zeros(times.size)  # sum of (cos - shift)^2
    total_im = np.zeros(times.size)
    shift = None
    cos_mt, sin_mt = np.cos(order * times)[:, None], np.sin(order * times)[:, None]
    rows = max(1, _TILE_PHASES // max(times.size, 1))
    for start in range(0, n, rows):
        tile = slice(start, start + rows)
        at_c, sigma, b = TrajectoryBatch(batch.signs[tile], batch.jump_times[tile])._segments(times)
        b *= order
        cos_b, sin_b = np.cos(b), np.sin(b)
        v = cos_b.take(at_c)
        v *= cos_mt
        w = (sigma * sin_b).take(at_c)
        w *= sin_mt
        v -= w  # cos(m phi)
        tile_sum = v.sum(axis=1)
        total += tile_sum
        if shift is None:
            shift = tile_sum / v.shape[1]
        v -= shift[:, None]
        v *= v
        total_sq += v.sum(axis=1)
        if imag:
            v = (sigma * cos_b).take(at_c)
            v *= sin_mt
            w = sin_b.take(at_c)
            w *= cos_mt
            v += w  # sin(m phi)
            total_im += v.sum(axis=1)
    mean = total / n
    var = np.clip(total_sq / n - (mean - shift) ** 2, 0.0, None)
    se = np.sqrt(var / max(n - 1, 1))
    return (mean + 1j * (total_im / n) if imag else mean.astype(complex)), se
