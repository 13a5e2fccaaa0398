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
+inf-padded jump times.  A Monte Carlo ensemble is first drawn as an
:class:`Ensemble`, its jump counts and signs and the stream state at which
its jump positions start, and :func:`sample_batch` draws its rows as
batches chunk by chunk, each equal to those rows of the whole table, so the
reduction holds O(realizations) memory plus one chunk.  Between jumps a
phase is linear in t, so :meth:`TrajectoryBatch.phases` evaluates a whole
ascending time grid from prefix sums over the jumps; the pixel phase fields
of :mod:`ltgsim.slm` take their phasors exp(2i * phi) from it.  The Monte
Carlo reduction writes cos(m * phi) as cos(m * t) plus two constants of the
jump segment weighted by cos(m * t) and sin(m * t).  Where realizations
hold few jumps against the grid, its per-time sums over realizations change
only at jumps and are swept event by event, in O(jumps + times) work;
otherwise each (time, realization) reads the constants of its segment
directly.  Both
place each jump on the grid by :func:`_grid_bins`: an index guessed from
the grid's mean spacing and checked against its two neighbouring grid
times, with a binary search only for the jumps that fail the check.

Reproducibility: all randomness derives from numpy's PCG64 generator,
seeded via SeedSequence(master_seed, spawn_key=(stream_index, ...)).
Spawn-key derivation is collision-free by construction, so distinct
stream indices give statistically independent streams and the same
(master_seed, stream_index) pair is always bit-identical.  A chunk of an
:class:`Ensemble` takes its jump positions from the stream positions the
whole table would, however often a pass draws it again.
"""
from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

from .series import MONTE_CARLO, CoherenceSeries, check_times

# The Monte Carlo reduction takes rows in fixed chunks, in ascending
# realization order: the event sweep max(1, _CHUNK_SEGMENTS // (columns + 1))
# rows (about that many jump segments), the direct pass
# max(1, _CHUNK_PHASES // (columns + 1 + T)) (the segments plus one phase per
# grid time).  The direct pass does a few cheap passes per phase, so it
# takes larger chunks to spread its per-chunk overhead: at 2^14 it ran up
# to 1.4x slower.  The budgets bound the working set of a chunk, its jump
# table included, whatever the ensemble size.  They are module constants,
# not tunables: the chunk size fixes the floating-point summation order and
# therefore the bit pattern of results.
_CHUNK_SEGMENTS = 1 << 14
_CHUNK_PHASES = 1 << 16

# The event sweep's variance, summed in double, carries a rounding error of
# about eps * scale (scale as in ``_sweep``) from the cancellation of its
# moments, plus that of the cumulative sum along the grid, which grows with
# the grid and which scale does not bound.  Where var < _SWEEP_VAR_FLOOR *
# scale the direct pass recomputes the standard error.  Largest relative error
# of kept variances against a long-double two-pass value (orders 2 and 4, two
# seeds, 1000-2000 rows, default and one-row chunks), by floor:
#   jumps a row, times:     2^-16  2^-15  2^-14  2^-13  2^-12
#   6 to 630, 400 to 2000   6e-12 at every floor
#   785 and 1570, 4000      3e-10  1e-10  7e-11  4e-11  3e-11   (order 2: 5e-12 at 2^-14)
#   6300, 16000             3e-10  2e-10  2e-10  2e-10  2e-10
# Higher floors trim the grid sum's error little and give up the sweep more often.
_SWEEP_VAR_FLOOR = 2.0**-14

# Ceiling on the expected jumps of an ensemble (``check_ensemble``), which
# also bounds the entries of any one array a run allocates (``check_entries``):
# 1e8 jump times, or array entries, are ~0.8 GB.  A phase field holds all its
# jump times at once; ``mc-moment`` draws its table one row chunk at a time,
# so for it the ceiling bounds the work, not the memory.
MAX_EXPECTED_JUMPS = 1e8


def check_rate(gamma: float) -> None:
    """Refuse a switching rate that is not a real number (``check_real``), finite and >= 0."""
    check_real("switching rate gamma", gamma)
    if not 0.0 <= gamma < np.inf:  # refuses NaN too
        raise ValueError(f"switching rate gamma must be >= 0 and finite, got {gamma}")


def check_horizon(t_max: float, order: int = 1) -> None:
    """Refuse a horizon that is not finite and > 0, or one over which the phase
    order * phi overflows (|phi| <= t_max; ``_segments`` offsets reach 2 * t_max)."""
    check_real("horizon t_max", t_max)
    if not 0.0 < t_max < np.inf:
        raise ValueError(f"horizon t_max must be finite and > 0, got {t_max}")
    if not 2.0 * order * t_max < np.inf:
        raise ValueError(f"2 * order * t_max = 2 * {order} * {t_max!r} overflows the phases")


def check_entries(entries: int) -> None:
    """Refuse an array of more than ``MAX_EXPECTED_JUMPS`` entries."""
    if entries > MAX_EXPECTED_JUMPS:
        raise ValueError(f"{entries:.3g} array entries exceed the {MAX_EXPECTED_JUMPS:,.0f} "
                         "(~0.8 GB per array) a run may hold")


def check_ensemble(gamma: float, t_max: float, rows: int) -> None:
    """Refuse ``rows`` trajectories expecting more than ``MAX_EXPECTED_JUMPS`` jumps."""
    jumps = gamma * t_max * rows
    if jumps > MAX_EXPECTED_JUMPS:
        raise ValueError(f"gamma * t_max over {rows} trajectories expects {jumps:.3g} jumps, more "
                         f"than the {MAX_EXPECTED_JUMPS:,.0f} (~0.8 GB of jump times) a run may hold")


def check_integer(name: str, value: int, minimum: int) -> None:
    """Refuse a count or seed that is not an integer (a float, whole or not, or a bool) >= minimum,
    or one past the float range, which overflows any arithmetic with floats.  An exact int
    skips the ABC test, which costs more than the rest of the rule."""
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    if value > sys.float_info.max:
        raise ValueError(f"{name} must be <= {sys.float_info.max:.3g}, got {value}")


def check_real(name: str, value: float) -> None:
    """Refuse a value that is not a real number where one is meant, a bool
    included: True and False compare as 1 and 0, so a range check alone would
    take them as a rate, a width or a purity.  An exact float or int skips the
    ABC test (~0.4 us a call), which the calibration meets on every shift."""
    if type(value) not in (float, int) and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise ValueError(f"{name} must be a real number, got {value!r}")


def check_flag(name: str, value: bool) -> None:
    """Refuse a switch that is not a bool: a flag is read by its truth value,
    so NaN or "no" would switch it on."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be True or False, got {value!r}")


def check_moment(order: int, n_real: int = 2, antithetic: bool = False) -> None:
    """Refuse a moment order that is not an integer >= 1, realizations not an
    integer >= 2 (an odd count of antithetic ones), or a non-bool ``antithetic``."""
    check_integer("moment order", order, 1)
    check_integer("n_real", n_real, 2)
    check_flag("antithetic", antithetic)
    if antithetic and n_real % 2:
        raise ValueError(f"n_real must be even for antithetic pairs, got {n_real}")


def check_grid(points: int) -> None:
    """Refuse a time grid on which the 7 per-time sums of ``_sweep`` exceed
    ``check_entries``."""
    check_entries(7 * points)


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
        check_rate(self.gamma)
        check_horizon(self.t_max)
        check_ensemble(self.gamma, self.t_max, 1)


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus a stream index selecting one independent substream, both
    integers >= 0 (``check_integer``)."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        check_integer("master_seed", self.master_seed, 0)
        check_integer("stream_index", self.stream_index, 0)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(entropy=self.master_seed, spawn_key=(self.stream_index,))))

    def item(self, i: int) -> SeedSpec:
        """The seed of item i (a phase block, a calibration shift) drawn under this
        seed: stream s + 1 + i, so n items take streams [s + 1, s + 1 + n)."""
        return SeedSpec(self.master_seed, self.stream_index + 1 + i)


@dataclass
class TrajectoryBatch:
    """Column-padded ensemble of trajectories (padding value +inf).

    Row r is X(t) = signs[r] * (-1)**(number of jumps at or before t).
    :meth:`phases` integrates it over a whole time grid at once, laid out
    (times, rows).  A batch can also be reduced by the Monte Carlo passes
    in place of an :class:`Ensemble`: ``width``, ``jump_events`` and
    ``chunks`` are the three things they read.
    """

    signs: np.ndarray       # (R,) +-1
    jump_times: np.ndarray  # (R, max_jumps), row-sorted, padded with +inf

    def __len__(self) -> int:
        return self.signs.size

    @property
    def width(self) -> int:
        return self.jump_times.shape[1]

    def jump_events(self) -> int:
        """The number of finite jump times."""
        return int(np.isfinite(self.jump_times).sum())

    def chunks(self, rows: int) -> Iterator[TrajectoryBatch]:
        """Views of ``rows`` rows each (the last one may hold fewer), in row order."""
        for start in range(0, len(self), rows):
            yield TrajectoryBatch(self.signs[start : start + rows],
                                  self.jump_times[start : start + rows])

    def phases(self, times: np.ndarray) -> np.ndarray:
        """phi at every time of a grid as ``series.check_times``, shape (T, R) (exact).

        Closed form: with c the number of jumps at or before t and
        P_c = sum_{i <= c} (-1)^i * tau_i (i starting at 1),

            phi(t) = s * ((-1)^c * t - 2 * P_c),

        since each jump flips the slope.  The slopes s * (-1)^c and the
        offsets -2 * s * P_c of :func:`_segments` form flattened
        (jumps + 1, R) tables, read at the indices of
        :func:`_segment_index`.  Realizations lie along the contiguous axis,
        so a per-time sum over them is numpy's pairwise sum.
        """
        times = check_times(times)
        if self.jump_times.shape[1] == 0:
            return times[:, None] * self.signs
        at_c = _segment_index(self.jump_times, times)
        parity, offset = _segments(self.signs, self.jump_times)
        phi = (parity[:, None] * self.signs).ravel().take(at_c)
        phi *= times[:, None]
        phi += offset.T.ravel().take(at_c)
        return phi


def _segment_index(jump_times: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Flat index c * R + row of the jump segment holding each (time, row)
    of an ascending grid, shape (T, R), c counting the jumps at or before t.

    Each jump is binned to the first grid time at or after it
    (:func:`_grid_bins`, side "left"; the +inf padding falls past the grid),
    so the index follows from one ``bincount`` and a cumulative sum along
    the grid.
    """
    n_t, n_r = times.size, jump_times.shape[0]
    rows = np.arange(n_r)
    bins = _grid_bins(times, jump_times, "left") * n_r + rows[:, None]
    at_c = np.bincount(bins.ravel(), minlength=(n_t + 1) * n_r).reshape(n_t + 1, n_r)[:n_t]
    at_c *= n_r
    at_c[:1] += rows  # a slice: an empty grid has no first time
    np.cumsum(at_c, axis=0, out=at_c)
    return at_c


def _grid_bins(times: np.ndarray, x: np.ndarray, side: str) -> np.ndarray:
    """``np.searchsorted(times, x, side=side)`` for an ascending grid, bit for
    bit, in O(1) per key where the grid is close to uniform.

    Each index is guessed from the grid's mean spacing, the float guess
    clipped to [0, T] before the integer cast (so +inf, NaN and keys off the
    grid never reach the cast), and checked against the two grid times
    around it: ``side`` "right" counts the grid times at or before a key,
    "left" those before it.  Only keys whose guess fails the check (keys on
    or within rounding of a grid time, non-uniform grids) go to
    ``searchsorted``, as does every key of a grid with fewer than 2 points
    or a span that is not positive and finite.
    """
    before = {"left": np.less, "right": np.less_equal}[side]
    n_t = times.size
    span = times[-1] - times[0] if n_t > 1 else 0.0
    if not 0.0 < span < np.inf:
        return np.searchsorted(times, x, side=side)
    with np.errstate(over="ignore", invalid="ignore"):
        scale = (n_t - 1) / span
        guess = x * scale
        guess += 1.0 - times[0] * scale
        np.fmax(guess, 0.0, out=guess)  # fmax and fmin send NaN to a bound
        np.fmin(guess, n_t, out=guess)
    bins = guess.astype(np.intp)
    # Bounds of bin i: grid times i - 1 and i, with -inf before the grid and
    # NaN past it (before(NaN, key) is false for every key).
    edges = np.concatenate(([-np.inf], times, [np.nan]))
    ok = before(edges.take(bins), x)
    ok &= ~before(edges[1:].take(bins), x)
    miss = np.flatnonzero(~ok)
    if miss.size:
        flat = bins.reshape(-1)
        flat[miss] = np.searchsorted(times, x.reshape(-1).take(miss), side=side)
    return bins


def _segments(signs: np.ndarray, jump_times: np.ndarray):
    """The linear pieces of phi: on jump segment c = 0..J of row r,
    phi(t) = signs[r] * parity[c] * t + offset[r, c].

    Returns ``parity`` = (-1)^c, shape (J + 1,), and ``offset`` =
    -2 * s * P_c, shape (R, J + 1), from row prefix sums of the alternating
    jump times (padding counted as 0, so padded segments repeat the last
    offset).
    """
    n_r, n_j = jump_times.shape
    parity = np.where(np.arange(n_j + 1) % 2 == 0, 1.0, -1.0)
    offset = np.zeros((n_r, n_j + 1))
    np.cumsum(np.where(np.isfinite(jump_times), jump_times, 0.0) * parity[1:], axis=1,
              out=offset[:, 1:])
    offset *= -2.0 * signs[:, None]
    return parity, offset


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


@dataclass(frozen=True, eq=False)
class Ensemble:
    """The part of an ensemble draw made once per run: everything but the
    jump positions, which :func:`sample_batch` draws in row chunks on demand.

    The positions of row r are the ``width`` uniforms that follow those of
    rows 0 .. r - 1 in the stream, starting at ``state``, so any chunk of
    rows equals those rows of the whole padded table, and a pass over the
    rows holds one chunk at a time: O(rows) memory plus one chunk.
    """

    t_max: float
    counts: np.ndarray  # (R,) jumps per row
    signs: np.ndarray   # (R,) +-1
    width: int          # jump columns of every chunk, max(counts)
    state: dict         # PCG64 state at the first position uniform

    def __len__(self) -> int:
        return self.signs.size

    def jump_events(self) -> int:
        """The number of jumps, finite jump times of the whole table."""
        return int(self.counts.sum())

    def positions(self, start: int = 0) -> np.random.Generator:
        """A generator at the first position uniform of row ``start``."""
        bits = np.random.PCG64()
        bits.state = self.state
        bits.advance(start * self.width)
        return np.random.Generator(bits)

    def chunks(self, rows: int) -> Iterator[TrajectoryBatch]:
        """Batches of ``rows`` rows each (the last one may hold fewer), in row
        order, drawn by :func:`sample_batch` in sequence from one generator.
        Each pass over the chunks draws them again from ``state``."""
        rng = self.positions()
        for start in range(0, len(self), rows):
            yield sample_batch(self, start, start + rows, rng)


def draw_ensemble(params: RtnParams, n_real: int, seed: SeedSpec) -> Ensemble:
    """Draw the counts and signs of ``n_real`` independent trajectories from
    one derived stream; :func:`sample_batch` draws their jump positions.

    Distributionally identical to ``n_real`` calls of :func:`sample_trajectory`
    but one stream for the whole ensemble: given the Poisson jump count on
    [0, t_max], jump times are sorted iid uniforms.  Draw order (fixed, part
    of the reproducibility contract): jump counts, then n_real * width
    uniform jump positions in row-major order, then initial signs.  The
    signs are drawn here, from the stream moved past the positions with
    ``PCG64.advance``, so no position is drawn before a chunk needs it.
    """
    check_integer("n_real", n_real, 0)
    check_entries(n_real)
    check_ensemble(params.gamma, params.t_max, n_real)
    rng = seed.generator()
    counts = rng.poisson(params.gamma * params.t_max, n_real)
    width = int(counts.max()) if n_real else 0
    state = rng.bit_generator.state
    rng.bit_generator.advance(n_real * width)
    signs = np.where(rng.random(n_real) < 0.5, 1.0, -1.0)
    return Ensemble(params.t_max, counts, signs, width, state)


def sample_batch(ensemble: Ensemble, start: int = 0, stop: int | None = None,
                 rng: np.random.Generator | None = None) -> TrajectoryBatch:
    """Rows [start, stop) of an ensemble (by default all of them) as a padded
    batch, bit for bit those rows of the whole table.

    ``rng`` must stand at the first position uniform of row ``start``, as
    :meth:`Ensemble.chunks` passes it to draw chunks in sequence; without
    it a generator is moved there from the ensemble's saved state.
    """
    check_integer("start", start, 0)
    if stop is not None:
        check_integer("stop", stop, start)
    counts = ensemble.counts[start:stop]
    if rng is None:
        rng = ensemble.positions(start)
    jumps = rng.random((counts.size, ensemble.width))
    jumps *= ensemble.t_max
    np.putmask(jumps, np.arange(ensemble.width) >= counts[:, None], np.inf)
    jumps.sort(axis=1)
    return TrajectoryBatch(ensemble.signs[start:stop], jumps)


def mc_exponential_moment(params: RtnParams, order: int, times: np.ndarray, n_real: int,
                          seed: SeedSpec, antithetic: bool = False) -> CoherenceSeries:
    """Monte Carlo estimate of < exp(i * order * phi(t)) > on a time grid.

    With ``antithetic`` set, realizations come in mirrored (phi, -phi)
    pairs, each pair contributing cos(order * phi) with an identically
    zero imaginary part; this is the balanced-realization selection that
    keeps the estimate real for every switching rate.

    ``times`` must be ascending.  The reduction takes fixed chunks of
    realizations in ascending index order, so the result is
    bit-reproducible regardless of how the caller parallelizes around it.
    It draws each chunk's jump positions when it reaches it
    (:meth:`Ensemble.chunks`), so memory is O(n_real) plus one chunk.
    ``params`` records its work counts: ``jump_events``, the finite jump
    times, and ``direct_times``, the grid times the direct pass evaluated
    (all of them where it runs alone, see ``_reduce``; otherwise those
    where the event sweep's variance fell below its rounding bound,
    usually none).
    """
    check_moment(order, n_real, antithetic)
    check_entries(n_real)  # the counts and signs of the rows are the memory
    check_horizon(params.t_max, order)
    check_ensemble(params.gamma, params.t_max, n_real)
    times = check_times(times, params.t_max)
    check_grid(times.size)

    ensemble = draw_ensemble(params, n_real // 2 if antithetic else n_real, seed)
    values, se, events, direct = _reduce(order, ensemble, times, imag=not antithetic)

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
            "jump_columns": ensemble.width,
            "jump_events": events,
            "direct_times": direct,
            "max_stderr": float(np.max(se, initial=0.0)),
        },
        stderr=se,
    )


def _reduce(order: int, draws: Ensemble | TrajectoryBatch, times: np.ndarray, imag: bool):
    """Mean of exp(i * order * phi) and the standard error of its real part
    per grid time, the number of finite jump times and the number of grid
    times the direct pass evaluated.

    Without ``imag`` only cos(order * phi) is summed and the imaginary part
    is exactly zero (antithetic pairs).  The event sweep (:func:`_sweep`)
    costs O(jumps + times) per chunk of rows, the direct pass
    (:func:`_direct`) O(jumps + rows * times), but the sweep spends about
    twice as much per jump: on 400 times and 10^4 rows the two cost the
    same within ~10 % at 200 jumps per row for antithetic pairs (the sweep
    ~1.2x faster with ``imag``), and at 400 the direct pass is ~1.3x
    faster.  So the direct pass runs alone once
    rows hold on average at least half as many jumps as there are grid
    times.  Otherwise the sweep runs, and where its variance is below the
    rounding bound of its sums (_SWEEP_VAR_FLOOR) the direct pass
    recomputes the standard error at those times, about the sweep's mean.
    When the sweep's first chunk alone is within a factor 4 of that bound
    at a quarter of the times or more (motional narrowing), the sweep
    gives up and the direct pass runs alone, as it would redo many of them.
    Each pass reads ``draws`` through its ``chunks``: from an
    :class:`Ensemble` the redo pass and the direct pass after a sweep that
    gave up draw their chunks again from the saved stream state, the same
    bits as the first time.
    """
    n, n_t = len(draws), times.size
    events = draws.jump_events()
    swept = _sweep(order, draws, times, imag) if 2 * events < n * n_t else None
    if swept is None:
        values, se = _direct(order, draws, times, imag)
        return values, se, events, n_t
    values, var, scale = swept
    se = np.sqrt(var / max(n - 1, 1))
    redo = np.flatnonzero(var < _SWEEP_VAR_FLOOR * scale)
    if redo.size:
        mean_d = values.real[redo] - np.cos(order * times[redo])
        se[redo] = _direct(order, draws, times[redo], False, center=mean_d)[1]
    return values, se, events, redo.size


def _sweep_rows(draws: Ensemble | TrajectoryBatch) -> int:
    """Rows per chunk of the event sweep: about _CHUNK_SEGMENTS segments."""
    return max(1, _CHUNK_SEGMENTS // (draws.width + 1))


def _segment_terms(seg_b: np.ndarray, sigma: np.ndarray, imag: bool) -> list:
    """K = cos B - 1 and sigma * sin B of segments m * phi = sigma * m * t + B;
    with ``imag`` also sigma * cos B = sigma * (K + 1) and sin B.

    One tangent u = tan(B / 2) gives both: K = -2 * u^2 / (1 + u^2) keeps
    its relative precision at small B, and sin B = 2 * u / (1 + u^2).  Each
    quotient's numerator is at most its rounded denominator, so
    -2 <= K <= 0 and |sin B| <= 1 hold in floating point too, and |u| stays
    below ~1e19 for any double B, so u^2 cannot overflow.  Overwrites
    ``seg_b``."""
    seg_b *= 0.5
    u = np.tan(seg_b, out=seg_b)
    k = u * u
    sin_b = k + 1.0
    np.divide(k, sin_b, out=k)
    np.divide(u, sin_b, out=sin_b)
    k *= -2.0
    sin_b *= 2.0
    sigma_sin = sigma * sin_b
    if not imag:
        return [k, sigma_sin]
    sigma_cos = sigma * k
    sigma_cos += sigma
    return [k, sigma_sin, sigma_cos, sin_b]


def _sweep(order: int, draws: Ensemble | TrajectoryBatch, times: np.ndarray, imag: bool):
    """Event sweep: mean of exp(i * order * phi), the variance of its real
    part and that variance's rounding scale, per grid time; None in motional
    narrowing, judged on the first chunk (see :func:`_reduce`).

    On a jump segment m * phi = sigma * m * t + B, with sigma = +-1 and
    B = m * offset from :func:`_segments` (B = 0 before the first jump).
    With a = cos(m t) and b = sin(m t),

        cos(m phi) = a + d,  d = a * K - b * (sigma * sin B),
        sin(m phi) = b * (sigma * cos B) + a * sin B,

    with K = cos B - 1 as :func:`_segment_terms` forms it.
    The sums over rows of K, sigma * sin B, their squares and product (and,
    with ``imag``, of sigma * cos B and sin B) change only at jumps: each
    jump adds its segment's value minus the previous segment's at the first
    grid time after it.  phi is continuous, so this reads the values of the
    at-or-after binning of :meth:`TrajectoryBatch.phases`, and a row whose
    first jump falls on a grid time keeps d = 0 exactly there.  Per chunk
    of max(1, _CHUNK_SEGMENTS // (columns + 1)) rows the finite jumps are
    taken by flat index into the chunk's padded table, in row order
    (:func:`_chunk_jumps`): their grid times from :func:`_grid_bins` (side
    "right"), B from the ``offset`` table of :func:`_segments`, sigma from
    the row's sign and the column's parity.  One ``bincount`` per sum, all
    sharing those bins, adds the steps by grid time; chunks are added in
    row order and one cumulative sum along the grid gives the sums at every
    time.

    The variance is taken about the no-jump value a:
    var = sum d^2 / n - mean(d)^2, with sum d^2 expanded as
    a^2 sum K^2 + b^2 sum (sigma sin B)^2 - 2ab sum K sigma sin B.  A row
    that has not jumped has d = 0 exactly, so gamma = 0 gives var = 0 and
    early times keep their relative precision.  Each term is only as precise as
    scale = (a^2 sum K^2 + b^2 sum (sigma sin B)^2 + 2|ab sum K sigma sin B|) / n,
    and var can be far below scale: when the spread of cos(m phi) is
    small but its mean is far from cos(m t) (motional narrowing,
    gamma * t >> 1, where scale / var reached 5e5), or when all rows that
    have jumped agree (see _SWEEP_VAR_FLOOR).
    """
    n, n_t = len(draws), times.size
    sums = np.zeros((7 if imag else 5, n_t + 1))  # bin n_t: past the grid
    if imag:
        sums[5, 0] = draws.signs.sum()  # sigma * cos B = s before the first jump
    a, b = np.cos(order * times), np.sin(order * times)
    rows = _sweep_rows(draws)
    for i, chunk in enumerate(draws.chunks(rows)):
        jt, signs = chunk.jump_times, chunk.signs
        bins, seg_b, sigma, first = _chunk_jumps(times, jt, signs, *_segments(signs, jt), order)
        k, sigma_sin, *cos_sin = _segment_terms(seg_b, sigma, imag)
        before = [0.0] * 5
        if imag:
            before += [-sigma[first], 0.0]  # sigma * cos B = s = -sigma on segment 0
        # The three products are formed one at a time into one buffer.
        prod, step = np.empty_like(k), np.empty_like(k)
        products = (np.multiply(u, w, out=prod) for u, w in ((k, k), (sigma_sin, sigma_sin), (k, sigma_sin)))
        for total, v, v0 in zip(sums, chain((k, sigma_sin), products, cos_sin), before):
            np.subtract(v[1:], v[:-1], out=step[1:])  # minus the previous segment's value
            step[first] = v[first] - v0  # first holds 0: rows are padded at their end
            total += np.bincount(bins, weights=step, minlength=n_t + 1)
        if i == 0 and 1 < rows < n:  # a first chunk of two rows or more to judge by
            _, var, scale = _sweep_moments(np.cumsum(sums[:5, :n_t], axis=1), a, b, rows)
            # A few rows judge the bound only roughly: a margin of 4 on it.
            if 4 * np.count_nonzero(var < 4 * _SWEEP_VAR_FLOOR * scale) >= n_t:
                return None
    sums = np.cumsum(sums[:, :n_t], axis=1)
    mean_d, var, scale = _sweep_moments(sums, a, b, n)
    mean = a + mean_d
    return (mean + 1j * ((b * sums[5] + a * sums[6]) / n) if imag else mean.astype(complex)), var, scale


def _chunk_jumps(times, jt, signs, parity, offset, order: int):
    """The finite jumps of a chunk of rows, in row order, taken by flat index
    into its padded table: the grid bin where each starts to count (side
    "right"), B = order * offset and sigma of the segment it opens, and the
    positions of the jumps that end segment 0 of their row."""
    idx = np.flatnonzero(np.isfinite(jt))
    row, col = np.divmod(idx, jt.shape[1])
    bins = _grid_bins(times, jt.reshape(-1).take(idx), "right")
    idx += row + 1  # offset[row, col + 1]
    seg_b = offset.reshape(-1).take(idx)
    seg_b *= order
    sigma = signs.take(row)
    sigma *= parity.take(col + 1)
    return bins, seg_b, sigma, np.flatnonzero(col == 0)


def _sweep_moments(sums, a, b, n: int):
    """mean(d), var and scale of :func:`_sweep` from its sums over ``n`` rows."""
    mean_d = (a * sums[0] - b * sums[1]) / n
    a2, b2, ab = a * a * sums[2], b * b * sums[3], 2.0 * a * b * sums[4]
    return mean_d, np.clip((a2 + b2 - ab) / n - mean_d * mean_d, 0.0, None), (a2 + b2 + np.abs(ab)) / n


def _direct(order: int, draws: Ensemble | TrajectoryBatch, times: np.ndarray, imag: bool,
            center: np.ndarray | None = None):
    """Direct pass: mean of exp(i * order * phi) and the standard error of
    its real part per grid time, from the segment of every (time, row).

    Rows are taken in chunks of max(1, _CHUNK_PHASES // (columns + 1 + T))
    in ascending order; per-time sums run over the contiguous row axis and
    chunk sums are added in chunk order.  Each (time, row) reads K and
    sigma * sin B of its segment (as in :func:`_sweep`) and contributes
    d = a * K - b * (sigma * sin B), its deviation from the no-jump value
    a = cos(m t).  The trig runs once per segment where the grid has at
    least as many times as a row has segments, else once per (time, row)
    on the gathered B; both give the same bits.  Sums and squares are
    taken of d - center, ``center`` defaulting to the first chunk's mean:
    close to the final mean, so the one-pass difference of moments keeps
    its relative precision where the variance is small.
    """
    n, n_j = len(draws), draws.width
    total, total_sq, total_im = np.zeros((3, times.size))
    a, b = np.cos(order * times)[:, None], np.sin(order * times)[:, None]
    trig_first = times.size >= n_j + 1
    rows = max(1, _CHUNK_PHASES // (n_j + 1 + times.size))
    for chunk in draws.chunks(rows):
        jt, signs = chunk.jump_times, chunk.signs
        at_c = _segment_index(jt, times)
        parity, offset = _segments(signs, jt)
        seg_b = (offset * order).T.ravel()  # laid out like the index
        sigma = (parity[:, None] * signs).ravel()
        if not trig_first:
            seg_b, sigma = seg_b.take(at_c), sigma.take(at_c)
        parts = _segment_terms(seg_b, sigma, imag)
        parts = [v.take(at_c) if trig_first else v for v in parts]
        d, w = parts[0], parts[1]
        d *= a
        w *= b
        d -= w
        if center is None:
            center = d.mean(axis=1)
        d -= center[:, None]
        total += d.sum(axis=1)
        d *= d
        total_sq += d.sum(axis=1)
        if imag:  # sin(m phi) = b * (sigma * cos B) + a * sin B
            v, w = parts[2], parts[3]
            v *= b
            w *= a
            v += w
            total_im += v.sum(axis=1)
    mean_d = total / n  # about center
    var = np.clip(total_sq / n - mean_d * mean_d, 0.0, None)
    se = np.sqrt(var / max(n - 1, 1))
    mean = a[:, 0] + (center + mean_d)
    return (mean + 1j * (total_im / n) if imag else mean.astype(complex)), se
