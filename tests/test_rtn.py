"""Trajectory sampling, exact phases and Monte Carlo moments."""
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import field_phases, field_trajectories
from test_contract import refusal_tests

from ltgsim import rtn
from ltgsim.analytic import exponential_moment
from ltgsim.rtn import (
    MAX_EXPECTED_JUMPS,
    RtnParams,
    SeedSpec,
    TrajectoryBatch,
    draw_ensemble,
    mc_exponential_moment,
    sample_batch,
    sample_trajectory,
    stack_batches,
)
from ltgsim.slm import MaskGeometry, build_phase_field

globals().update(refusal_tests(__name__))  # the refusal cases: test_contract's table


def one_row(sign, jumps):
    return TrajectoryBatch(np.array([float(sign)]), np.array([jumps], dtype=float))


def segment_integral(sign, jumps, t1, t2):
    # Oracle: integral of X over [t1, t2] as a sum of exact constant segments.
    jt = jumps[(jumps > t1) & (jumps <= t2)]
    edges = np.concatenate([[t1], jt, [t2]])
    n_before = np.searchsorted(jumps, edges[:-1], side="right")
    signs = sign * np.where(n_before % 2 == 0, 1.0, -1.0)
    return float((np.diff(edges) * signs).sum())


def oracle_phases(batch, times):
    # phi(t) = integral over [0, t], per row and time, from the segment oracle.
    return np.array([
        [segment_integral(s, row[np.isfinite(row)], 0.0, t) for s, row in zip(batch.signs, batch.jump_times)]
        for t in times
    ])


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        RtnParams(gamma=-0.1, t_max=1.0)
    with pytest.raises(ValueError):
        RtnParams(gamma=1.0, t_max=0.0)
    # Non-finite or unboundedly many expected jumps: sampling would not end.
    for gamma, t_max in ((np.inf, 1.0), (1e308, 1.0), (1.0, np.inf), (np.nan, 1.0),
                         (1.0, np.nan), (2 * MAX_EXPECTED_JUMPS, 1.0), (1e5, 1e4)):
        with pytest.raises(ValueError):
            RtnParams(gamma, t_max)
    RtnParams(MAX_EXPECTED_JUMPS, 1.0)  # the ceiling itself is allowed


def test_zero_rate_trajectory_is_constant():
    for seed in range(20):
        tr = sample_trajectory(RtnParams(0.0, 10.0), SeedSpec(seed))
        assert len(tr) == 1 and tr.jump_times.shape == (1, 0)
        assert abs(tr.signs[0]) == 1
        times = np.linspace(0, 10, 7)
        assert np.array_equal(tr.phases(times)[:, 0], tr.signs[0] * times)
    # A zero-rate batch has no jump columns at all; rows whose columns are
    # all +inf padding (stacked next to a row that jumps) read the same.
    times = np.linspace(0.5, 10.0, 6)
    batch = sample_batch(draw_ensemble(RtnParams(0.0, 10.0), 7, SeedSpec(3)))
    assert batch.jump_times.shape == (7, 0)
    assert np.array_equal(batch.phases(times), times[:, None] * batch.signs)
    padded = stack_batches([one_row(1, [1.0]), one_row(-1, []), one_row(1, [])])
    phis = padded.phases(times)
    assert np.array_equal(phis[:, 1:], times[:, None] * np.array([-1.0, 1.0]))
    assert np.allclose(phis[:, 0], oracle_phases(padded, times)[:, 0], atol=1e-15)


def test_trajectory_determinism():
    a = sample_trajectory(RtnParams(2.0, 5.0), SeedSpec(42, 3))
    b = sample_trajectory(RtnParams(2.0, 5.0), SeedSpec(42, 3))
    c = sample_trajectory(RtnParams(2.0, 5.0), SeedSpec(42, 4))
    assert np.array_equal(a.signs, b.signs)
    assert np.array_equal(a.jump_times, b.jump_times)
    assert not np.array_equal(a.jump_times, c.jump_times)
    # a seed of numpy integers is the seed of the integers they hold
    assert SeedSpec(np.int64(3), np.uint8(1)).generator().integers(9) == SeedSpec(3, 1).generator().integers(9)


def test_jump_count_poisson_oracle():
    # Oracle: jump count over [0, t_max] is Poisson with mean gamma * t_max.
    gamma, t_max, n = 0.12, 10.0, 100_000
    batch = sample_batch(draw_ensemble(RtnParams(gamma, t_max), n, SeedSpec(2024)))
    counts = np.isfinite(batch.jump_times).sum(axis=1)
    mean = gamma * t_max
    se = np.sqrt(mean / n)
    assert abs(counts.mean() - mean) < 3 * se


def test_autocorrelation_matches_exponential():
    # <X(t) X(0)> = exp(-2 gamma t)
    gamma, t_max, n = 2.0, 1.0, 100_000
    batch = sample_batch(draw_ensemble(RtnParams(gamma, t_max), n, SeedSpec(11)))
    for t in (0.1, 0.25, 0.5):
        parity = np.where(
            (np.isfinite(batch.jump_times) & (batch.jump_times <= t)).sum(axis=1) % 2 == 0,
            1.0,
            -1.0,
        )
        est = parity.mean()
        se = parity.std() / np.sqrt(n)
        assert abs(est - np.exp(-2 * gamma * t)) < 3 * se


def test_phase_constant_integrand():
    tr = one_row(1, [])
    assert tr.phases([0.7])[0, 0] == pytest.approx(0.7, abs=1e-15)


def test_phase_symmetric_cancellation():
    tr = one_row(1, [0.5])
    assert tr.phases([1.0])[0, 0] == pytest.approx(0.0, abs=1e-15)


EDGE_GRIDS = [
    # Jumps exactly on grid times (steps of 0.25, exact in binary), at t = 0
    # and at the last grid time: the phase is continuous at a jump, so
    # counting it at its own grid time must still give the oracle.
    (np.linspace(0.0, 2.0, 9), [(1, [0.5, 1.25, 1.5]), (-1, [0.0, 2.0]), (1, [0.25, 0.3])]),
    # t_min > 0 with jumps before the first grid time: they count at every
    # grid time, and phi is still the integral from 0.
    (np.linspace(1.0, 3.0, 11), [(1, [0.2, 0.7, 1.3, 2.9]), (-1, [0.1]), (1, [0.4, 0.6, 0.8])]),
    # A grid that ends before the last jumps: those fall past the grid.
    (np.linspace(0.0, 1.0, 6), [(1, [0.3, 1.7, 2.5]), (-1, [0.9, 1.1]), (1, [4.0])]),
    # Rows with no jumps between rows with many.
    (np.linspace(0.0, 6.0, 31), [(1, []), (-1, list(np.linspace(0.05, 5.95, 40) ** 1.01)),
                                 (-1, []), (1, list(np.linspace(0.1, 5.9, 25))), (1, [])]),
]


@pytest.mark.parametrize("times, rows", EDGE_GRIDS)
def test_phases_on_edge_grids(times, rows):
    batch = stack_batches([one_row(sign, jumps) for sign, jumps in rows])
    assert np.allclose(batch.phases(times), oracle_phases(batch, times), atol=1e-15)


def test_phases_on_empty_grid():
    # An empty grid gives an empty (0, rows) table, not an index error.
    batch = stack_batches([one_row(1, [0.5, 1.25]), one_row(-1, [])])
    assert batch.phases(np.array([])).shape == (0, 2)


def test_zero_rate_phase_is_plus_minus_t():
    # With no switching the only reachable phases are +t and -t.
    t = 1.37
    phis = [
        sample_trajectory(RtnParams(0.0, 2.0), SeedSpec(s)).phases([t])[0, 0]
        for s in range(40)
    ]
    assert set(np.round(phis, 12)) <= {t, -t}
    assert len(set(np.round(phis, 12))) == 2  # both signs show up


@given(st.integers(0, 2**32 - 1), st.floats(0.1, 4.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_phase_additivity(seed, gamma, f1, f2):
    # phi(t2) = phi(t1) + integral over [t1, t2]; split at an interior point.
    tr = sample_trajectory(RtnParams(gamma, 3.0), SeedSpec(seed))
    t1, t2 = sorted((3.0 * f1, 3.0 * f2))
    phi1, phi2 = tr.phases([t1, t2])[:, 0]
    segment = segment_integral(tr.signs[0], tr.jump_times[0], t1, t2)
    assert phi2 == pytest.approx(phi1 + segment, abs=1e-12)


def test_phase_magnitude_bounded_by_time():
    tr = sample_trajectory(RtnParams(3.0, 4.0), SeedSpec(5))
    times = np.linspace(0, 4, 17)
    assert np.all(np.abs(tr.phases(times)[:, 0]) <= times + 1e-12)


def test_batch_phases_match_scalar_path():
    params = RtnParams(1.5, 3.0)
    batch = sample_batch(draw_ensemble(params, 50, SeedSpec(9)))
    times = np.linspace(0, 3, 11)
    phis = batch.phases(times)
    assert phis.shape == (11, 50)
    assert np.all(np.abs(phis) <= times[:, None] + 1e-12)
    # every row against the exact segment sum, and one row on its own
    assert np.allclose(phis, oracle_phases(batch, times), atol=1e-13)
    row = TrajectoryBatch(batch.signs[7:8], batch.jump_times[7:8])
    assert np.array_equal(row.phases(times)[:, 0], phis[:, 7])
    # a grid starting after the first jumps of most rows
    late = np.linspace(1.0, 3.0, 11)
    assert np.allclose(batch.phases(late), oracle_phases(batch, late), atol=1e-13)


def test_stack_and_mirror_keep_each_row():
    params = RtnParams(2.0, 3.0)
    rows = [sample_trajectory(params, SeedSpec(4, s)) for s in range(6)]
    stacked = stack_batches(rows)
    both = stack_batches([stacked, TrajectoryBatch(-stacked.signs, stacked.jump_times)])
    assert len(both) == 12
    assert stacked.jump_times.shape[1] == max(r.jump_times.shape[1] for r in rows)
    times = np.linspace(0, 3, 7)
    phis = both.phases(times)
    for i, tr in enumerate(rows):
        assert np.allclose(phis[:, i], tr.phases(times)[:, 0], atol=1e-12)
    assert np.array_equal(phis[:, 6:], -phis[:, :6])


def test_balanced_field_mirrors_are_exact_negations():
    # build_phase_field integrates the independent blocks once and stores
    # conj(z) for their mirrored twins; that must equal the phasors of the
    # twins' phases -phi, and the phases must match the segment oracle.
    times = np.linspace(0.0, 2 * np.pi, 400)
    geo = MaskGeometry(pixels_per_half=40, j0=20.0, k0=60.0)
    fld = build_phase_field(1.5, times, 3, geo, SeedSpec(21))
    phi = field_phases(fld)
    assert np.array_equal(phi[20:], -phi[:20])  # offset i + n/2 carries -phi(i)
    assert np.array_equal(fld.phasors[fld.block_index], np.exp(2j * phi))
    segments = oracle_phases(field_trajectories(fld), times).T
    assert np.allclose(phi[:20], segments[fld.block_index[:20]], atol=1e-13)


@st.composite
def grids_and_keys(draw):
    # Uniform grids of 1 to 4000 points (t_min = 0 or above), non-uniform
    # grids and grids with repeated times, with keys on grid times, one ulp
    # either side of them, between them, below and above the grid, and +inf.
    kind = draw(st.sampled_from(["uniform", "non-uniform", "repeats"]))
    if kind == "uniform":
        t_min = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 10.0))
        times = np.linspace(t_min, t_min + draw(st.floats(1e-3, 100.0)), draw(st.integers(1, 4000)))
    else:
        times = np.sort(draw(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=40)))
        if kind == "repeats":
            times = np.repeat(times, draw(st.lists(st.integers(1, 3), min_size=times.size,
                                                   max_size=times.size)))
    at = np.array(draw(st.lists(st.integers(0, times.size - 1), max_size=40)), dtype=int)
    frac = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=at.size, max_size=at.size)))
    on = times[at]
    between = on + frac * (times[np.minimum(at + 1, times.size - 1)] - on)
    edges = [times[0] - 1.0, np.nextafter(times[0], -np.inf), np.nextafter(times[-1], np.inf),
             times[-1] + 1.0, np.inf]
    keys = np.concatenate([on, np.nextafter(on, -np.inf), np.nextafter(on, np.inf), between, edges])
    return times, np.array(draw(st.permutations(keys)))


@given(grids_and_keys())
@settings(max_examples=200, deadline=None)
def test_grid_bins_equal_searchsorted(grid_keys):
    # The arithmetic binning of the phases and the event sweep must give
    # searchsorted's bins exactly, for either side and any key layout.
    times, keys = grid_keys
    for side in ("left", "right"):
        want = np.searchsorted(times, keys, side=side)
        assert np.array_equal(rtn._grid_bins(times, keys, side), want)
        assert np.array_equal(rtn._grid_bins(times, keys.reshape(-1, 1), side), want[:, None])


def test_grid_bins_on_degenerate_grids():
    # Fewer than 2 points, a zero span or an empty key set go to searchsorted.
    keys = np.array([-1.0, 2.0, 2.5, np.inf])
    for times in (np.array([]), np.array([2.0]), np.full(3, 2.0)):
        for side in ("left", "right"):
            want = np.searchsorted(times, keys, side=side)
            assert np.array_equal(rtn._grid_bins(times, keys, side), want)
            assert rtn._grid_bins(times, keys[:0], side).size == 0


# ---------------------------------------------------------------------------
# Monte Carlo exponential moments
# ---------------------------------------------------------------------------


def test_mc_zero_rate_fourth_moment_node():
    series = mc_exponential_moment(
        RtnParams(0.0, 1.0), 4, np.array([np.pi / 8]), 2, SeedSpec(1), antithetic=True
    )
    assert abs(series.values[0]) < 1e-12  # cos(pi/2)


def test_mc_zero_rate_second_moment_exact():
    times = np.linspace(0, 2 * np.pi, 25)
    series = mc_exponential_moment(
        RtnParams(0.0, 2 * np.pi), 2, times, 8, SeedSpec(2), antithetic=True
    )
    assert np.allclose(series.values.real, np.cos(2 * times), atol=1e-14)
    assert np.all(series.values.imag == 0.0)


def test_mc_matches_analytic_oracle():
    times = np.array([0.5])
    series = mc_exponential_moment(
        RtnParams(1.0, 1.0), 2, times, 100_000, SeedSpec(31), antithetic=False
    )
    exact = exponential_moment(1.0, 2, 0.5)
    assert abs(series.values[0].real - exact) < 3 * series.stderr[0]


def test_mc_moment_invariants():
    times = np.linspace(0, 3, 13)
    for antithetic in (False, True):
        series = mc_exponential_moment(
            RtnParams(0.8, 3.0), 2, times, 2000, SeedSpec(17), antithetic=antithetic
        )
        assert np.all(np.abs(series.values) <= 1 + 1e-12)
        assert series.values[0] == 1.0 + 0.0j  # exact at t = 0
        if antithetic:
            assert np.all(np.abs(series.values.imag) <= 1e-12)


def test_mc_bit_reproducible():
    times = np.linspace(0, 2, 9)
    a = mc_exponential_moment(RtnParams(1.2, 2.0), 4, times, 5000, SeedSpec(77), True)
    b = mc_exponential_moment(RtnParams(1.2, 2.0), 4, times, 5000, SeedSpec(77), True)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.stderr, b.stderr)


def test_mc_standard_error_scaling():
    # Quadrupling the sample size should halve the spread, within x1.5.
    t = np.array([0.7])
    params = RtnParams(1.0, 1.0)

    def spread(n_real):
        vals = [
            mc_exponential_moment(params, 2, t, n_real, SeedSpec(s, 5)).values[0].real
            for s in range(50)
        ]
        return np.std(vals)

    ratio = spread(800) / spread(3200)
    assert 2.0 / 1.5 < ratio < 2.0 * 1.5


def direct_moment(batch, order, times):
    # Oracle: mean of exp(i m phi) over the rows and the stderr of its real
    # part, from every (time, row) phase at once.
    phi = batch.phases(times)
    return (np.exp(1j * order * phi).mean(axis=1),
            np.cos(order * phi).std(axis=1, ddof=1) / np.sqrt(len(batch)))


@pytest.mark.parametrize("row_chunks", [False, True])
@pytest.mark.parametrize("imag", [True, False])
@pytest.mark.parametrize("times, rows", EDGE_GRIDS)
def test_mc_sweep_on_edge_grids(times, rows, imag, row_chunks, monkeypatch):
    # The sweep moves a row onto its new segment at the first grid time after
    # a jump, phases() at the first at or after it; phi is continuous, so both
    # must agree where jumps sit on grid times (on the first grid, at 0.25
    # every row reads cos(0.75) and the stderr is 0), precede the first or
    # follow the last.  These rows hold fewer jumps than half the grid's
    # times, so _reduce sweeps; the direct pass must agree on them too.
    # Budgets of one entry take every row as a chunk of its own.  Without
    # imag (the antithetic mode) only the real part is summed.
    if row_chunks:
        monkeypatch.setattr(rtn, "_CHUNK_SEGMENTS", 1)
        monkeypatch.setattr(rtn, "_CHUNK_PHASES", 1)
    batch = stack_batches([one_row(sign, jumps) for sign, jumps in rows])
    expect, want_se = direct_moment(batch, 3, times)
    if not imag:
        expect = expect.real
    values, se, events, direct = rtn._reduce(3, batch, times, imag=imag)
    assert events == np.isfinite(batch.jump_times).sum()
    assert direct < times.size
    for values, se in ((values, se), rtn._direct(3, batch, times, imag)):
        if not imag:
            assert np.all(values.imag == 0.0)
        assert np.max(np.abs(values - expect)) < 1e-12
        assert np.max(np.abs(se - want_se)) < 1e-12


def test_mc_sweep_on_non_uniform_grid():
    # On a quadratic grid the spacing guess of _grid_bins misses for most
    # jumps, which then take searchsorted's bins inside the sweep; the sweep
    # and the phases must still match the direct oracle and the segments.
    params = RtnParams(1.3, 2.0)
    times = 2.0 * np.linspace(0.0, 1.0, 60) ** 2
    batch = sample_batch(draw_ensemble(params, 3000, SeedSpec(6)))
    assert np.allclose(batch.phases(times[::6])[:, :40], oracle_phases(batch, times[::6])[:, :40],
                       atol=1e-13)
    expect, want_se = direct_moment(batch, 3, times)
    for imag in (True, False):
        values, se, events, direct = rtn._reduce(3, batch, times, imag=imag)
        assert direct == 0  # swept
        assert np.max(np.abs(values - (expect if imag else expect.real))) < 1e-12
        assert np.max(np.abs(se - want_se)) < 1e-12


def test_mc_plain_is_direct_mean_over_same_draws():
    # Plain mode sums cos and sin of m * phi by a sweep over the jump events
    # (gamma = 1.3) or, with more jumps a row than half the grid's times, by
    # the direct pass (gamma = 20); the oracle is the direct mean of exp(i m phi) over the same
    # sample_batch draws, all rows integrated at once.  Order 3 is not a
    # power of two, so m times a segment offset is not exact, and at
    # t_max = 200 the arguments reach 600.
    for gamma, t_max, points, n_real, orders in ((1.3, 2.0, 9, 3000, (1, 2, 4)),
                                                 (1.3, 2.0, 400, 1000, (1, 2, 4)),
                                                 (0.0, 200.0, 400, 1000, (3,)),
                                                 (20.0, 200.0, 400, 1000, (3,))):
        params = RtnParams(gamma, t_max)
        times = np.linspace(0, t_max, points)
        batch = sample_batch(draw_ensemble(params, n_real, SeedSpec(8)))
        if gamma == 20.0:  # ~4000 jumps a row: the direct pass, over several
            # chunks and a partial last one
            chunk = max(1, rtn._CHUNK_PHASES // (batch.jump_times.shape[1] + 1 + points))
            assert n_real > chunk and n_real % chunk
        phi = batch.phases(times)
        for order in orders:
            series = mc_exponential_moment(params, order, times, n_real, SeedSpec(8), antithetic=False)
            expect = np.exp(1j * order * phi).mean(axis=1)
            assert np.max(np.abs(series.values - expect)) < 1e-12
            want_se = np.cos(order * phi).std(axis=1, ddof=1) / np.sqrt(n_real)
            assert np.max(np.abs(series.stderr - want_se)) < 1e-12
    # At gamma = 0, phi = s * t: every row reads cos(m t), and sin(m t) with its sign.
    params, times = RtnParams(0.0, 200.0), np.linspace(0.0, 200.0, 400)
    s_mean = draw_ensemble(params, 1000, SeedSpec(8)).signs.mean()
    zero = mc_exponential_moment(params, 3, times, 1000, SeedSpec(8), antithetic=False)
    assert np.max(np.abs(zero.values.real - np.cos(3 * times))) < 1e-15
    assert np.max(np.abs(zero.values.imag - s_mean * np.sin(3 * times))) < 1e-15


def test_mc_stderr_matches_two_pass_oracle():
    # Where cos(m phi) barely varies (early times) a one-pass difference of
    # raw moments loses relative precision; the sums about the no-jump value
    # must keep the stderr of the same draws within 1e-10 of a long-double
    # two-pass value.
    params, n_real = RtnParams(1.0, 2.0 * np.pi), 3000
    times = np.linspace(0.0, 2.0 * np.pi, 400)
    series = mc_exponential_moment(params, 2, times, n_real, SeedSpec(5), antithetic=False)
    batch = sample_batch(draw_ensemble(params, n_real, SeedSpec(5)))
    v = np.cos(2 * batch.phases(times)).astype(np.longdouble)
    dev = v - v.mean(axis=1, keepdims=True)
    want = np.sqrt((dev * dev).sum(axis=1) / n_real / (n_real - 1))
    np.testing.assert_allclose(series.stderr, want.astype(float), rtol=1e-10, atol=0.0)


def test_mc_stderr_precision_at_low_rate():
    # At gamma = 0.12 few rows have jumped by early times, so the spread of
    # cos(m phi) is small against its mean.  Deviations from the no-jump
    # value cos(m t) are exactly 0 on those rows, so the stderr matches a
    # long-double two-pass value (taken in blocks of times) to 1e-12, and is
    # exactly 0 at gamma = 0.
    times = np.linspace(0.0, 2.0 * np.pi, 400)
    params, n_real = RtnParams(0.12, 2.0 * np.pi), 20000
    for antithetic in (False, True):
        series = mc_exponential_moment(params, 2, times, n_real, SeedSpec(5), antithetic)
        n = n_real // 2 if antithetic else n_real
        batch = sample_batch(draw_ensemble(params, n, SeedSpec(5)))
        want = np.empty(times.size)
        for block in np.array_split(np.arange(times.size), 8):
            v = np.cos(2 * batch.phases(times[block])).astype(np.longdouble)
            dev = v - v.mean(axis=1, keepdims=True)
            want[block] = np.sqrt((dev * dev).sum(axis=1) / n / (n - 1))
        np.testing.assert_allclose(series.stderr, want, rtol=1e-12, atol=0.0)
    for antithetic in (False, True):
        zero = mc_exponential_moment(RtnParams(0.0, 2.0 * np.pi), 3, times, 1000, SeedSpec(5),
                                     antithetic)
        assert np.all(zero.stderr == 0.0)


def test_mc_stderr_keeps_relative_precision_at_tiny_times():
    # At t ~ 1e-7 a row that has jumped deviates from cos(m t) by ~1e-13, far
    # below the rounding of cos(m phi) itself, so the oracle takes
    # d = cos(2 phi) - cos(2 t) = -2 sin(phi + t) sin(phi - t) in long
    # double.  The sweep forms K = cos B - 1 as -2 u^2 / (1 + u^2) with
    # u = tan(B / 2) and must match it to the two-pass bound of 1e-10
    # (K = cos B - 1 misses by 2e-3).
    times = np.concatenate([[0.0], np.geomspace(1e-7, 1e-3, 60)])
    params, n_real = RtnParams(1000.0, 1e-3), 4000
    for antithetic in (False, True):
        series = mc_exponential_moment(params, 2, times, n_real, SeedSpec(5), antithetic)
        n = n_real // 2 if antithetic else n_real
        phi = sample_batch(draw_ensemble(params, n, SeedSpec(5))).phases(times).astype(np.longdouble)
        t = times[:, None].astype(np.longdouble)
        d = -2 * np.sin(phi + t) * np.sin(phi - t)
        dev = d - d.mean(axis=1, keepdims=True)
        want = np.sqrt((dev * dev).sum(axis=1) / n / (n - 1))
        np.testing.assert_allclose(series.stderr, want.astype(float), rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("gamma, points, antithetic",
                         [(1000.0, 400, False), (1000.0, 400, True), (500.0, 4000, False)])
def test_mc_stderr_at_high_rate(gamma, points, antithetic, monkeypatch):
    # Motional narrowing: at gamma = 500 to 1000 the spread of cos(2 phi) is
    # small while its mean stays near 1, far from cos(2 t) (-1 at
    # t_max = pi / 2), so the sweep's sums about cos(2 t) reach ~1e5 times
    # the variance.  The stderr must still match a long-double two-pass
    # value at 1e-10.  On 400 times (1570 jumps a row) the direct pass runs
    # for its cost; on 4000 (785 jumps a row) because the first chunk's
    # sweep is below its rounding bound at a quarter of the times.  Where
    # the sweep's variance is above that bound, the sweep alone must hold
    # the 1e-10 too; run on one-row chunks, it does not give up there.
    params, n_real = RtnParams(gamma, 0.5 * np.pi), 1000
    times = np.linspace(0.0, 0.5 * np.pi, points)
    series = mc_exponential_moment(params, 2, times, n_real, SeedSpec(5), antithetic)
    n = n_real // 2 if antithetic else n_real
    batch = sample_batch(draw_ensemble(params, n, SeedSpec(5)))
    want = np.empty(points)
    for block in np.array_split(np.arange(points), -(-points // 500)):
        phi = batch.phases(times[block]).astype(np.longdouble)
        t = times[block, None].astype(np.longdouble)
        d = -2 * np.sin(phi + t) * np.sin(phi - t)  # cos(2 phi) - cos(2 t)
        dev = d - d.mean(axis=1, keepdims=True)
        want[block] = np.sqrt((dev * dev).sum(axis=1) / n / (n - 1))
    np.testing.assert_allclose(series.stderr, want, rtol=1e-10, atol=0.0)
    assert series.params["direct_times"] == points
    monkeypatch.setattr(rtn, "_CHUNK_SEGMENTS", 1)
    _, var, scale = rtn._sweep(2, batch, times, imag=not antithetic)
    held = var > rtn._SWEEP_VAR_FLOOR * scale
    assert np.max(scale[held] / var[held]) > 0.5 / rtn._SWEEP_VAR_FLOOR  # up to the bound
    np.testing.assert_allclose(np.sqrt(var[held] / (n - 1)), want[held], rtol=1e-10, atol=0.0)


def test_sweep_builds_each_chunk_once(monkeypatch):
    # The sweep judges motional narrowing on the sums of its own first
    # chunk, so a sparse batch over several chunks forms each chunk's
    # segments once (a separate pilot sweep formed the first chunk's twice),
    # from the drawn ensemble as from its materialised table.
    params, times = RtnParams(1.0, 2.0 * np.pi), np.linspace(0.0, 2.0 * np.pi, 400)
    ensemble = draw_ensemble(params, 3000, SeedSpec(2))
    batch = sample_batch(ensemble)
    rows = rtn._sweep_rows(batch)
    assert 1 < rows < len(batch) and len(batch) % rows
    calls, segments = [], rtn._segments
    monkeypatch.setattr(rtn, "_segments", lambda *a: calls.append(a) or segments(*a))
    for draws in (ensemble, batch):
        for imag in (True, False):
            calls.clear()
            assert rtn._reduce(2, draws, times, imag)[3] == 0  # swept, nothing redone
            assert len(calls) == -(-len(batch) // rows)


# (gamma, t_max, points, n_real, one-row sweep chunks, the pass that runs)
CHUNK_CASES = [
    (1.0, 2.0 * np.pi, 400, 3000, False, "sweep"),
    (0.0, 2.0 * np.pi, 400, 20000, False, "sweep"),  # no jump columns: 2^14 rows a chunk
    (20.0, 200.0, 400, 1000, False, "direct"),  # ~4000 jumps a row: the direct pass alone
    (1000.0, 0.5 * np.pi, 400, 1000, False, "direct"),
    (500.0, 0.5 * np.pi, 4000, 1000, False, "gave up"),  # narrowing seen on the first chunk
    (500.0, 0.5 * np.pi, 4000, 400, True, "redo"),  # one-row chunks judge nothing
]


@pytest.mark.parametrize("imag", [True, False])
@pytest.mark.parametrize("gamma, t_max, points, n_real, one_row_chunks, runs", CHUNK_CASES)
def test_chunked_reduction_matches_the_whole_draw(gamma, t_max, points, n_real, one_row_chunks,
                                                   runs, imag, monkeypatch):
    # sample_batch draws any rows [a, b) of an ensemble as those rows of its
    # whole table, bit for bit, and the reduction, which draws its chunks one
    # at a time (again for the redo pass and after the sweep gives up),
    # returns the bits of the reduction over the whole table.  The chunks
    # come through the module's sample_batch, where the benchmark's tracer
    # counts them.  Without imag (the antithetic mode) only the real part
    # is summed.
    ensemble = draw_ensemble(RtnParams(gamma, t_max), n_real, SeedSpec(5))
    whole = sample_batch(ensemble)
    assert whole.jump_times.shape == (n_real, ensemble.width) and (ensemble.width > 0) == (gamma > 0)
    for a, b in ((0, 1), (7, 300), (n_real - 5, n_real), (n_real - 3, n_real + 4), (n_real, n_real)):
        part = sample_batch(ensemble, a, b)
        assert np.array_equal(part.jump_times, whole.jump_times[a:b])
        assert np.array_equal(part.signs, whole.signs[a:b])
    times = np.linspace(0.0, t_max, points)
    if one_row_chunks:
        monkeypatch.setattr(rtn, "_CHUNK_SEGMENTS", 1)
    drawn = []

    def counted(*args):
        chunk = sample_batch(*args)
        drawn.append(len(chunk))
        return chunk

    monkeypatch.setattr(rtn, "sample_batch", counted)
    values, se, events, direct = rtn._reduce(2, ensemble, times, imag)
    want = rtn._reduce(2, whole, times, imag)
    assert np.array_equal(values, want[0]) and np.array_equal(se, want[1])
    assert events == want[2] == np.isfinite(whole.jump_times).sum()
    assert direct == want[3]
    sweep_rows = rtn._sweep_rows(ensemble)
    if runs == "sweep":
        assert direct == 0 and n_real % sweep_rows  # a partial last chunk
        assert sum(drawn) == n_real  # each chunk drawn once
    elif runs == "direct":
        assert direct == points and sum(drawn) == n_real
    elif runs == "gave up":  # the first chunk of the sweep, then every chunk again
        assert direct == points and sum(drawn) == sweep_rows + n_real
    else:  # the whole sweep, then every chunk again for the redo pass
        assert 0 < direct < points and sum(drawn) == 2 * n_real
    assert max(drawn) < n_real


def test_mc_memory_does_not_grow_with_the_jump_table():
    # The reduction holds one row chunk of the padded jump table at a time,
    # so from 2e4 to 8e4 realizations (about 12 jumps each) the peak traced
    # allocation grows by the counts and signs alone, not by the table
    # (which grew it by 11.3 MB).
    times = np.linspace(0.0, 2.0 * np.pi, 400)

    def peak(n_real):
        tracemalloc.start()
        try:
            mc_exponential_moment(RtnParams(1.0, 2.0 * np.pi), 2, times, n_real, SeedSpec(3))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(80_000) - peak(20_000) <= 2e6


def test_mc_stderr_of_duplicated_rows_is_zero():
    # Where every row that has jumped reads the same cos(m phi) the variance
    # is 0, far below the sweep's rounding bound; the direct pass must
    # return it (the expanded sums alone left ~2e-8).
    batch = TrajectoryBatch(np.array([1.0, 1.0]), np.array([[0.37, 1.21], [0.37, 1.21]]))
    values, se, events, direct = rtn._reduce(3, batch, np.linspace(0.0, 2.0, 9), imag=True)
    assert np.all(se < 1e-15)
    assert 0 < direct < 9


def test_direct_pass_bits_do_not_depend_on_trig_order():
    # With fewer grid times than jump segments the direct pass runs its trig
    # on the gathered segment values, otherwise once per segment before the
    # gather.  Padding columns switch it from one to the other without moving
    # a row's segments, and the three rows stay one chunk either way.
    times = np.linspace(0.0, 2.0, 9)
    rows = [(1, [0.5, 1.25, 1.5]), (-1, [0.0, 2.0]), (1, [0.25, 0.3, 1.9])]
    batch = stack_batches([one_row(sign, jumps) for sign, jumps in rows])
    padded = stack_batches([batch, TrajectoryBatch(np.zeros(0), np.full((0, 20), np.inf))])
    assert batch.jump_times.shape[1] + 1 < times.size < padded.jump_times.shape[1] + 1
    for imag in (True, False):
        values, se = rtn._direct(3, batch, times, imag)
        values_padded, se_padded = rtn._direct(3, padded, times, imag)
        assert np.array_equal(values, values_padded) and np.array_equal(se, se_padded)


def test_segment_terms_match_the_sines():
    # K = cos B - 1 and sin B from one tangent, against -2 * sin(B / 2)^2 and
    # sin B.  The bound comes from the arithmetic: a tangent within a few ulps
    # moves K by at most twice and sin B by at most once its relative error,
    # the quotients add four roundings and each reference up to three of its
    # own.  16 ulps of the reference holds all of that; at small B it is a
    # relative bound on K, where cos B - 1 taken directly would lose every digit.
    # Within 1000 ulps of odd multiples of pi |tan(B / 2)| is large, K is
    # near -2 and sin B near 0; -u * sin B rounds below -2 at ~5 % of them.
    odd = np.pi * np.array([1, 3, 5, 101, 1001, 10**6 + 1, 10**12 + 1, 10**15 + 1], float)
    near = np.concatenate([(odd[:, None] + np.arange(-1000, 1001) * np.spacing(odd)[:, None]).ravel(),
                           2.0 * odd])
    # B / 2 is the double nearest an odd multiple of pi / 2 (4.7e-19 off), so
    # tan(B / 2) is the largest any double B gives (2.1e18).
    worst = 2.0 * 6381956970095103 * 2.0**797
    b = np.concatenate([10.0 ** np.linspace(-300.0, 300.0, 6001), near, [worst, 1e300]])
    b = np.concatenate([b, -b, [0.0]])
    sigma = np.where(np.arange(b.size) % 2, 1.0, -1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k, sigma_sin, sigma_cos, sin_b = rtn._segment_terms(b.copy(), sigma, True)
        assert np.array_equal(rtn._segment_terms(b.copy(), sigma, False), [k, sigma_sin])
    with np.errstate(under="ignore"):
        k_ref, sin_ref = -2.0 * np.sin(b / 2.0) ** 2, np.sin(b)
    assert np.all(np.isfinite(k)) and np.all(np.isfinite(sin_b))
    assert np.all((-2.0 <= k) & (k <= 0.0)) and np.all(np.abs(sin_b) <= 1.0)
    assert np.all(np.abs(k - k_ref) <= 16 * np.spacing(np.abs(k_ref)))
    assert np.all(np.abs(sin_b - sin_ref) <= 16 * np.spacing(np.abs(sin_ref)))
    assert np.array_equal(sigma_sin, sigma * sin_b) and np.array_equal(sigma_cos, sigma * (k + 1.0))
    assert k[-1] == 0.0 and sin_b[-1] == 0.0  # B = 0 before a row's first jump: d = 0 exactly
