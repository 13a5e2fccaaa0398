"""Trajectory sampling, exact phases and Monte Carlo moments."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import field_phases, field_trajectories

from ltgsim import rtn
from ltgsim.analytic import exponential_moment
from ltgsim.rtn import (
    MAX_EXPECTED_JUMPS,
    RtnParams,
    SeedSpec,
    TrajectoryBatch,
    mc_exponential_moment,
    sample_batch,
    sample_trajectory,
    stack_batches,
)
from ltgsim.slm import MaskGeometry, build_phase_field


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
    batch = sample_batch(RtnParams(0.0, 10.0), 7, SeedSpec(3))
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


def test_jump_count_poisson_oracle():
    # Oracle: jump count over [0, t_max] is Poisson with mean gamma * t_max.
    gamma, t_max, n = 0.12, 10.0, 100_000
    batch = sample_batch(RtnParams(gamma, t_max), n, SeedSpec(2024))
    counts = np.isfinite(batch.jump_times).sum(axis=1)
    mean = gamma * t_max
    se = np.sqrt(mean / n)
    assert abs(counts.mean() - mean) < 3 * se


def test_autocorrelation_matches_exponential():
    # <X(t) X(0)> = exp(-2 gamma t)
    gamma, t_max, n = 2.0, 1.0, 100_000
    batch = sample_batch(RtnParams(gamma, t_max), n, SeedSpec(11))
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


@pytest.mark.parametrize("times, rows", [
    # Jumps exactly on grid times (steps of 0.25, exact in binary), at t = 0
    # and at the last grid time: the phase is continuous at a jump, so
    # counting it at its own grid time must still give the oracle.
    (np.linspace(0.0, 2.0, 9), [(1, [0.5, 1.25, 1.5]), (-1, [0.0, 2.0]), (1, [0.25, 0.3])]),
    # t_min > 0 with jumps before the first grid time: they count at every
    # grid time, and phi is still the integral from 0.
    (np.linspace(1.0, 3.0, 11), [(1, [0.2, 0.7, 1.3, 2.9]), (-1, [0.1]), (1, [0.4, 0.6, 0.8])]),
])
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
    batch = sample_batch(params, 50, SeedSpec(9))
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


def test_descending_grid_rejected():
    # The integrator bins jumps into an ascending grid; any other order
    # would give wrong phases, so both callers refuse it.
    times = np.linspace(0, 2, 9)[::-1]
    with pytest.raises(ValueError, match="ascending"):
        mc_exponential_moment(RtnParams(1.0, 2.0), 2, times, 10, SeedSpec(0))
    with pytest.raises(ValueError, match="ascending"):
        build_phase_field(1.0, times, 3)
    with pytest.raises(ValueError, match="ascending"):
        one_row(1, [0.5]).phases([0.0, 1.0, 0.5])


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


def test_mc_parameter_errors():
    with pytest.raises(ValueError):
        mc_exponential_moment(RtnParams(1, 1), 2, np.array([0.5]), 1, SeedSpec(0))
    with pytest.raises(ValueError):
        mc_exponential_moment(
            RtnParams(1, 1), 2, np.array([0.5]), 101, SeedSpec(0), antithetic=True
        )


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


def test_mc_plain_is_direct_mean_over_same_draws():
    # Plain mode forms cos and sin of m * phi by angle addition over the jump
    # segments; the oracle is the direct mean of exp(i m phi) over the same
    # sample_batch draws, all rows integrated at once.  At 400 points the
    # reduction runs in tiles of 163 rows, and 1000 rows leave a partial last
    # tile.  Order 3 is not a power of two, so m times a segment offset is
    # not exact, and at t_max = 200 the arguments reach 600.
    assert 1000 % (rtn._TILE_PHASES // 400) and 1000 > rtn._TILE_PHASES // 400
    for gamma, t_max, points, n_real, orders in ((1.3, 2.0, 9, 3000, (1, 2, 4)),
                                                 (1.3, 2.0, 400, 1000, (1, 2, 4)),
                                                 (0.0, 200.0, 400, 1000, (3,)),
                                                 (20.0, 200.0, 400, 1000, (3,))):
        params = RtnParams(gamma, t_max)
        times = np.linspace(0, t_max, points)
        batch = sample_batch(params, n_real, SeedSpec(8))
        phi = batch.phases(times)
        for order in orders:
            series = mc_exponential_moment(params, order, times, n_real, SeedSpec(8), antithetic=False)
            expect = np.exp(1j * order * phi).mean(axis=1)
            assert np.max(np.abs(series.values - expect)) < 1e-12
            want_se = np.cos(order * phi).std(axis=1, ddof=1) / np.sqrt(n_real)
            assert np.max(np.abs(series.stderr - want_se)) < 1e-12
    # At gamma = 0, phi = s * t: every row reads cos(m t), and sin(m t) with its sign.
    params, times = RtnParams(0.0, 200.0), np.linspace(0.0, 200.0, 400)
    s_mean = sample_batch(params, 1000, SeedSpec(8)).signs.mean()
    zero = mc_exponential_moment(params, 3, times, 1000, SeedSpec(8), antithetic=False)
    assert np.max(np.abs(zero.values.real - np.cos(3 * times))) < 1e-15
    assert np.max(np.abs(zero.values.imag - s_mean * np.sin(3 * times))) < 1e-15


def test_mc_stderr_matches_two_pass_oracle():
    # Where cos(m phi) barely varies (early times) a one-pass difference of
    # raw moments loses relative precision; the shifted sums must keep the
    # stderr of the same draws within 1e-10 of a long-double two-pass value.
    params, n_real = RtnParams(1.0, 2.0 * np.pi), 3000
    times = np.linspace(0.0, 2.0 * np.pi, 400)
    series = mc_exponential_moment(params, 2, times, n_real, SeedSpec(5), antithetic=False)
    v = np.cos(2 * sample_batch(params, n_real, SeedSpec(5)).phases(times)).astype(np.longdouble)
    dev = v - v.mean(axis=1, keepdims=True)
    want = np.sqrt((dev * dev).sum(axis=1) / n_real / (n_real - 1))
    np.testing.assert_allclose(series.stderr, want.astype(float), rtol=1e-10, atol=0.0)

