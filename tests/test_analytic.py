"""Closed-form moment branches and the coherence-factor oracles."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import build_state, concurrence
from test_contract import refusal_tests

from ltgsim import analytic
from ltgsim.analytic import (
    exponential_moment,
    global_coherence,
    local_coherence,
)

globals().update(refusal_tests(__name__))  # the refusal cases: test_contract's table

# 3 * exp(-2): degenerate-branch value at gamma = m = 2, t = 1, frozen from
# the gamma -> m limit of the hyperbolic form.
DEGENERATE_VALUE = 0.4060058497098381


def test_free_evolution_is_cosine():
    t = np.linspace(0, 2 * np.pi, 101)
    assert np.allclose(exponential_moment(0.0, 4, t), np.cos(4 * t), atol=1e-15)
    # a list of times gives the array, not a TypeError from float()
    assert np.array_equal(exponential_moment(0.0, 4, t.tolist()), exponential_moment(0.0, 4, t))


def test_degenerate_branch_value():
    assert exponential_moment(2.0, 2, 1.0) == pytest.approx(DEGENERATE_VALUE, abs=1e-12)


def test_closed_form_real_exp_is_np_exp_bit_for_bit(monkeypatch):
    # Every branch's exp goes through optics.real_exp; the moments and both
    # coherences must still be np.exp's, bit for bit: at rates on and 1e-10
    # beside the crossover, slow, fast and far past it, on 400 times.
    times = np.linspace(0.0, 2.0 * np.pi, 400)
    cases = [(order, g) for order in (1, 2, 4)
             for g in (0.0, order - 1e-10, order + 1e-10, 0.12, 1.0, 5.0, 1e3)]

    def run():
        return ([exponential_moment(g, order, times) for order, g in cases]
                + [f(g, times).values for f in (local_coherence, global_coherence) for _, g in cases])

    got = run()
    monkeypatch.setattr(analytic, "real_exp", np.exp)
    for have, want in zip(got, run()):
        assert have.tobytes() == want.tobytes()


def test_zero_time_is_unity():
    for gamma in (0.0, 0.5, 2.0, 7.0):
        for m in (1, 2, 4, 5):
            assert exponential_moment(gamma, m, 0.0) == 1.0


def test_branch_continuity_across_crossover():
    for t in (0.5, 1.0, 2.0):
        mid = exponential_moment(2.0, 2, t)
        assert abs(exponential_moment(2.0 + 1e-6, 2, t) - mid) < 1e-4
        assert abs(exponential_moment(2.0 - 1e-6, 2, t) - mid) < 1e-4


def test_overdamped_is_monotone():
    t = np.linspace(0, 6, 1200)
    for gamma, m in ((2.0, 2), (4.0, 2), (6.0, 4), (4.0, 4)):
        vals = exponential_moment(gamma, m, t)
        assert np.all(np.diff(vals) <= 1e-12)


@given(st.floats(0, 10), st.integers(1, 6), st.floats(0, 10))
@settings(max_examples=200, deadline=None)
def test_moment_bounded(gamma, m, t):
    val = exponential_moment(gamma, m, t)
    assert -1.0 - 1e-9 <= val <= 1.0 + 1e-9


def test_local_coherence_zero_rate():
    t = np.linspace(0, 2 * np.pi, 101)
    series = local_coherence(0.0, t)
    assert np.allclose(series.values.real, np.cos(2 * t) ** 2, atol=1e-15)
    nodes = local_coherence(0.0, np.array([np.pi / 4, np.pi / 2]))
    assert nodes.values[0].real == pytest.approx(0.0, abs=1e-12)
    assert nodes.values[1].real == pytest.approx(1.0, abs=1e-12)  # revival peak


def test_global_coherence_zero_rate():
    series = global_coherence(0.0, np.array([0.0, np.pi / 4]))
    assert series.values[0] == 1.0 + 0.0j
    assert series.values[1].real == pytest.approx(-1.0, abs=1e-12)


def test_local_is_squared_moment():
    t = np.linspace(0, 4, 57)
    for gamma in (0.0, 0.3, 1.0, 5.0):
        series = local_coherence(gamma, t)
        assert np.allclose(series.values.real, exponential_moment(gamma, 2, t) ** 2, atol=0)


def test_coherences_bounded():
    t = np.linspace(0, 8, 301)
    for gamma in (0.0, 0.12, 1.0, 3.0, 10.0):
        assert np.all(local_coherence(gamma, t).magnitude <= 1 + 1e-12)
        assert np.all(global_coherence(gamma, t).magnitude <= 1 + 1e-12)
    for coherence in (local_coherence, global_coherence):
        assert coherence(0.5, [0, 0.5]).times.dtype == float  # a list grid is read as floats


def test_entanglement_magnitude():
    series = global_coherence(0.0, np.array([np.pi / 8, np.pi / 4]))
    e = series.magnitude
    assert e[0] == pytest.approx(0.0, abs=1e-12)  # |cos(pi/2)| = 0
    assert e[1] == pytest.approx(1.0, abs=1e-12)  # |cos(pi)| = 1


def test_entanglement_matches_concurrence_oracle():
    # E(t) = |Gamma(t)| must equal the Wootters concurrence of the
    # dephased state built from Gamma at unit purity.
    t = np.linspace(0, 2 * np.pi, 40)
    series = global_coherence(0.12, t)
    e = series.magnitude
    for k in range(t.size):
        state = build_state(1.0, complex(series.values[k]))
        assert abs(concurrence(state) - e[k]) < 1e-10


def test_fast_noise_form_matches_hyperbolic_form():
    # For gamma > m the moment is evaluated without cosh and sinh: in
    # exp(-g t) * (cosh(d t) + (g/d) sinh(d t)) the exp underflows while
    # cosh overflows once g t exceeds ~710, which made NaN.  Where that form
    # is finite both agree to rounding; beyond it the moment stays finite.
    t = np.linspace(0.0, 2.0 * np.pi, 400)
    for gamma in (2.5, 4.0 + 1e-6, 5.0, 30.0, 111.0, 200.0, 500.0, 1e6):
        for m in (1, 2, 4):
            if gamma <= m:
                continue
            got = exponential_moment(gamma, m, t)
            assert np.all(np.isfinite(got)) and np.all(np.abs(got) <= 1.0)
            ts = t[gamma * t <= 700.0]
            d = np.sqrt(gamma * gamma - m * m)
            want = np.exp(-gamma * ts) * (np.cosh(d * ts) + (gamma / d) * np.sinh(d * ts))
            assert np.all(np.abs(got[:ts.size] - want) <= 1e-12 * np.abs(want)), (gamma, m)
