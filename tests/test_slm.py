"""Mask geometry, correlation kernel, phase fields and the kernel sum."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import block_table, field_phases, normalization
from scipy.optimize import curve_fit
from test_contract import refusal_tests

from ltgsim import slm
from ltgsim.analytic import exponential_moment
from ltgsim.measurement import _pattern_coherence, calibrate_wcp
from ltgsim.rtn import SeedSpec
from ltgsim.slm import (
    KernelParams,
    MaskGeometry,
    build_kernel,
    build_phase_field,
    kernel_coherence,
    phasor_sum,
    transition_sweep,
)

GEO = MaskGeometry()
TIMES = np.linspace(0.0, 2.0 * np.pi, 60)

globals().update(refusal_tests(__name__))  # the refusal cases: test_contract's table


def gauss(x, a, c, w):
    return a * np.exp(-2.0 * (x - c) ** 2 / w**2)


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------


@given(
    st.floats(0.3, 50.0),
    st.floats(2.0, 80.0),
    st.sampled_from([2, 4, 6]),
)
@settings(max_examples=25, deadline=None)
def test_kernel_unit_sum_and_positive(w_cp, w_p, n):
    k = build_kernel(KernelParams(w_cp, w_p, n, GEO))
    assert abs(k.weights.sum() - 1.0) < 1e-12
    assert np.all(k.weights >= 0.0)


def test_kernel_factors_are_plain_exp_bit_for_bit(monkeypatch):
    # kernel_factors leaves the arguments below -746 out of np.exp; every
    # factor must still be np.exp's, bit for bit: the presets' kernels (the
    # spectral sweep's from its width table), the calibration's 21 rows, a
    # wide kernel and an order-4 one.
    from ltgsim.cli import PRESETS, resolve_config
    from ltgsim.optics import PdcSetup, wcp_curve

    table = wcp_curve(PdcSetup(), PRESETS["fig4-right"]["spectral"]["widths_nm"])
    cases = [(KernelParams(**resolve_config(dict(p))["kernel"]), None) for p in PRESETS.values()]
    cases += [(KernelParams(float(w), float(wp), int(n)), None)
              for w, wp, n in zip(table.w_cp, table.w_p, table.order)]
    cases += [(KernelParams(3.1, 20.0), [3.1, *np.linspace(0.5, 10.0, 20)]),
              (KernelParams(20.0, 200.0), None), (KernelParams(3.0, 20.0, 4), None)]
    got = [slm.kernel_factors(params, w_cp) for params, w_cp in cases]
    monkeypatch.setattr(slm, "real_exp", np.exp)
    for (params, w_cp), factors in zip(cases, got):
        for have, want in zip(factors, slm.kernel_factors(params, w_cp)):
            assert np.array_equal(have, want), params


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("geo", [GEO, MaskGeometry(j0=40.5, k0=600.0)])
def test_kernel_is_product_of_its_factors(n, geo):
    # The weights are the outer product of the beam envelopes times the
    # correlation value of each index difference j - k, normalized, bit for bit.
    kp = KernelParams(3.0, 40.0, n, geo)
    g1, g2, corr_diff = slm.kernel_factors(kp)
    j = np.arange(geo.pixels_per_half)
    diff = j[:, None] - j[None, :] + j.size - 1
    dj, dk = geo.offsets1(), geo.offsets2()
    assert np.array_equal(corr_diff[diff],
                          np.exp(-2.0 * np.abs(dj[:, None] - dk[None, :]) ** n / 3.0**n))
    assert np.array_equal(g1, np.exp(-2.0 * dj**2 / 40.0**2))
    assert np.array_equal(g2, np.exp(-2.0 * dk**2 / 40.0**2))
    w = np.outer(g1, g2) * corr_diff[diff]
    total = slm.kernel_band(corr_diff, slm.pair_sums(g1, g2))[0]
    assert np.array_equal(build_kernel(kp).weights, w / total)
    for other in (total, normalization(g1, g2, corr_diff)[1]):  # the oracle's Toeplitz total
        assert other == pytest.approx(w.sum(), rel=1e-14, abs=0.0)


def test_kernel_factorizes_without_correlation():
    # w_cp -> infinity: the pair factor is 1 and the kernel is a product
    # of independent Gaussians in each half.
    k = build_kernel(KernelParams(1e6, 20.0, 2, GEO))
    g = np.exp(-2.0 * GEO.offsets1() ** 2 / 20.0**2)
    product = np.outer(g, g)
    product /= product.sum()
    assert np.max(np.abs(k.weights - product)) < 1e-9


@pytest.mark.filterwarnings("ignore::scipy.optimize.OptimizeWarning")
def test_kernel_conditional_width():
    # conditional distribution of dj - dk is Gaussian of width ~ w_cp
    k = build_kernel(KernelParams(3.0, 20.0, 2, GEO))
    col = np.argmin(np.abs(GEO.offsets2()))  # dk = 0 column
    cond = k.weights[:, col]
    popt, _ = curve_fit(gauss, GEO.offsets1(), cond, p0=[cond.max(), 0, 3.0])
    assert abs(popt[2]) == pytest.approx(3.0, abs=0.2)


@pytest.mark.filterwarnings("ignore::scipy.optimize.OptimizeWarning")
def test_kernel_marginal_width():
    # The w_p = 20 envelope acts once per arm, so the pair marginal is the
    # product of both factors evaluated near dj = dk: width w_p / sqrt(2).
    k = build_kernel(KernelParams(3.0, 20.0, 4, GEO))
    marg = k.weights.sum(axis=1)
    popt, _ = curve_fit(gauss, GEO.offsets1(), marg, p0=[marg.max(), 0, 15.0])
    assert abs(popt[2]) == pytest.approx(20.0 / np.sqrt(2.0), abs=1.0)
    # the per-arm w_p = 20 scale itself is pinned by the factorization test


# ---------------------------------------------------------------------------
# phase field
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n_rep, geo", [(1, GEO), (7, GEO), (160, GEO), (320, GEO),
                                         (3, MaskGeometry(pixels_per_half=10, j0=4.0, k0=15.0)), (3, GEO)])
def test_field_blocks_follow_from_n_rep(n_rep, geo):
    # The field stores n_rep, not the block of each offset: block_index follows
    # from n_rep and the geometry, runs along the mask in steps of one (one run
    # per block) and puts each mirror twin n_blocks / 2 after its block.
    fld = build_phase_field(0.5, TIMES[:3], n_rep, geo, SeedSpec(6))
    index, span = fld.block_index, geo.pixels_per_half // 2
    assert fld.n_rep == n_rep and index.size == geo.pixels_per_half
    assert index[0] == 0 and set(np.diff(index[:span]).tolist()) <= {0, 1}
    runs = np.bincount(index[:span])  # full blocks of n_rep offsets, the last one possibly short
    assert np.all(runs[:-1] == min(n_rep, span)) and 1 <= runs[-1] <= min(n_rep, span)
    assert np.array_equal(index[span:], index[:span] + fld.n_blocks() // 2)


def test_field_independent_blocks_differ():
    fld = build_phase_field(2.0, TIMES, 3, GEO, SeedSpec(9))
    assert not np.array_equal(fld.phasors[fld.block_index[0]], fld.phasors[fld.block_index[3]])


# ---------------------------------------------------------------------------
# kernel sum
# ---------------------------------------------------------------------------


def test_unit_phasors_give_unity():
    k = build_kernel(KernelParams(3.0, 20.0, 2, GEO))
    zeros = np.zeros((320, 4))
    for delta in (0, 3, -5):
        g = phasor_sum(k, zeros, zeros, delta)
        assert np.allclose(g, 1.0, atol=1e-12)


def test_coherence_is_one_at_time_zero():
    k = KernelParams(3.0, 20.0, 2, GEO)
    times = np.linspace(0.0, 2.0, 10)
    fld = build_phase_field(0.8, times, 3, GEO, SeedSpec(10))
    for delta in (0, 3):
        series = kernel_coherence(k, fld, fld, delta)
        assert series.values[0] == pytest.approx(1.0 + 0.0j, abs=1e-14)
        assert np.all(series.magnitude <= 1.0 + 1e-12)


def test_translation_covariance():
    # Shifting fields and kernel references together relabels the sum.
    times = np.linspace(0.0, 1.0, 5)
    rng = np.random.default_rng(0)
    phases = rng.normal(size=(320, times.size))
    shift = 4
    k0 = build_kernel(KernelParams(3.0, 10.0, 2, GEO))
    geo_shifted = MaskGeometry(j0=GEO.j0 + shift, k0=GEO.k0 + shift)
    k1 = build_kernel(KernelParams(3.0, 10.0, 2, geo_shifted))
    rolled = np.roll(phases, shift, axis=0)
    a = phasor_sum(k0, phases, phases, 0)
    b = phasor_sum(k1, rolled, rolled, 0)
    assert np.max(np.abs(a - b)) < 1e-9


def test_out_of_range_mass_dropped_not_renormalized():
    # A large shift pushes weight past the mask edge; the lost phasors are
    # dropped without renormalizing, so Gamma(delta, 0) < 1.
    k = build_kernel(KernelParams(3.0, 200.0, 2, GEO))
    zeros = np.zeros((320, 1))
    g = phasor_sum(k, zeros, zeros, delta=150)
    assert g[0].real < 0.95
    kept = k.weights[:, (np.arange(320) + 150) < 320].sum()
    assert g[0].real == pytest.approx(kept, abs=1e-12)


@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("n_rep", [1, 3, 7, 320])
def test_block_contraction_matches_pixel_sum(shared, n_rep):
    # The block-pair contraction of kernel_coherence against the literal
    # pixel sum over the same phases, with field 2 the shared field or an
    # independent one.  n_rep = 7 leaves a truncated last block in each
    # half-mask and n_rep = 320 one block and its mirror; the independent
    # field uses another block size, so the block weight matrix is not
    # square.  The w_p = 200 kernel loses ~9 % of its mass off the mask at
    # delta = 150.
    # The (20, n = 4) and w_cp = 8 kernels have the widest bands of B in
    # the presets.  lost_mass comes from the factors, the oracle's from the
    # dense kernel: the same weights summed in another order, so they agree
    # to rounding (both are exactly 0 when no column leaves the mask).
    f1 = build_phase_field(2.0, TIMES, n_rep, GEO, SeedSpec(31))
    other = f1 if shared else build_phase_field(2.0, TIMES, 5, GEO, SeedSpec(31, 1000))
    mask1, mask2 = 2.0 * field_phases(f1), 2.0 * field_phases(other)
    for kp in (KernelParams(3.0, 20.0, 2, GEO), KernelParams(3.0, 200.0, 2, GEO),
               KernelParams(20.0, 20.0, 4, GEO), KernelParams(8.0, 20.0, 2, GEO)):
        k = build_kernel(kp)
        for delta in (-5, 0, 3, 150):
            shifted = np.arange(320) + delta
            lost = k.weights[:, (shifted < 0) | (shifted >= 320)].sum()
            series = kernel_coherence(kp, f1, other, delta)
            pixel = phasor_sum(k, mask1, mask2, delta)
            assert np.max(np.abs(series.values - pixel)) < 1e-13
            assert series.params["lost_mass"] == pytest.approx(lost, rel=1e-13, abs=0.0)
            assert series.params["shared_field"] == shared


@pytest.mark.parametrize("n_rep", [1, 3, 7])
def test_banded_contraction_equals_dense_einsum(n_rep, monkeypatch):
    # The banded product skips only exact zeros of the block table, so at
    # any group size it equals the dense einsum on the same table bit for
    # bit: banding can never drop weight.
    fld = build_phase_field(1.0, TIMES, n_rep, GEO, SeedSpec(32))
    z = fld.phasors.view(float)
    for kp in (KernelParams(3.0, 20.0, 2, GEO), KernelParams(20.0, 20.0, 4, GEO),
               KernelParams(8.0, 20.0, 2, GEO), KernelParams(3.0, 200.0, 2, GEO)):
        for delta in (-5, 0, 3):
            table, first = block_table(kp, fld, fld, delta)
            slm._flush(table, slm._FLUSH_MASS)
            z2 = z[first:first + table.shape[1]]
            dense = np.einsum("ab,bt->at", table, z2, optimize=False)
            for rows in (1, 6, 200):
                monkeypatch.setattr(slm, "_BAND_ROWS", rows)
                assert np.array_equal(slm._band_product(table, z2), dense)


@pytest.mark.parametrize("n_rep", [1, 3, 7])
def test_flush_moves_gamma_by_at_most_flushed_mass(n_rep):
    # The kernel sum leaves out the j - k diagonals that weigh less than one
    # flush threshold thr = 2^-70 / B.size together, then zeroes the entries
    # of B below the rest of the 2^-70 budget / B.size.  Against the dense
    # oracle table with only subnormal entries zeroed, Gamma(t) moves by at
    # most the weight left out, flushed_mass <= 2^-70, since |z1 z2| = 1;
    # 1e-15 covers the rounding of the sum.  B's entries are the oracle's up
    # to rounding and the left-out diagonals, so B keeps every block pair the
    # oracle holds at 2 thr or more and none it holds below thr / 2, and
    # flushed_mass lies between the oracle's weight below thr / 2 and its
    # weight below 2 thr plus thr (1e-12 covers the summation order).
    fld = build_phase_field(1.0, TIMES, n_rep, GEO, SeedSpec(35))
    z = fld.phasors.view(float)
    for w_cp in (3.0, 8.0, 20.0):
        for w_p in (20.0, 200.0):
            for n in (2, 4):
                kp = KernelParams(w_cp, w_p, n, GEO)
                for delta in (-5, 0, 3):
                    table, first = block_table(kp, fld, fld, delta)
                    thr = 2.0**-70 / table.size
                    dense = table.copy()
                    table[table < np.finfo(float).tiny] = 0.0
                    z2 = z[first:first + table.shape[1]]
                    m = np.einsum("ab,bt->at", table, z2, optimize=False).view(complex)
                    subnormal_only = (fld.phasors * m).sum(axis=0)
                    series = kernel_coherence(kp, fld, fld, delta)
                    p = series.params
                    assert p["flushed_mass"] <= 2.0**-70
                    assert (np.count_nonzero(dense >= 2.0 * thr) <= p["b_nonzeros"]
                            <= np.count_nonzero(dense >= thr / 2.0))
                    assert (dense[dense < thr / 2.0].sum() * (1.0 - 1e-12) <= p["flushed_mass"]
                            <= (dense[dense < 2.0 * thr].sum() + thr) * (1.0 + 1e-12))
                    assert (np.max(np.abs(series.values - subnormal_only))
                            <= p["flushed_mass"] + 1e-15), (w_cp, w_p, n, delta)


@pytest.mark.parametrize("gamma, n_rep, seed", [
    (0.12, 3, SeedSpec(12345)), (1.5, 7, SeedSpec(3, 1000)), (4.0, 320, SeedSpec(0, 5)), (0.0, 3, SeedSpec(5))])
def test_field_follows_documented_streams(gamma, n_rep, seed):
    # Block b of a field at (master_seed, s) is the trajectory of stream
    # s + 1 + b and its mirror twin the same trajectory negated: re-drawn
    # from those streams, exp(2i phi) equals the stored phasors bit for bit.
    # At gamma = 0 those phases are +-t (test_zero_rate_trajectory_is_constant).
    assert seed.item(2) == SeedSpec(seed.master_seed, seed.stream_index + 3)
    fld = build_phase_field(gamma, TIMES, n_rep, GEO, seed)
    assert fld.n_blocks() == 2 * -(-160 // n_rep)
    assert np.array_equal(np.exp(2j * field_phases(fld)), fld.phasors[fld.block_index])


def test_class_masses_sum_to_one():
    # The three class masses, the weight shifted off the mask and the
    # weight flushed from B account for the whole kernel, and each class
    # mass is the dense oracle table's (flushed by the same rule) up to
    # rounding.
    for n_rep in (1, 3, 320):
        fld = build_phase_field(0.5, TIMES, n_rep, GEO, SeedSpec(34))
        for kp in (KernelParams(3.0, 20.0, 2, GEO), KernelParams(20.0, 20.0, 4, GEO),
                   KernelParams(3.0, 200.0, 2, GEO)):
            for delta in (-5, 0, 3, 150):
                p = kernel_coherence(kp, fld, fld, delta).params
                total = (p["m_same"] + p["m_mirror"] + p["m_indep"]
                         + p["lost_mass"] + p["flushed_mass"])
                assert abs(total - 1.0) <= 1e-15
                assert min(p["m_same"], p["m_mirror"], p["m_indep"], p["flushed_mass"]) >= 0.0
                table, first = block_table(kp, fld, fld, delta)
                slm._flush(table, slm._FLUSH_MASS)
                for name, mass in slm._class_masses(table, first, fld.n_blocks()).items():
                    assert abs(p[name] - mass) <= 1e-15, (name, n_rep, kp, delta)
    # independent fields have no class masses
    other = build_phase_field(0.5, TIMES, 3, GEO, SeedSpec(34, 1000))
    assert "m_same" not in kernel_coherence(kp, fld, other, 0).params


@pytest.mark.parametrize("gamma", [0.12, 1.0])
def test_seed_mean_matches_exact_ensemble_mean(gamma):
    # Same-block pairs see e^{4i phi} (mean M4), a block and its mirror twin
    # see 1, independent blocks M2^2, so the ensemble mean of the kernel sum
    # is m_same M4 + m_mirror + m_indep M2^2.  n_rep = 320 puts mass on the
    # mirror class.  The floor covers float rounding where the spread
    # across seeds vanishes (t = 0).
    n_seeds = 200
    times = np.linspace(0.0, 2.0 * np.pi, 30)
    m2, m4 = exponential_moment(gamma, 2, times), exponential_moment(gamma, 4, times)
    w3, w8 = (KernelParams(w_cp, 20.0, 2, GEO) for w_cp in (3.0, 8.0))
    cases = ((3, [(w3, 3), (w3, 0), (w8, 0)]), (320, [(w3, 2)]))
    for n_rep, reads in cases:
        fields = [build_phase_field(gamma, times, n_rep, GEO, SeedSpec(s)) for s in range(n_seeds)]
        for k, delta in reads:
            runs = [kernel_coherence(k, fld, fld, delta) for fld in fields]
            p = runs[0].params
            exact = p["m_same"] * m4 + p["m_mirror"] + p["m_indep"] * m2**2
            values = np.array([series.values for series in runs])
            for part, want in ((values.real, exact), (values.imag, 0.0)):
                se = part.std(axis=0, ddof=1) / np.sqrt(n_seeds)
                assert np.all(np.abs(part.mean(axis=0) - want) <= 5.0 * se + 1e-14), p
    assert p["m_mirror"] > 0.1


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_delta_sweep_revival_emergence():
    # Walking delta from 3 to 0 raises the global-environment revival at
    # t = pi/4 (where the local-limit curve has a node) monotonically.
    t = np.linspace(0.0, 2.0 * np.pi, 400)
    kp = KernelParams(3.0, 20.0, 2, GEO)
    sweep = transition_sweep(0.12, [kp], [3, 2, 1, 0], t, seed=SeedSpec(12345))
    k = np.argmin(np.abs(t - np.pi / 4))
    peaks = [abs(s.values.real[k]) for s in sweep]
    assert all(np.diff(peaks) > 0.0)
    assert peaks[-1] > 2.0 * peaks[0]


def test_spectral_sweep_empty():
    assert transition_sweep(0.12, [], [0], TIMES) == []


def test_spectral_sweep_endpoints():
    narrow_kp, wide_kp = KernelParams(0.5, 20.0, 2, GEO), KernelParams(9.0, 20.0, 4, GEO)
    t = np.linspace(0.0, 2.0 * np.pi, 120)
    narrow, wide = transition_sweep(0.0, [narrow_kp, wide_kp], [0], t, n_rep=3, seed=SeedSpec(23))
    assert (narrow.params["w_cp"], wide.params["w_cp"]) == (0.5, 9.0)
    # narrow correlation (w_cp < n_rep): shared-block phases, global limit
    ge = np.abs(np.cos(4 * t))
    dev_ge = np.max(np.abs(np.abs(narrow.values.real) - ge))
    assert dev_ge < 0.25
    # wide correlation (w_cp = 3 n_rep): the fourth-moment revivals at
    # t = pi/8 + k pi/4 are suppressed toward the local limit
    probe = np.argmin(np.abs(t - np.pi / 4))
    assert abs(wide.values.real[probe]) < abs(narrow.values.real[probe])


def test_sweep_is_kernel_major_on_one_field():
    # Every (kernel, shift) series equals kernel_coherence on the one field
    # the sweep builds, in kernel-major order.  An integer of any type is the
    # shift it names, recorded as an int.
    kps = [KernelParams(1.0, 20.0, 2, GEO), KernelParams(4.0, 20.0, 4, GEO)]
    sweep = transition_sweep(0.5, kps, [np.int64(2), np.uint8(0)], TIMES, seed=SeedSpec(24))
    fld = build_phase_field(0.5, TIMES, 3, GEO, SeedSpec(24))
    expected = [kernel_coherence(kp, fld, fld, d) for kp in kps for d in (2, 0)]
    assert [(s.params["w_cp"], s.params["delta"], type(s.params["delta"])) for s in sweep] == [
        (1.0, 2, int), (1.0, 0, int), (4.0, 2, int), (4.0, 0, int)]
    for got, want in zip(sweep, expected):
        assert np.array_equal(got.values, want.values)
    # kernels on another mask geometry cannot read this field
    with pytest.raises(ValueError, match="geometry"):
        transition_sweep(0.5, [kps[0], KernelParams(1.0, 20.0, 2, MaskGeometry(j0=159.0))],
                         [0], TIMES)


def test_sweep_forms_each_kernels_factors_once(monkeypatch):
    # One kernel_coherence call per (kernel, shift), but the factors and their
    # diagonal pair sums once per kernel; each shift adds only the pair sums
    # of its columns off the mask (none at delta = 0).
    calls = {"kernel_factors": 0, "pair_sums": 0, "kernel_coherence": 0}
    for name in calls:
        def counted(*args, _f=getattr(slm, name), _name=name, **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(slm, name, counted)
    kps = [KernelParams(1.0, 20.0, 2, GEO), KernelParams(4.0, 20.0, 4, GEO)]
    transition_sweep(0.5, kps, [3, 2, 0], TIMES, seed=SeedSpec(24))
    assert calls == {"kernel_factors": 2, "pair_sums": 2 + 6, "kernel_coherence": 6}


def test_kernel_forms_its_factors_once(monkeypatch):
    # A KernelParams forms (g1, g2, c, s) on first use and hands the same
    # read-only arrays to every later read; a replace() copy forms its own.
    calls = []
    factors = slm.kernel_factors
    monkeypatch.setattr(slm, "kernel_factors", lambda kp: calls.append(kp) or factors(kp))
    kp = KernelParams(3.0, 20.0, 4, GEO)
    first = kp.factors
    assert kp.factors is first and calls == [kp]
    g1, g2, c = factors(kp)
    for have, want in zip(first, (g1, g2, c, slm.pair_sums(g1, g2))):
        assert np.array_equal(have, want) and not have.flags.writeable
    wider = replace(kp, w_cp=5.0)
    assert wider.factors is not first and calls == [kp, wider]
    assert np.array_equal(wider.factors[0], first[0]) and not np.array_equal(wider.factors[2], first[2])


@pytest.mark.parametrize("kp", [KernelParams(3.1, 20.0, 2, GEO), KernelParams(8.0, 200.0, 4, GEO),
                                KernelParams(3.0, 40.0, 2, MaskGeometry(j0=40.5, k0=600.0))])
def test_kernel_sum_and_calibration_share_one_total(kp, monkeypatch):
    # The kernel sum, the dense kernel and the calibration take a kernel's
    # total from the one slm helper pair, so they read it bit for bit alike.
    band, totals = slm.kernel_band, []

    def recorded(c, s, *args):
        out = band(c, s, *args)
        totals.append(np.atleast_1d(out[0])[0])
        return out

    monkeypatch.setattr(slm, "kernel_band", recorded)
    monkeypatch.setattr("ltgsim.measurement.kernel_band", recorded)
    fld = build_phase_field(0.5, TIMES, 3, kp.geometry, SeedSpec(37))
    kernel_coherence(kp, fld, fld, 3)
    build_kernel(kp)
    _pattern_coherence(kp, [kp.w_cp], 5, np.arange(-10, 10))
    assert len(totals) == 3 and totals[0] > 0.0
    assert totals[1:] == [totals[0]] * 2, totals


def test_model_paths_never_form_the_dense_kernel(monkeypatch):
    # The sweeps and the calibration read the kernel's factors only: with
    # the dense kernel (N x N weights) unavailable, they still run, at
    # negative shifts and at a shift that moves ~9 % of a wide kernel off
    # the mask.
    def refuse(*args, **kwargs):
        raise AssertionError("a model path formed the dense kernel")

    monkeypatch.setattr(slm, "build_kernel", refuse)
    monkeypatch.setattr(slm, "CorrelationKernel", refuse)
    kps = [KernelParams(3.0, 20.0, 2, GEO), KernelParams(8.95, 20.0, 4, GEO),
           KernelParams(3.0, 200.0, 2, GEO)]
    sweep = transition_sweep(0.5, kps, [-5, 0, 3, 150], TIMES, seed=SeedSpec(36))
    assert len(sweep) == 12
    assert sweep[-1].params["lost_mass"] > 0.05
    calibrate_wcp(KernelParams(3.1, 20.0, 2, GEO), shot_noise=False)
