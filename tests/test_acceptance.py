"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines.

Criteria 5 and 6 assert targets the pinned physics model provably cannot
reach; they are implemented faithfully and left red, and their failure
messages carry the measured values and the quantitative cause: with the
w_cp = 3 kernel at delta = 0, 60.5% of the pair mass shares a phase block
and the other 39.5% sees independent blocks (none sees a mirror twin), so
the ensemble expects 0.605 cos 4t + 0.395 cos^2 2t = 0.802 cos 4t + 0.198
at gamma = 0, a 0.395 deviation from |cos 4t| where cos 4t = -1; and
calibrating theta_0 to the 20-pixel beam width fixes the product of beam
width and spectral-walk width, pinning w_cp(15 nm) near 1.9 px.
"""
import subprocess
import sys
import time

import numpy as np
import pytest
from oracles import build_state, concurrence, field_phases, projections

from ltgsim.analytic import exponential_moment, global_coherence, local_coherence
from ltgsim.cli import data_section
from ltgsim.measurement import calibrate_wcp, detection_probabilities
from ltgsim.optics import (
    PdcSetup,
    estimate_wp,
    joint_profile,
    pump_floor_px,
    wcp_curve,
)
from ltgsim.rtn import RtnParams, SeedSpec, mc_exponential_moment
from ltgsim.slm import (
    KernelParams,
    MaskGeometry,
    build_kernel,
    build_phase_field,
    kernel_coherence,
)

GRID = np.linspace(0.0, 2.0 * np.pi, 400)
GEO = MaskGeometry()


def _report(num: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_analytic_global_limit():
    start = time.monotonic()
    series = global_coherence(0.0, GRID)
    dev = float(np.max(np.abs(np.abs(series.values) - np.abs(np.cos(4 * GRID)))))
    elapsed = time.monotonic() - start
    ok = dev < 1e-12 and elapsed < 1.0
    assert _report(1, ok, f"|Gamma_GE(0,t)| vs |cos 4t|: max dev {dev:.2e}, {elapsed:.3f}s")


def test_criterion_2_analytic_local_limit():
    series = local_coherence(0.0, GRID)
    dev = float(np.max(np.abs(series.values.real - np.cos(2 * GRID) ** 2)))
    ok = dev < 1e-12
    assert _report(2, ok, f"Gamma_LE(0,t) vs cos^2(2t): max dev {dev:.2e}")


def test_criterion_3_mc_vs_analytic():
    # Pre-registered master seed 1: statistical criterion checked on a
    # fixed draw (worst |z| over the 160 grid points is ~2.9 here; about
    # two thirds of seeds stay under 3).
    start = time.monotonic()
    times = np.linspace(0.0, 2.0 * np.pi, 20)
    worst_z = 0.0
    worst_im = 0.0
    stream = 0
    for gamma in (0.12, 1.0, 2.0, 4.0):
        for order in (2, 4):
            series = mc_exponential_moment(
                RtnParams(gamma, float(times.max())), order, times,
                100_000, SeedSpec(1, stream), antithetic=True,
            )
            stream += 1
            exact = exponential_moment(gamma, order, times)
            resid = np.abs(series.values.real - exact)
            z = resid / np.where(series.stderr > 0, series.stderr, np.inf)
            exact_pts = resid[series.stderr == 0]
            worst_z = max(worst_z, float(z.max()))
            if exact_pts.size:
                worst_z = max(worst_z, 3.0 * float(exact_pts.max() > 1e-12))
            worst_im = max(worst_im, float(np.abs(series.values.imag).max()))
    elapsed = time.monotonic() - start
    ok = worst_z < 3.0 and worst_im <= 1e-12 and elapsed < 30.0
    assert _report(
        3, ok,
        f"MC(1e5) vs closed form, 8 (gamma, m) combos: worst z {worst_z:.2f}, "
        f"antithetic |Im| {worst_im:.1e}, {elapsed:.1f}s",
    )


def test_criterion_4_kernel_endpoint_equivalence():
    times = np.linspace(0.0, 2.0 * np.pi, 60)
    kernel = build_kernel(KernelParams(0.3, 20.0, 4, GEO))
    # shared field, delta = 0: fourth moment on identical trajectories
    fld = build_phase_field(0.12, times, 3, GEO, SeedSpec(12))
    lhs = kernel_coherence(kernel, fld, fld, 0).values
    phi = field_phases(fld)
    diag = np.diag(kernel.weights)
    rhs = (diag[:, None] * np.exp(4j * phi)).sum(axis=0) / diag.sum()
    dev_ge = float(np.max(np.abs(lhs - rhs)))
    # independent fields, delta = n_rep: product of per-half phasors
    f1 = build_phase_field(0.12, times, 3, GEO, SeedSpec(13, 0))
    f2 = build_phase_field(0.12, times, 3, GEO, SeedSpec(13, 1000))
    lhs2 = kernel_coherence(kernel, f1, f2, 3).values
    marg = kernel.weights.sum(axis=1)
    shifted = np.arange(320) + 3
    ok_idx = shifted < 320
    prod = np.exp(2j * field_phases(f1)[ok_idx]) * np.exp(2j * field_phases(f2)[shifted[ok_idx]])
    rhs2 = (marg[ok_idx, None] * prod).sum(axis=0) / marg[ok_idx].sum()
    dev_le = float(np.max(np.abs(lhs2 - rhs2)))
    ok = dev_ge < 1e-10 and dev_le < 1e-10
    assert _report(4, ok, f"endpoint equivalences: GE dev {dev_ge:.1e}, LE dev {dev_le:.1e}")


def test_criterion_5_transition_reproduction():
    # fig3 presets' kernel (w_cp=3, n=2, w_p=20), gamma = 0, 3-pixel
    # blocks, balanced shared field.
    kernel = build_kernel(KernelParams(3.0, 20.0, 2, GEO))
    fld = build_phase_field(0.0, GRID, 3, GEO, SeedSpec(12345))
    g0 = kernel_coherence(kernel, fld, fld, 0)
    g3 = kernel_coherence(kernel, fld, fld, 3)
    dev0 = float(np.max(np.abs(np.abs(g0.values.real) - np.abs(np.cos(4 * GRID)))))
    dev3 = float(np.max(np.abs(np.abs(g3.values.real) - np.cos(2 * GRID) ** 2)))
    # second revival of the delta=3 curve sits near t = pi
    window = (GRID > np.pi - 0.3) & (GRID < np.pi + 0.3)
    peak = float(np.abs(g3.values.real[window]).max())
    ok = dev0 < 0.15 and dev3 < 0.15 and peak < 1.0
    assert _report(
        5, ok,
        f"delta=0 dev {dev0:.3f} (<0.15), delta=3 dev {dev3:.3f} (<0.15), "
        f"2nd revival peak {peak:.6f} (<1); at w_cp=3 and delta=0 the pair mass "
        "is 0.605 same-block, 0 mirror and 0.395 independent, so the expected "
        "gamma=0 curve is 0.802 cos4t + 0.198",
    )


def test_criterion_6_optics_widths():
    start = time.monotonic()
    setup = PdcSetup()  # calibrated theta_0, 15 nm
    w_p = estimate_wp(joint_profile(setup))
    table = wcp_curve(setup, [1.0, 5.0, 10.0, 15.0, 25.0, 40.0])
    w_cp_15 = float(table.w_cp[table.widths_nm.tolist().index(15.0)])
    floor = pump_floor_px(setup)
    monotone = bool(np.all(np.diff(table.w_cp) >= 0.0))
    floored = bool(np.all(table.w_cp >= floor - 1e-12))
    elapsed = time.monotonic() - start
    ok = (
        abs(w_p - 20.0) < 3.0
        and abs(w_cp_15 - 3.0) < 1.0
        and monotone
        and floored
        and abs(floor - 0.86) < 0.01
        and elapsed < 120.0
    )
    assert _report(
        6, ok,
        f"w_p {w_p:.2f} (20+-3), w_cp(15nm) {w_cp_15:.2f} (3+-1), monotone "
        f"{monotone}, floor {floor:.3f} px, {elapsed:.0f}s; calibrating "
        "theta_0 to w_p=20 fixes w_p*x_spectral ~= 17 px^2, pinning "
        "w_cp(15nm) near 1.9",
    )


def test_criterion_7_calibration_round_trip():
    res = calibrate_wcp(
        KernelParams(3.1, 20.0, 2, GEO), p=0.927, n_r=5,
        n0=250.0, acquisition_s=8.0, repeats=4,
        shot_noise=True, seed=SeedSpec(12345),
    )
    vis_ok = abs(res.vis_of_v - 0.58) < 0.06
    w_ok = abs(res.w_cp_estimate - 3.1) < 0.7
    ok = vis_ok and w_ok
    assert _report(
        7, ok,
        f"Vis(V(h)) {res.vis_of_v:.4f} (0.58+-0.06), recovered w_cp "
        f"{res.w_cp_estimate:.2f}+-{res.w_cp_uncertainty:.2f} (3.1+-0.7)",
    )


def test_criterion_8_state_physics_properties():
    rng = np.random.default_rng(8)
    worst = {"herm": 0.0, "trace": 0.0, "eig": 0.0, "conc": 0.0, "det": 0.0}
    for _ in range(1000):
        p = rng.random()
        g = rng.random() * np.exp(2j * np.pi * rng.random())
        state = build_state(p, g)
        rho = state.rho
        worst["herm"] = max(worst["herm"], float(np.max(np.abs(rho - rho.conj().T))))
        worst["trace"] = max(worst["trace"], abs(float(np.trace(rho).real) - 1.0))
        worst["eig"] = max(worst["eig"], -float(np.linalg.eigvalsh(rho).min()))
        worst["conc"] = max(worst["conc"], abs(concurrence(state) - p * abs(g)))
        # the state's projections against the closed form the package computes
        p_pp, p_pm = projections(state)
        want_pp, want_pm = detection_probabilities(p, g.real)
        worst["det"] = max(worst["det"], abs(p_pp - want_pp), abs(p_pm - want_pm))
    ok = (
        worst["eig"] < 1e-10
        and worst["conc"] < 1e-10
        and worst["det"] < 1e-12
        and worst["trace"] < 1e-12
    )
    assert _report(
        8, ok,
        "1000 random states: min eig > -{eig:.0e}, |C - p|Gamma|| < {conc:.0e}, "
        "projection vs closed form < {det:.0e}".format(**worst),
    )


def test_criterion_9_determinism(tmp_path, child_env):
    sections = []
    for run, threads in (("a", "1"), ("b", "4")):
        out = tmp_path / run
        env = child_env(OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                        MKL_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "ltgsim", "--preset", "fig3-left",
             "--out", str(out), "--seed", "12345"],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, f"ltgsim exited {proc.returncode}:\n{proc.stderr}"
        sections.append(data_section((out / "transition_delta_3.csv").read_text()))
    ok = sections[0] == sections[1] and len(sections[0].splitlines()) == 401
    assert _report(
        9, ok,
        "same preset, same seed, 1 vs 4 threads: data sections byte-identical",
    )
