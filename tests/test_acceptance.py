"""
The acceptance gate: every headline requirement as a dedicated test at its
stated tolerance.  Run with ``pytest tests/test_acceptance.py -v -s`` to
get one pass/fail line per criterion.
"""

import time

import numpy as np
import pytest

from poisswell.diagnostics import (
    MonitorStatus,
    MonitorThresholds,
    blowup_monitor,
    continuity_residual,
    envelope_check,
)
from poisswell.elliptic import solve_poisson_neutral, solve_screened_vector
from poisswell.grid import Grid
from poisswell.harness import (
    density_current_limit,
    epsilon_ladder,
    monokinetic_study,
)
from poisswell.hydro import HydroSolver, residual_window
from poisswell.initial_data import compressive, gaussian_bump, uniform
from poisswell.operators import l2_norm, laplacian
from poisswell.pauli import stern_gerlach_reality
from poisswell.pauli_solver import PauliSolver
from poisswell.states import (
    HydroState,
    SimParams,
    charge_density,
    pauli_current,
    reconstruct_spinor,
    wkb_current,
)

from conftest import random_band_limited, sampled_run


def ok(criterion, detail):
    print(f"ACCEPTANCE {criterion} PASS: {detail}")


# -- shared expensive runs -----------------------------------------------------


@pytest.fixture(scope="module")
def ladder():
    """The reference ladder: d=1, N=256, s=4, shared data, T=0.3."""
    grid = Grid((256,))
    init = gaussian_bump(grid, epsilon=0.1)
    params = SimParams(epsilon=0.1, T=0.3, s=4.0)
    start = time.perf_counter()
    report, runs = epsilon_ladder(grid, init, params, [0.4, 0.2, 0.1, 0.05])
    elapsed = time.perf_counter() - start
    return grid, report, runs, elapsed


def test_c01_elliptic_oracle(rng):
    start = time.perf_counter()
    grid = Grid((64,))
    xs = grid.coordinates()[0].ravel()
    modes = [1, 2, 3, 4, 5]
    v_exact = sum(np.cos(m * xs) / m for m in modes)
    rho = -laplacian(grid, v_exact)
    v = solve_poisson_neutral(grid, rho)
    poisson_err = l2_norm(grid, v - v_exact) / l2_norm(grid, v_exact)
    assert poisson_err <= 1e-12

    g32 = Grid((32,))
    x32 = g32.coordinates()[0].ravel()
    dens = 1.0 + 0.5 * np.cos(x32)
    rhs = np.zeros((3,) + g32.shape)
    rhs[0] = np.cos(x32)
    rhs[1] = np.sin(2 * x32)
    A = solve_screened_vector(g32, rhs, dens)
    M = np.zeros((32, 32))
    for j in range(32):
        e = np.zeros(32)
        e[j] = 1.0
        M[:, j] = -laplacian(g32, e) + dens * e
    worst = 0.0
    for c in range(2):
        exact = np.linalg.solve(M, rhs[c])
        worst = max(worst, l2_norm(g32, A[c] - exact) / l2_norm(g32, exact))
    assert worst <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    ok(1, f"poisson err {poisson_err:.2e}, screened-vs-dense {worst:.2e}, {elapsed:.2f}s")


def test_c02_charge_conservation():
    grid = Grid((128,))
    init = gaussian_bump(grid, epsilon=0.1)
    hydro = HydroSolver(grid, SimParams(epsilon=0.1, T=0.5, sample_every=8)).run(init)
    assert hydro.status == "completed"
    assert hydro.charge_drift <= 1e-6
    psi0 = reconstruct_spinor(grid, init)
    spin = PauliSolver(grid, SimParams(epsilon=0.1, T=0.5, sample_every=8)).run(psi0)
    assert spin.status == "completed"
    assert spin.charge_drift <= 1e-6
    ok(2, f"hydro drift {hydro.charge_drift:.2e}, spinor drift {spin.charge_drift:.2e}")


def test_c03_continuity_order():
    grid = Grid((64,))
    init = gaussian_bump(grid, epsilon=0.1, amplitude=0.3)

    def hydro_residual(dt):
        params = SimParams(epsilon=0.1, dt=dt, T=0.12, sample_every=1)
        run = HydroSolver(grid, params).run(init, keep=residual_window(grid))
        return run.records[len(run.records) // 2].continuity_residual

    r_h = [hydro_residual(dt) for dt in (8e-3, 4e-3)]
    ratio_h = r_h[0] / r_h[1]
    assert ratio_h >= 4.0

    psi0 = reconstruct_spinor(grid, init)

    def spinor_residual(dt):
        params = SimParams(epsilon=0.1, dt=dt, T=0.12, sample_every=1)
        run, samples = sampled_run(PauliSolver(grid, params), psi0)
        mid = len(run.times) // 2
        window = []
        for i in (mid - 1, mid, mid + 1):
            psi = samples.states[i]
            window.append(
                (
                    run.times[i],
                    charge_density(psi),
                    pauli_current(grid, psi, samples.potentials[i].A, 0.1),
                )
            )
        return continuity_residual(grid, window)

    r_s = [spinor_residual(dt) for dt in (8e-3, 4e-3)]
    ratio_s = r_s[0] / r_s[1]
    assert ratio_s >= 4.0
    ok(3, f"dt-halving residual ratios: hydro {ratio_h:.2f}, spinor {ratio_s:.2f}")


def test_c04_stern_gerlach_reality(rng):
    grid = Grid((64,))
    worst = 0.0
    for _ in range(10):
        a = random_band_limited(grid, rng, components=2, complex_=True)
        B = random_band_limited(grid, rng, components=3)
        worst = max(worst, stern_gerlach_reality(a, B))
    assert worst <= 1e-12
    ok(4, f"max |Re(i conj(a)(sigma.B)a)| = {worst:.2e}")


def test_c05_current_identity(rng):
    grid = Grid((128,))
    worst = 0.0
    for eps in (0.5, 0.1):
        for _ in range(3):
            a = 1.0 + random_band_limited(grid, rng, components=2, complex_=True, amplitude=0.3)
            S = random_band_limited(grid, rng, amplitude=0.2)
            A = random_band_limited(grid, rng, components=3, amplitude=0.3)
            st = HydroState(grid, a=a, S=S, epsilon=eps)
            psi = reconstruct_spinor(grid, st)
            J_psi = pauli_current(grid, psi, A, eps)
            J_wkb = wkb_current(grid, a, st.u, A, eps)
            worst = max(worst, l2_norm(grid, J_psi - J_wkb) / l2_norm(grid, J_wkb))
    assert worst <= 1e-10
    ok(5, f"pauli vs wkb current, relative {worst:.2e}")


def test_c06_free_particle_exactness():
    grid = Grid((64,))
    eps, k, T = 0.5, 3, 1.0
    x = grid.coordinates()[0]
    psi0 = np.zeros((2,) + grid.shape, dtype=complex)
    psi0[0] = np.exp(1j * k * x) * np.ones(grid.shape)
    params = SimParams(epsilon=eps, dt=0.05, T=T, coupling=False)
    _, samples = sampled_run(PauliSolver(grid, params), psi0)
    exact = np.exp(1j * (k * x - 0.5 * eps * k**2 * T)) * np.ones(grid.shape)
    err = float(np.max(np.abs(samples.states[-1][0] - exact)))
    assert err <= 1e-12
    ok(6, f"plane-wave error {err:.2e} at T={T}")


def test_c07_energy_conservation_no_magnetic():
    grid = Grid((256,))
    init = gaussian_bump(grid, epsilon=0.25, amplitude=0.3)
    psi0 = reconstruct_spinor(grid, init)
    params = SimParams(epsilon=0.25, dt=5e-4, T=0.5, magnetic=False, sample_every=100)
    run = PauliSolver(grid, params).run(psi0)
    energies = [r.energy for r in run.records]
    drift = max(abs(e - energies[0]) for e in energies) / abs(energies[0])
    assert drift <= 1e-4
    ok(7, f"energy drift {drift:.2e} over T=0.5 at N=256")


def test_c08_semiclassical_limit(ladder):
    grid, report, runs, elapsed = ladder
    assert report.euler_status == "completed"
    xs = report.metric("xs_error")
    assert all(b < a for a, b in zip(xs, xs[1:])), "errors not monotone in eps"
    slope = report.slopes["xs_error"]
    assert slope is not None and slope >= 0.8
    assert elapsed <= 300.0
    ok(8, f"X^{{s-2}} slope {slope:.3f} (theory 1.0), ladder wall time {elapsed:.0f}s")


def test_c09_density_current_limit(ladder):
    grid, report, runs, _ = ladder
    dcl = density_current_limit(report)
    assert dcl["rho_slope"] >= 0.8
    assert dcl["current_slope"] >= 0.8
    assert dcl["halving_ratios"], "no adjacent eps-halving pairs in the ladder"
    assert all(abs(r - 0.5) <= 0.1 for r in dcl["halving_ratios"])
    ok(
        9,
        f"rho slope {dcl['rho_slope']:.2f}, J slope {dcl['current_slope']:.2f}, "
        f"eps-part halving ratios {['%.3f' % r for r in dcl['halving_ratios']]}",
    )


def test_c10_monokinetic_concentration(ladder):
    grid, report, runs, _ = ladder
    base_points = [(48,), (64,), (176,)]
    mono = monokinetic_study(runs, base_points)
    assert all(d is not None for d in mono.defects)
    assert all(r <= 0.3 for r in mono.defect_ratios)
    assert mono.slice_epsilon == 0.05
    assert all(c is not None and c >= 0.9 for c in mono.concentration)
    ok(
        10,
        f"defect ratios {['%.3f' % r for r in mono.defect_ratios]}, "
        f"slice mass {['%.3f' % c for c in mono.concentration]} at eps=0.05",
    )


def test_c11_envelope(ladder):
    grid, report, runs, _ = ladder
    worst = 0.0
    checked = 0
    for run in [runs.euler, *runs.hydro.values()]:
        if run.status != "completed":
            continue
        rep = envelope_check(run.records, runs.params.s)
        assert rep.passed, "envelope inequality failed"
        worst = max(worst, rep.constant)
        checked += 1
    assert checked >= 4
    assert worst <= 1e3
    ok(11, f"envelope holds on {checked} runs, max fitted C = {worst:.3g}")


def test_c12_blowup_monitor():
    grid = Grid((256,))
    params = SimParams(epsilon=0.0, T=2.0, sample_every=2)
    run = HydroSolver(grid, params).run(compressive(grid, beta=3.0))
    assert run.status == "blowup"
    assert run.times[-1] < 2.0
    monitors = [r.monitor for r in run.records]
    last = monitors[-20:]
    assert len(last) == 20
    assert all(b > a for a, b in zip(last, last[1:])), "M(t) not monotone at the end"

    g64 = Grid((64,))
    quiet = HydroSolver(g64, SimParams(epsilon=0.1, T=10.0, dt=0.05)).run(uniform(g64))
    assert quiet.status == "completed"
    th = MonitorThresholds()
    s0 = quiet.records[0].blowup_sum
    assert all(
        blowup_monitor(r, th, s0) is MonitorStatus.OK for r in quiet.records
    )
    ok(
        12,
        f"compressive run triggered at t={run.times[-1]:.3f} with monotone M; "
        f"uniform run quiet over T=10",
    )


def test_c13_determinism(tmp_path):
    from poisswell.cli import main

    cfg_text = """
[run]
kind = ladder

[grid]
points = [64]

[params]
epsilon = 0.1
T = 0.06
s = 4.0

[initial]
family = gaussian-bump
amplitude = 0.3

[ladder]
epsilons = [0.4, 0.2, 0.1]
samples = 3
"""
    cfg = tmp_path / "ladder.cfg"
    cfg.write_text(cfg_text, encoding="utf-8")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["ladder", str(cfg), "--out", str(out)]) == 0
        outs.append((out / "report.json").read_bytes())
    assert outs[0] == outs[1]
    ok(13, f"two runs, bit-identical reports ({len(outs[0])} bytes)")


def test_c14_three_dimensional_smoke():
    start = time.perf_counter()
    grid = Grid((32, 32, 32))
    init = gaussian_bump(grid, epsilon=0.2, amplitude=0.2, width=1.2)
    hydro = HydroSolver(grid, SimParams(epsilon=0.2, T=0.05, sample_every=4)).run(init)
    assert hydro.status == "completed"
    assert hydro.charge_drift <= 1e-5
    psi0 = reconstruct_spinor(grid, init)
    spin = PauliSolver(grid, SimParams(epsilon=0.2, T=0.05, sample_every=4)).run(psi0)
    assert spin.status == "completed"
    assert spin.charge_drift <= 1e-5
    elapsed = time.perf_counter() - start
    assert elapsed <= 600.0
    ok(
        14,
        f"3d runs done in {elapsed:.0f}s, drifts {hydro.charge_drift:.1e} / {spin.charge_drift:.1e}",
    )
