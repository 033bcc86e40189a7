import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poisswell.elliptic import apply_screened, solve_poisson_neutral, solve_screened_vector
from poisswell.errors import NonConvergence
from poisswell.grid import Grid
from poisswell.operators import l2_norm, laplacian

from conftest import random_band_limited


def dense_screened_matrix(grid, rho):
    """Brute-force dense matrix of (-Delta + rho) on one component (d=1)."""
    n = grid.shape[0]
    M = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        col = -laplacian(grid, e) + rho * e
        M[:, j] = col
    return M


def banded_density(grid, rng, rho_max, contrast):
    """Band-limited density spanning exactly [rho_max / contrast, rho_max]."""
    f = random_band_limited(grid, rng, kmax=4)
    shape = (f - f.min()) / (f.max() - f.min())
    return rho_max * (1.0 / contrast + (1.0 - 1.0 / contrast) * shape)


class TestPoissonNeutral:
    def test_cosine_unit_eigenvalue(self):
        g = Grid((64,))
        x = g.coordinates()[0].ravel()
        V = solve_poisson_neutral(g, np.cos(x))
        assert np.max(np.abs(V - np.cos(x))) < 1e-13

    def test_constant_source_maps_to_zero(self):
        g = Grid((32,))
        V = solve_poisson_neutral(g, np.full(g.shape, 2.5))
        assert np.max(np.abs(V)) < 1e-14

    def test_mode_two_eigenvalue(self):
        g = Grid((64,))
        x = g.coordinates()[0].ravel()
        V = solve_poisson_neutral(g, np.cos(2 * x))
        assert np.max(np.abs(V - np.cos(2 * x) / 4.0)) < 1e-13

    def test_manufactured_solutions_few_modes(self, rng):
        # acceptance: sums of <= 5 Fourier modes reproduced to 1e-12 relative
        for shape in [(64,), (32, 32)]:
            g = Grid(shape)
            modes = rng.integers(1, 6, size=5)
            xs = g.coordinates()
            V_exact = np.zeros(g.shape)
            for m in modes:
                V_exact = V_exact + np.cos(m * xs[0]) * np.ones(g.shape) / m
            rho = -laplacian(g, V_exact)
            V = solve_poisson_neutral(g, rho)
            assert l2_norm(g, V - V_exact) <= 1e-12 * l2_norm(g, V_exact)

    def test_residual_identity(self, rng):
        g = Grid((64,))
        rho = random_band_limited(g, rng)
        V = solve_poisson_neutral(g, rho)
        target = rho - rho.mean()
        assert l2_norm(g, -laplacian(g, V) - target) <= 1e-12 * max(
            1.0, l2_norm(g, target)
        )
        assert abs(V.mean()) < 1e-14


class TestScreenedVector:
    def test_zero_rhs(self, rng):
        g = Grid((32,))
        rho = 1.0 + random_band_limited(g, rng, amplitude=0.3)
        A = solve_screened_vector(g, np.zeros((3,) + g.shape), rho)
        assert np.max(np.abs(A)) == 0.0

    def test_uniform_density_eigenvalue(self):
        # (-Delta + 1) cos(x)/2 = cos(x)
        g = Grid((64,))
        x = g.coordinates()[0].ravel()
        rhs = np.zeros((3,) + g.shape)
        rhs[0] = np.cos(x)
        A = solve_screened_vector(g, rhs, np.ones(g.shape))
        assert np.max(np.abs(A[0] - np.cos(x) / 2.0)) < 1e-11
        assert np.max(np.abs(A[1:])) < 1e-13

    def test_matches_dense_solve(self):
        # acceptance: d=1, N=32 dense direct solve oracle at 1e-8
        g = Grid((32,))
        x = g.coordinates()[0].ravel()
        rho = 1.0 + 0.5 * np.cos(x)
        rhs = np.zeros((3,) + g.shape)
        rhs[0] = np.cos(x)
        A = solve_screened_vector(g, rhs, rho)
        M = dense_screened_matrix(g, rho)
        exact = np.linalg.solve(M, rhs[0])
        assert l2_norm(g, A[0] - exact) <= 1e-8 * l2_norm(g, exact)

    def test_random_density_matches_dense(self, rng):
        g = Grid((32,))
        rho = 1.0 + random_band_limited(g, rng, amplitude=0.6)
        rho = np.clip(rho, 0.05, None)
        rhs = np.zeros((3,) + g.shape)
        rhs[0] = random_band_limited(g, rng)
        rhs[2] = random_band_limited(g, rng)
        A = solve_screened_vector(g, rhs, rho)
        M = dense_screened_matrix(g, rho)
        for c in (0, 2):
            exact = np.linalg.solve(M, rhs[c])
            assert l2_norm(g, A[c] - exact) <= 1e-8 * max(1e-30, l2_norm(g, exact))

    def test_matches_dense_solve_2d(self, rng):
        # brute-force equivalence on a small 2d instance (16x16 unknowns)
        g = Grid((16, 16))
        rho = 1.0 + random_band_limited(g, rng, amplitude=0.5, kmax=2)
        rho = np.clip(rho, 0.05, None)
        rhs_comp = random_band_limited(g, rng, kmax=3)
        rhs = np.zeros((3,) + g.shape)
        rhs[1] = rhs_comp
        A = solve_screened_vector(g, rhs, rho)
        n = g.npoints
        M = np.zeros((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            field = e.reshape(g.shape)
            M[:, j] = (-laplacian(g, field) + rho * field).ravel()
        exact = np.linalg.solve(M, rhs_comp.ravel()).reshape(g.shape)
        assert l2_norm(g, A[1] - exact) <= 1e-8 * max(1e-30, l2_norm(g, exact))

    def test_residual_contract(self, rng):
        g = Grid((64,))
        rho = 1.0 + random_band_limited(g, rng, amplitude=0.4)
        rho = np.clip(rho, 0.0, None)
        rhs = random_band_limited(g, rng, components=3)
        A = solve_screened_vector(g, rhs, rho)
        res = l2_norm(g, apply_screened(g, A, rho) - rhs)
        assert res <= 1e-10 * l2_norm(g, rhs)

    def test_vacuum_neutral_rhs(self):
        g = Grid((64,))
        x = g.coordinates()[0].ravel()
        rhs = np.zeros((3,) + g.shape)
        rhs[1] = np.cos(x)
        A = solve_screened_vector(g, rhs, np.zeros(g.shape))
        assert np.max(np.abs(A[1] - np.cos(x))) < 1e-12

    def test_vacuum_non_neutral_rhs_raises(self):
        g = Grid((32,))
        rhs = np.zeros((3,) + g.shape)
        rhs[0] = 1.0
        with pytest.raises(NonConvergence):
            solve_screened_vector(g, rhs, np.zeros(g.shape))

    def test_negative_density_rejected(self):
        g = Grid((32,))
        with pytest.raises(ValueError):
            solve_screened_vector(
                g, np.zeros((3,) + g.shape), np.full(g.shape, -1.0)
            )

    def test_zero_mode_pinned_by_density(self):
        # mean(rho) A0 = mean(rhs) for uniform rho and uniform rhs
        g = Grid((32,))
        rhs = np.zeros((3,) + g.shape)
        rhs[0] = 2.0
        A = solve_screened_vector(g, rhs, np.full(g.shape, 0.5))
        assert np.max(np.abs(A[0] - 4.0)) < 1e-10


class TestScreenedOracle:
    """Conjugate-gradient solve against a dense direct solve, N = 64."""

    @settings(max_examples=30, deadline=None)
    @example(seed=0, rho_max=3e3, contrast=1.2e3)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        rho_max=st.floats(min_value=0.1, max_value=3e3),
        contrast=st.floats(min_value=1.0, max_value=1.2e3),
    )
    def test_cold_and_warm_starts_match_dense(self, seed, rho_max, contrast):
        g = Grid((64,))
        rng = np.random.default_rng(seed)
        rho = banded_density(g, rng, rho_max, contrast)
        rhs = random_band_limited(g, rng, components=3, kmax=8)
        exact = np.linalg.solve(dense_screened_matrix(g, rho), rhs.T).T
        for guess in (None, 10.0 * rng.standard_normal(rhs.shape)):
            A = solve_screened_vector(g, rhs, rho, guess=guess)
            assert l2_norm(g, A - exact) <= 1e-8 * l2_norm(g, exact)

    def test_converged_guess_costs_one_application(self, rng, transform_count):
        # the operator is applied once, in spectral form: a converged guess
        # costs the forward transforms of the source, the guess and
        # rho * guess, and no inverse
        g = Grid((64,))
        rho = banded_density(g, rng, 10.0, 100.0)
        rhs = random_band_limited(g, rng, components=3)
        A = solve_screened_vector(g, rhs, rho)
        guess = A.copy()
        transform_count.clear()
        again = solve_screened_vector(g, rhs, rho, guess=guess)
        assert dict(transform_count) == {"rfft": 3}
        assert np.array_equal(again, A)
        assert np.array_equal(guess, A)  # the guess is not written to

    def test_iteration_cap_raises(self, rng):
        g = Grid((64,))
        rho = banded_density(g, rng, 1e3, 1e3)
        rhs = random_band_limited(g, rng, components=3)
        with pytest.raises(NonConvergence):
            solve_screened_vector(g, rhs, rho, max_iters=3)


def allocating_screened_solve(grid, rhs, rho, tol=1e-11, max_iters=200, guess=None,
                              passes=None):
    """
    The spectral conjugate-gradient recurrence with a new array for every
    update; the non-vacuum branch only.  ``passes``, a list, gets one entry
    per true-residual pass.
    """
    from poisswell.grid import k2
    from poisswell.operators import half_spectrum_vdot

    rho = np.asarray(rho, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    k2h = k2(grid, half=True)
    denom = k2h + float(rho.mean())
    goal_sq = (0.5 * tol * l2_norm(grid, rhs)) ** 2 / grid.cell_volume
    jh = grid.rfft(rhs)
    if guess is None:
        A, Ah, rh = None, np.zeros_like(jh), jh.copy()
    else:
        A = np.array(guess, dtype=float)
        Ah = grid.rfft(A)
        rh = jh - k2h * Ah - grid.rfft(rho * A)
    iters = 0
    while True:
        zh = rh / denom
        rr, rz = half_spectrum_vdot(grid, rh, np.stack([rh, zh]))
        if rr <= goal_sq:
            return A
        if passes is not None:
            passes.append(iters)
        ph = zh
        while True:
            assert iters < max_iters
            iters += 1
            qh = k2h * ph + grid.rfft(rho * grid.irfft(ph))
            alpha = rz / half_spectrum_vdot(grid, ph, qh)
            Ah = Ah + alpha * ph
            rh = rh - alpha * qh
            zh = rh / denom
            (rr, rz), rz_old = half_spectrum_vdot(grid, rh, np.stack([rh, zh])), rz
            if rr <= goal_sq:
                break
            ph = zh + (rz / rz_old) * ph
        A = grid.irfft(Ah)
        rh = jh - k2h * Ah - grid.rfft(rho * A)


class TestInPlaceRecurrence:
    """The solve's buffered recurrence against the allocating one."""

    @pytest.mark.parametrize("shape", [(64,), (24, 20), (12, 10, 8)])
    def test_same_bits_cold_and_warm(self, shape, rng):
        g = Grid(shape)
        rho = banded_density(g, rng, 5.0, 50.0)
        rhs = random_band_limited(g, rng, components=3, kmax=3)
        cold = solve_screened_vector(g, rhs, rho)
        assert np.array_equal(cold, allocating_screened_solve(g, rhs, rho))
        guess = cold + 0.1 * random_band_limited(g, rng, components=3, kmax=2)
        warm = solve_screened_vector(g, rhs, rho, guess=guess)
        assert np.array_equal(warm, allocating_screened_solve(g, rhs, rho, guess=guess))

    def test_restart_same_bits(self):
        # at these tolerances the recurrence residual passes before the
        # true one does, so the solve restarts from the true one
        for shape, tol in [((256,), 3e-15), ((24, 20), 1e-15), ((12, 10, 8), 3e-15)]:
            g = Grid(shape)
            rng = np.random.default_rng(0)
            rho = banded_density(g, rng, 1e3, 1e3)
            rhs = random_band_limited(g, rng, components=3, kmax=3)
            passes = []
            expected = allocating_screened_solve(g, rhs, rho, tol=tol, passes=passes)
            assert len(passes) >= 2
            assert np.array_equal(solve_screened_vector(g, rhs, rho, tol=tol), expected)

    def test_inputs_unmodified(self, rng):
        g = Grid((16, 12))
        rho = banded_density(g, rng, 2.0, 10.0)
        rhs = random_band_limited(g, rng, components=3)
        guess = random_band_limited(g, rng, components=3)
        copies = [rho.copy(), rhs.copy(), guess.copy()]
        for start in (None, guess):
            solve_screened_vector(g, rhs, rho, guess=start)
            for before, after in zip(copies, (rho, rhs, guess)):
                assert np.array_equal(before, after)

    @pytest.mark.parametrize("shape", [(64,), (24, 20), (12, 10, 8)])
    def test_guess_is_read_in_place_and_never_returned(self, shape, rng, transform_count):
        # a read-only guess raises on any write; the solve returns an array
        # of its own, also for a guess that already meets the tolerance
        # (no inverse transform is made then)
        g = Grid(shape)
        rho = banded_density(g, rng, 5.0, 50.0)
        rhs = random_band_limited(g, rng, components=3, kmax=3)
        cold = solve_screened_vector(g, rhs, rho)
        for guess, passes in ((cold + 0.1 * random_band_limited(g, rng, components=3, kmax=2),
                               False), (cold.copy(), True)):
            guess.flags.writeable = False
            before = guess.copy()
            transform_count.clear()
            A = solve_screened_vector(g, rhs, rho, guess=guess)
            assert ("irfft" not in transform_count) == passes
            assert A is not guess and not np.shares_memory(A, guess)
            assert A.flags.owndata and A.flags.writeable
            assert np.array_equal(guess, before)
        assert np.array_equal(A, cold)

    def test_peak_memory_does_not_grow_with_iterations(self, rng, transform_count):
        # the iterations allocate nothing that outlives them: a tight
        # tolerance makes more of them (one inverse transform each, plus one
        # per pass) with the same peak
        g = Grid((64, 64))
        rho = banded_density(g, rng, 1e2, 1e2)
        rhs = random_band_limited(g, rng, components=3, kmax=6)
        peaks, inverses = [], []
        for tol in (1e-3, 1e-12):
            transform_count.clear()
            tracemalloc.start()
            solve_screened_vector(g, rhs, rho, tol=tol)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            inverses.append(transform_count["irfft"])
        assert inverses[1] >= 2 * inverses[0]
        assert peaks[1] <= peaks[0]
