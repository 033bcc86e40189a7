"""
The two elliptic solvers: the plain periodic Poisson problem with a
neutralizing background, and the density-screened vector problem
``(-Delta + rho) A = rhs`` solved by preconditioned conjugate gradients
(Hestenes & Stiefel 1952; Saad, *Iterative Methods for Sparse Linear
Systems*, ch. 9).  Both work on the batched real transforms of the grid;
the conjugate-gradient recurrences run on half spectra, where the
preconditioner is a pointwise division and inner products are Parseval
sums, and ``A`` accumulates the search directions inverted to multiply
them by ``rho``.  The recurrences update buffers each solve allocates once.
"""

from __future__ import annotations

import numpy as np

from .errors import NonConvergence
from .grid import Grid, inverse_laplacian_modes, k2, k2_safe
from .operators import half_spectrum_vdot, l2_norm


def _inverse_laplacian(grid: Grid, f):
    """Zero-mean solution of ``-Delta u = f - mean(f)``, batched over components."""
    uh = grid.rfft(f) / k2_safe(grid, half=True)
    uh[..., ~inverse_laplacian_modes(grid, half=True)] = 0.0
    return grid.irfft(uh)


def solve_poisson_neutral(grid: Grid, rho):
    """
    Zero-mean V with ``-Delta V = rho - mean(rho)``.

    On the torus the mean of the source must vanish (jellium convention);
    the background subtraction happens here, not at the call sites.
    """
    return _inverse_laplacian(grid, rho)


def apply_screened(grid: Grid, A, rho):
    """Apply ``(-Delta + rho)`` componentwise to a 3-vector field."""
    return grid.irfft(k2(grid, half=True) * grid.rfft(A)) + rho * A


def solve_screened_vector(grid: Grid, rhs, rho, tol=1e-11, max_iters=200, guess=None):
    """
    Solve ``(-Delta + rho) A = rhs`` for a 3-vector A, with rho >= 0.

    Conjugate gradients on the symmetric positive definite operator,
    preconditioned with the constant-coefficient inverse
    ``(-Delta + mean(rho))^-1``, starting from ``guess`` (zero when not
    given), with the recurrences in spectral space: one inverse and one
    forward transform per iteration.  The preconditioned residual, the
    search direction, its operator image, ``rho`` times the inverted
    direction, ``A`` and the residual spectrum are updated in place, in
    buffers allocated once per solve; each update rounds as its
    out-of-place form would, so the iterates are the same bits.  ``rhs``,
    ``rho`` and ``guess`` are not written to.

    A solve returns only once the true residual ``rhs - (-Delta + rho) A``,
    not the recurrence one, is below ``tol`` relative to ``rhs``: when the
    recurrence passes, the true residual is recomputed through
    :func:`apply_screened` and the iteration restarts from it if it does
    not.  The test is made against ``tol / 2``, because the residual itself
    is only known to about 1e-12 relative at N = 256 (two FFT evaluations
    of the same A differ by that much), and the returned A must meet
    ``tol`` under any of them.  A guess that already meets the test costs
    one operator application.
    For rho == 0 the zero mode of A is pinned to zero and a non-neutral
    rhs is rejected.

    Raises
    ------
    NonConvergence
        if ``max_iters`` iterations pass before the relative residual drops
        below ``tol / 2`` (signals near-vacuum rho with non-neutral rhs, or an
        extreme density contrast).
    """
    rho = np.asarray(rho, dtype=float)
    if rho.min() < -1e-12 * max(1.0, abs(rho).max()):
        raise ValueError("screened solve requires rho >= 0 pointwise")
    rhs = np.asarray(rhs, dtype=float)
    rhs_norm = l2_norm(grid, rhs)
    if rhs_norm == 0.0:
        return np.zeros_like(rhs)

    rho_mean = float(rho.mean())
    if rho_mean <= 1e-14 * max(1.0, abs(rho).max()):
        # vacuum: plain Poisson per component, A zero mode pinned to 0
        means = [abs(np.mean(rhs[i])) for i in range(3)]
        if max(means) > 1e-10 * max(1.0, abs(rhs).max()):
            raise NonConvergence(
                "vacuum density with non-neutral rhs: no periodic solution"
            )
        return _inverse_laplacian(grid, rhs)

    k2h = k2(grid, half=True)
    denom = k2h + rho_mean
    goal = 0.5 * tol * rhs_norm  # see the docstring
    # the same test on a half spectrum: l2_norm is sqrt(vdot * cell volume)
    goal_sq = goal**2 / grid.cell_volume
    if guess is None:
        A = np.zeros_like(rhs)
        r = rhs
    else:
        A = np.array(guess, dtype=float)
        r = rhs - apply_screened(grid, A, rho)
    # the recurrences run in these buffers, updated in place; each update
    # computes the same expression as its out-of-place form, bit for bit.
    # z is spent once the direction is updated, so q takes its buffer.
    zh = qh = np.empty(rhs.shape[:1] + k2h.shape, dtype=complex)
    ph = np.empty_like(zh)
    rho_p = np.empty_like(rhs)
    iters, rz = 0, None
    # r is the true residual of A at the top of each pass; a NaN residual
    # never passes the test and ends in NonConvergence
    while not l2_norm(grid, r) <= goal:
        rh = grid.rfft(r)
        restart = True  # from the steepest-descent direction
        while True:
            if iters == max_iters:
                raise NonConvergence(
                    f"screened vector solve: residual above {tol:g} "
                    f"after {max_iters} iterations"
                )
            iters += 1
            np.divide(rh, denom, out=zh)
            rz, rz_old = half_spectrum_vdot(grid, rh, zh), rz
            if restart:
                np.copyto(ph, zh)
                restart = False
            else:  # ph = zh + (rz / rz_old) ph
                ph *= rz / rz_old
                ph += zh
            p = grid.irfft(ph)
            np.multiply(rho, p, out=rho_p)
            np.multiply(k2h, ph, out=qh)
            qh += grid.rfft(rho_p)
            alpha = rz / half_spectrum_vdot(grid, ph, qh)
            p *= alpha
            A += p
            qh *= alpha
            rh -= qh
            if half_spectrum_vdot(grid, rh, rh) <= goal_sq:
                break
        r = rhs - apply_screened(grid, A, rho)
    return A
