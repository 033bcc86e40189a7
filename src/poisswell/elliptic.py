"""
The two elliptic solvers: the plain periodic Poisson problem with a
neutralizing background, and the density-screened vector problem
``(-Delta + rho) A = rhs`` solved by preconditioned conjugate gradients
(Hestenes & Stiefel 1952; Saad, *Iterative Methods for Sparse Linear
Systems*, ch. 9) on half spectra of the grid's batched real transforms.
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
    given).  ``rhs`` is transformed once and not held after that; the solve
    accumulates ``A_hat += alpha p_hat``, tests residuals as Parseval sums,
    and inverts a search direction only to multiply it by ``rho``.  Its
    buffers, allocated once per solve, are one real work buffer, which takes
    each inverted search direction and at the end the returned A, and one
    block of four half spectra: the search direction ``p``, ``A_hat``, the
    residual ``r`` and the preconditioned ``z``.  Whenever ``z`` is spent
    it takes the operator applied to ``p`` and the complex passes of each
    inverse transform (:meth:`~poisswell.grid.Grid.irfft`); ``rho`` times
    an iterate is formed in the spent ``p``.  The buffers are updated in
    place as the out-of-place forms would round.  ``guess`` is read in
    place and never returned: a guess that already meets the test is copied
    once the buffers are freed.  ``rhs``, ``rho`` and ``guess`` are not
    written to.

    A solve returns only once the true residual, not the recurrence one, is
    below ``tol`` relative to ``rhs``: when the recurrence passes, A is
    inverted from ``A_hat``, the true residual ``rhs_hat - |k|^2 A_hat -
    rfft(rho A)`` is formed, and the iteration restarts from it if it does
    not pass.  The test is made against ``tol / 2``, because the residual
    itself is only known to about 1e-12 relative at N = 256 (two FFT
    evaluations of the same A differ by that much), and the returned A must
    meet ``tol`` under any of them.  A guess that already meets the test
    costs the forward transforms of ``rhs``, ``guess`` and ``rho * guess``.
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

    # |residual| <= tol |rhs| / 2 as a Parseval sum (l2_norm is sqrt(vdot * dV))
    goal_sq = (0.5 * tol * rhs_norm) ** 2 / grid.cell_volume
    jh, shape = grid.rfft(rhs), rhs.shape
    del rhs  # the source is not held through the iterations
    x = None if guess is None else np.asarray(guess, dtype=float)
    A = _conjugate_gradients(grid, jh, rho, k2(grid, half=True) + rho_mean, goal_sq,
                             x, tol, max_iters)
    if A is None:
        return np.zeros(shape)
    # a guess that passes is copied once the iterations' buffers are freed
    return np.array(A) if A is guess else A


def _conjugate_gradients(grid: Grid, jh, rho, denom, goal_sq, x, tol, max_iters):
    """
    The iterations of :func:`solve_screened_vector` on the spectrum ``jh``
    of its rhs, from the iterate ``x`` (zero when None), preconditioned by
    ``1 / denom``: the first iterate whose true residual meets ``goal_sq``
    as a Parseval sum.  That is ``x`` itself when it already does, and the
    solve's real work buffer otherwise.
    """
    k2h = k2(grid, half=True)
    work = np.empty(jh.shape[:-1] + grid.shape[-1:])  # an inverted search direction, and A
    # one block; rh and zh are adjacent, so one pass takes <r, r> and <r, z>
    block = np.empty((4,) + jh.shape, complex)
    ph, Ah, rh, zh = block
    # rho x is formed in the search direction's buffer, which is spent by then
    rho_x = ph.reshape(-1).view(float)[: work.size].reshape(work.shape)
    if x is None:
        Ah[...], rh[...] = 0.0, jh
    else:
        grid.rfft(x, out=Ah)
    iters = 0
    while True:
        if x is not None:  # the true residual jh - |k|^2 Ah - rfft(rho x)
            np.subtract(jh, np.multiply(k2h, Ah, out=rh), out=rh)
            rh -= grid.rfft(np.multiply(rho, x, out=rho_x), out=zh)
        np.divide(rh, denom, out=zh)
        rr, rz = half_spectrum_vdot(grid, rh, block[2:])
        # a NaN residual never passes the test and ends in NonConvergence
        if rr <= goal_sq:
            return x
        np.copyto(ph, zh)  # restart from the steepest-descent direction
        while True:
            if iters == max_iters:
                raise NonConvergence(
                    f"screened vector solve: residual above {tol:g} "
                    f"after {max_iters} iterations"
                )
            iters += 1
            grid.irfft(ph, out=work, work=zh)  # z is spent
            work *= rho
            # z takes q = rfft(rho p) + |k|^2 p, whose products are made a
            # component at a time (a third of a spectrum), then alpha p
            qh = grid.rfft(work, out=zh)
            for q_i, p_i in zip(qh, ph):
                q_i += k2h * p_i
            alpha = rz / half_spectrum_vdot(grid, ph, qh)
            qh *= alpha
            rh -= qh
            Ah += np.multiply(alpha, ph, out=zh)
            np.divide(rh, denom, out=zh)
            (rr, rz), rz_old = half_spectrum_vdot(grid, rh, block[2:]), rz
            if rr <= goal_sq:
                break
            ph *= rz / rz_old  # ph = zh + (rz / rz_old) ph
            ph += zh
        x = grid.irfft(Ah, out=work, work=zh)
