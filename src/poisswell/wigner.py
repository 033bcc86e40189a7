"""
Wigner transforms of spinor snapshots, their moments, and the monokinetic
concentration defect.

The transform is realized on the torus as a lattice sum over the doubled
grid (all half-shifts, evaluated by spectral interpolation), with the
``exp(-i xi . y / eps)`` sign convention and a normalization chosen so the
``xi``-marginal reproduces the charge density exactly:

    f(x0, xi_j) = (2 pi eps)^-d  dy^d  sum_m  e^{-i xi_j . y_m / eps}
                  sum_s psi_s(x0 + y_m/2) conj(psi_s(x0 - y_m/2))

with ``xi_j = eps pi j / L`` per axis.  Full 2d-dimensional Wigner arrays
are never materialized; only slices at configured base points.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .errors import WignerNotReal
from .grid import Grid, k3
from .operators import deriv, l2_norm

CONVENTION = "exp(-i xi.y/eps), marginal-normalized"


@dataclass
class WignerSlice:
    """Phase-space slices f(x0, xi) at a set of base grid points."""

    base_indices: List[Tuple[int, ...]]
    xi: Tuple[np.ndarray, ...]
    values: np.ndarray  # (n_points, *(2 N_i)), real
    epsilon: float
    convention: str = CONVENTION

    @property
    def bin_widths(self):
        return tuple(float(x[1] - x[0]) for x in self.xi)

    def marginal(self, point):
        """xi-quadrature of the slice at one base point: should equal rho."""
        dxi = float(np.prod(self.bin_widths))
        return float(self.values[point].sum() * dxi)

    def first_moment(self, point, axis):
        dxi = float(np.prod(self.bin_widths))
        shape = [1] * len(self.xi)
        shape[axis] = len(self.xi[axis])
        xi_ax = self.xi[axis].reshape(shape)
        return float((self.values[point] * xi_ax).sum() * dxi)


def _doubled_lattice(grid: Grid, psi):
    """psi evaluated on the half-step lattice (2 N_i points per axis)."""
    psi = np.asarray(psi)
    ncomp = psi.shape[0]
    doubled = np.zeros((ncomp,) + tuple(2 * n for n in grid.shape), dtype=complex)
    ks = k3(grid)
    psi_hat = grid.fft(psi)
    for combo in range(2 ** grid.dim):
        shifts = [(combo >> i) & 1 for i in range(grid.dim)]
        phase = np.zeros(grid.shape, dtype=complex)
        for i in range(grid.dim):
            if shifts[i]:
                phase = phase + 1j * ks[i] * (0.5 * grid.spacings[i])
        shifted = grid.ifft(psi_hat * np.exp(phase))
        sel = tuple(slice(s, None, 2) for s in shifts)
        doubled[(slice(None),) + sel] = shifted
    return doubled


def wigner_slice(grid: Grid, psi, epsilon, base_indices: Sequence) -> WignerSlice:
    """
    Spin-traced Wigner slices at the given base grid points (index tuples).

    The xi grid per axis is ``eps * pi * j / L`` for j in [-N, N); bins are
    returned in ascending order.  Raises :class:`WignerNotReal` when a
    slice's imaginary part exceeds 1e-8 of its real part.
    """
    if epsilon <= 0:
        raise ValueError("the Wigner transform needs eps > 0")
    base = [tuple(np.atleast_1d(b)) for b in base_indices]
    doubled = _doubled_lattice(grid, psi)
    two_n = tuple(2 * n for n in grid.shape)
    xi = tuple(
        np.fft.fftshift(np.fft.fftfreq(2 * n) * 2 * n) * (epsilon * np.pi / L)
        for n, L in zip(grid.shape, grid.lengths)
    )
    prefactor = np.prod(
        [dx / (2.0 * np.pi * epsilon) for dx in grid.spacings]
    )
    values = np.empty((len(base),) + two_n)
    offsets = [np.arange(2 * n) for n in grid.shape]
    for p, idx in enumerate(base):
        plus = [(2 * idx[i] + offsets[i]) % (2 * grid.shape[i]) for i in range(grid.dim)]
        minus = [(2 * idx[i] - offsets[i]) % (2 * grid.shape[i]) for i in range(grid.dim)]
        corr = np.zeros(two_n, dtype=complex)
        for s in range(doubled.shape[0]):
            corr += doubled[s][np.ix_(*plus)] * np.conj(doubled[s][np.ix_(*minus)])
        fhat = np.fft.fftn(corr) * prefactor
        imag_max = float(np.max(np.abs(fhat.imag)))
        scale = max(float(np.max(np.abs(fhat.real))), 1e-300)
        if imag_max > 1e-8 * scale:
            raise WignerNotReal(
                f"Wigner slice at {idx} has imaginary part {imag_max:.3e} "
                f"against real scale {scale:.3e}; check band limits"
            )
        values[p] = np.fft.fftshift(fhat.real)
    return WignerSlice(base_indices=base, xi=xi, values=values, epsilon=epsilon)


def monokinetic_defect(grid: Grid, psi, u, epsilon):
    """
    The second-moment concentration defect ||(u - p_op) psi||_2^2 with
    p_op = -i eps grad, evaluated spectrally componentwise; equals
    eps^2 ||grad a||^2 for an exact WKB state with u = grad S.
    """
    psi = np.asarray(psi)
    total = 0.0
    for i in range(3):
        dpsi = deriv(grid, psi, i)
        for s in range(psi.shape[0]):
            total += l2_norm(grid, u[i] * psi[s] + 1j * epsilon * dpsi[s]) ** 2
    return float(total)


def concentration_fraction(slc: WignerSlice, point, target_xi, window_bins=3):
    """
    Fraction of the slice's absolute xi-mass within ``window_bins`` bins of
    the target momentum (per axis simultaneously).
    """
    mask = np.ones(slc.values[point].shape, dtype=bool)
    for ax in range(len(slc.xi)):
        dxi = slc.xi[ax][1] - slc.xi[ax][0]
        shape = [1] * len(slc.xi)
        shape[ax] = len(slc.xi[ax])
        dist = np.abs(slc.xi[ax].reshape(shape) - target_xi[ax])
        mask &= dist <= window_bins * dxi + 1e-12
    total = float(np.abs(slc.values[point]).sum())
    if total == 0.0:
        return 0.0
    return float(np.abs(slc.values[point][mask]).sum() / total)


def export_slice_csv(slc: WignerSlice, path):
    """CSV rows (x-index, xi..., f) with a JSON metadata header line."""
    meta = {
        "epsilon": slc.epsilon,
        "convention": slc.convention,
        "normalization": "sum_xi f dxi = rho(x0)",
        "bin_widths": list(slc.bin_widths),
    }
    dim = len(slc.xi)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        cols = ["x_index"] + [f"xi{i + 1}" for i in range(dim)] + ["f"]
        fh.write(",".join(cols) + "\n")
        grids = np.meshgrid(*slc.xi, indexing="ij")  # the same xi grid for every base point
        for p, idx in enumerate(slc.base_indices):
            flat = slc.values[p]
            for pos in np.ndindex(flat.shape):
                row = ["/".join(str(i) for i in idx)]
                row += [f"{grids[ax][pos]:.10g}" for ax in range(dim)]
                row.append(f"{flat[pos]:.12g}")
                fh.write(",".join(row) + "\n")
