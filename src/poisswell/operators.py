"""
Spectral differential operators, norms and projections on a :class:`Grid`.

All operators act on physical-space arrays and return physical-space arrays
unless the name says otherwise.  Multi-component fields (leading axes) are
handled componentwise; vector calculus is always done in the embedded
3-component sense so d < 3 "slab" fields work transparently.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .grid import Grid, dealias_mask, inverse_laplacian_modes, k2, k2_safe, k3


def _transforms(grid: Grid, f):
    """
    ``(forward, inverse, half)`` for a field: the batched real transforms
    and half-spectrum tables for a real field, the complex ones otherwise.
    Every multiplier below is Hermitian, so a real field stays real.
    """
    if np.iscomplexobj(f):
        return grid.fft, grid.ifft, False
    return grid.rfft, grid.irfft, True


def dealias(grid: Grid, f):
    """Apply the 2/3-rule mask to a physical-space field."""
    fwd, inv, half = _transforms(grid, f)
    return inv(fwd(f) * dealias_mask(grid, half))


def deriv(grid: Grid, f, axis: int):
    """Spectral partial derivative along ``axis`` (zero for inactive axes)."""
    if axis >= grid.dim:
        return np.zeros_like(f)
    fwd, inv, half = _transforms(grid, f)
    return inv(1j * k3(grid, half)[axis] * fwd(f))


def gradient(grid: Grid, f):
    """Gradient of a scalar field as a 3-component vector field."""
    fwd, inv, half = _transforms(grid, f)
    ks = k3(grid, half)
    fh = fwd(f)
    out = np.zeros((3,) + grid.shape, dtype=complex if np.iscomplexobj(f) else float)
    out[: grid.dim] = inv(np.stack([1j * ks[i] * fh for i in range(grid.dim)]))
    return out


def divergence(grid: Grid, vec):
    """Divergence of a 3-component vector field (active axes only)."""
    fwd, inv, half = _transforms(grid, vec)
    ks = k3(grid, half)
    vh = fwd(vec[: grid.dim])
    return inv(1j * sum(ks[i] * vh[i] for i in range(grid.dim)))


def curl(grid: Grid, vec):
    """Embedded curl of a 3-component vector field."""
    fwd, inv, half = _transforms(grid, vec)
    k = k3(grid, half)
    v = fwd(vec)
    return inv(1j * np.stack([
        k[1] * v[2] - k[2] * v[1],
        k[2] * v[0] - k[0] * v[2],
        k[0] * v[1] - k[1] * v[0],
    ]))


def laplacian(grid: Grid, f):
    fwd, inv, half = _transforms(grid, f)
    return inv(-k2(grid, half) * fwd(f))


def shift(grid: Grid, f, offsets):
    """
    Evaluate ``f`` on the lattice translated by ``offsets`` (one float per
    active axis) via the spectral interpolant; exact for band-limited fields.
    """
    fwd, inv, half = _transforms(grid, f)
    ks = k3(grid, half)
    phase = sum(1j * ks[i] * offsets[i] for i in range(grid.dim))
    return inv(fwd(f) * np.exp(phase))


def gradient_part(grid: Grid, vec):
    """
    Helmholtz projection onto zero-mean periodic gradients:
    ``u_hat -> k (k . u_hat) / |k|^2`` with the zero mode removed.
    """
    vec = np.asarray(vec)
    fwd, inv, half = _transforms(grid, vec)
    ks = k3(grid, half)
    vh = fwd(vec[: grid.dim])
    kdot = sum(ks[i] * vh[i] for i in range(grid.dim)) / k2_safe(grid, half)
    kdot[~inverse_laplacian_modes(grid, half)] = 0.0
    out = np.zeros_like(vec)
    out[: grid.dim] = inv(np.stack([ks[i] * kdot for i in range(grid.dim)]))
    return out


def advect(grid: Grid, g, f):
    """Directional derivative sum_j g_j d_j f, for f of any component rank."""
    fwd, inv, half = _transforms(grid, f)
    ks = k3(grid, half)
    fh = fwd(f)
    out = np.zeros_like(np.asarray(f))
    for j in range(grid.dim):
        out = out + g[j] * inv(1j * ks[j] * fh)
    return out


def jacobian_transpose_product(grid: Grid, A, u):
    """Vector with components sum_j u_j d_i A_j (transpose of advection)."""
    fwd, inv, half = _transforms(grid, A)
    ks = k3(grid, half)
    Ah = fwd(A)
    out = np.zeros_like(np.asarray(A))
    for i in range(grid.dim):
        out[i] = np.sum(u * inv(1j * ks[i] * Ah), axis=0)
    return out


# -- norms -------------------------------------------------------------------


def l2_norm(grid: Grid, f):
    """L2 norm by grid quadrature; components summed in quadrature."""
    return float(np.sqrt(np.sum(np.abs(f) ** 2) * grid.cell_volume))


def l2_norm_spectral(grid: Grid, fh):
    """Same norm evaluated from spectral coefficients (Parseval)."""
    return float(
        np.sqrt(np.sum(np.abs(fh) ** 2) * grid.cell_volume / grid.npoints)
    )


def lp_norm(grid: Grid, f, p):
    return float((np.sum(np.abs(f) ** p) * grid.cell_volume) ** (1.0 / p))


def _spectral_weight_sum(grid: Grid, f, weight):
    fh = grid.fft(f)
    comp_axes = tuple(range(fh.ndim - grid.dim))
    power = np.abs(fh) ** 2
    if comp_axes:
        power = power.sum(axis=comp_axes)
    return float(np.sum(weight * power) * grid.cell_volume / grid.npoints)


def sobolev_norm(grid: Grid, f, s, variant="fourier"):
    """
    H^s norm of a (possibly multi-component) field.

    variant="fourier" uses the weight (1+|k|^2)^s; variant="sum" uses the
    sum of derivative L2 norms over all multi-indices |alpha| <= s (integer
    s only).  Both reduce to the L2 norm at s = 0.  ``s`` may also be a
    :class:`SobolevIndex`, which carries its own variant.
    """
    if isinstance(s, SobolevIndex):
        s, variant = s.s, s.variant
    if s < 0:
        raise ValueError("regularity index must be >= 0")
    if variant == "fourier":
        weight = (1.0 + k2(grid)) ** s
        return float(np.sqrt(_spectral_weight_sum(grid, f, weight)))
    if variant == "sum":
        n = int(round(s))
        if abs(n - s) > 1e-12:
            raise ValueError("sum variant needs integer s")
        total = 0.0
        for order in range(n + 1):
            for alpha in combinations_with_replacement(range(grid.dim), order):
                g = np.asarray(f)
                for ax in alpha:
                    g = deriv(grid, g, ax)
                total += l2_norm(grid, g)
        return total
    raise ValueError(f"unknown variant {variant!r}")


@dataclass(frozen=True)
class SobolevIndex:
    """Regularity index plus which realization of the norm to use."""

    s: float
    variant: str = "fourier"


@dataclass(frozen=True)
class PointwiseNorms:
    l_inf: float
    w1_inf: float
    w2_3: float


def _component_magnitude(f):
    f = np.asarray(f)
    if f.ndim == 0:
        return np.abs(f)
    return np.sqrt(np.sum(np.abs(f) ** 2, axis=0)) if f.ndim > 1 else np.abs(f)


def _derivative_stack(grid: Grid, f, order):
    """All distinct derivatives of a given order, stacked on a new axis."""
    outs = []
    for alpha in combinations_with_replacement(range(grid.dim), order):
        g = np.asarray(f)
        for ax in alpha:
            g = deriv(grid, g, ax)
        outs.append(g)
    return np.stack(outs)


def pointwise_norms(grid: Grid, f):
    """
    Grid realizations of the sup-type norms: L^inf is the max of the
    pointwise magnitude, W^{1,inf} adds the max over first derivatives,
    W^{2,3} sums L^3 quadrature norms of derivatives up to order 2.
    """
    f = np.asarray(f)
    stack0 = f if f.ndim > grid.dim else f[None]
    l_inf = float(np.max(_component_magnitude(stack0))) if f.size else 0.0
    d1 = _derivative_stack(grid, f, 1)
    w1_inf = l_inf + float(np.max(np.abs(d1)))
    w2_3 = 0.0
    for order in range(3):
        g = _derivative_stack(grid, f, order) if order else stack0
        w2_3 += lp_norm(grid, g, 3)
    return PointwiseNorms(l_inf=l_inf, w1_inf=w1_inf, w2_3=w2_3)


def spectral_tail_fraction(grid: Grid, f):
    """
    Fraction of spectral energy carried by the top third of the kept
    (dealiased) band: modes with |index_i| > 2 N_i / 9 on any axis.
    """
    fh = grid.fft(f)
    power = np.abs(fh) ** 2
    comp_axes = tuple(range(power.ndim - grid.dim))
    if comp_axes:
        power = power.sum(axis=comp_axes)
    tail = np.zeros(grid.shape, dtype=bool)
    for i, n in enumerate(grid.shape):
        idx = np.rint(np.fft.fftfreq(n) * n).astype(int)
        shp = [1] * grid.dim
        shp[i] = n
        tail |= (np.abs(idx) > (2 * n) // 9).reshape(shp)
    tail &= dealias_mask(grid)
    total = float(power.sum())
    if total == 0.0:
        return 0.0
    return float(power[tail].sum() / total)
