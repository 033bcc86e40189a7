"""
Spectral differential operators, norms and projections on a :class:`Grid`.

The operators named after what they compute (``deriv``, ``gradient``,
``curl``, ``advect``, ...) act on physical-space arrays and return
physical-space arrays; each transforms its input itself.  A complex field's
derivatives stream into their readers one at a time (:func:`partials`),
each from a transform along its own axis; a real field's from its half
spectrum, batched (:func:`gradient`) or one multiplier at a time
(:func:`pointwise_norms`), with :func:`derivative_table` as the tests' batched
reference; the screened solve takes its inner products from half spectra
(:func:`half_spectrum_vdot`).  Multi-component fields (leading axes) are
handled componentwise; vector calculus is always done in the embedded
3-component sense so d < 3 "slab" fields work transparently.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Callable, Optional

import numpy as np

from .grid import Grid, dealias_mask, k2, k3, parseval_weights, tail_mask


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
    """Embedded curl of a 3-component vector field, its spectrum built in one
    array; a real field's inverse takes the spent spectrum of ``vec`` as work."""
    fwd, inv, half = _transforms(grid, vec)
    k = k3(grid, half)
    v = fwd(vec)
    c = np.empty_like(v)
    for i in range(3):  # c_i = k_j v_l - k_l v_j for (i, j, l) cyclic
        j, l = (i + 1) % 3, (i + 2) % 3
        np.multiply(k[j], v[l], out=c[i])
        c[i] -= k[l] * v[j]
    c *= 1j
    return grid.irfft(c, work=v) if half else inv(c, out=c)


def curl_divergence(grid: Grid, vec):
    """``(curl vec, div vec)`` of a real 3-vector field, from one transform of it."""
    k = k3(grid, half=True)
    v = grid.rfft(vec)
    out = grid.irfft(1j * np.stack([
        k[1] * v[2] - k[2] * v[1],
        k[2] * v[0] - k[0] * v[2],
        k[0] * v[1] - k[1] * v[0],
        sum(k[i] * v[i] for i in range(grid.dim)),
    ]))
    return out[:3], out[3]


def laplacian(grid: Grid, f):
    fwd, inv, half = _transforms(grid, f)
    return inv(-k2(grid, half) * fwd(f))


def advect(grid: Grid, g, f):
    """``sum_j g_j d_j f`` for f of any component rank from :func:`deriv`, the
    full-spectrum reference that :func:`directional` is tested against."""
    return sum(g[j] * deriv(grid, f, j) for j in range(grid.dim))


# -- derivatives of real and complex fields ----------------------------------


def derivative_table(grid: Grid, fh):
    """
    ``d_i f`` on every active axis ``i``, indexed by ``i``, from the half
    spectrum ``fh`` of a real field ``f``, inverted in one batched transform
    into a ``(dim, *f.shape)`` array.  For a vector field the entry
    ``[i, j]`` is ``d_i f_j``, its Jacobian.
    """
    ks = k3(grid, half=True)
    return grid.irfft(np.stack([1j * ks[i] * fh for i in range(grid.dim)]))


def partials(grid: Grid, f):
    """
    ``d_i f`` of a complex field on each active axis ``i`` in turn, as
    ``ifft_i(i k_i fft_i(f))`` in an array of its own that the reader may
    spend: two one-axis passes, where inverting the full spectrum takes d.
    Each is dropped here before the next is made, so a reader that drops it
    too holds one at a time.
    """
    ks = k3(grid)
    for i in range(grid.dim):
        d = grid.fft(f, axis=i)
        np.multiply(1j * ks[i], d, out=d)
        yield grid.ifft(d, axis=i, out=d)
        del d


def directional(grid: Grid, g, f):
    """``sum_j g_j d_j f`` of a complex field, summed in place as each derivative
    arrives from :func:`partials`: one is held at a time."""
    out = None
    for gj, d in zip(g, partials(grid, f)):
        np.multiply(gj, d, out=d)
        out = d if out is None else np.add(out, d, out=out)
        del d  # before partials makes the next
    return out


def half_spectrum_vdot(grid: Grid, fh, gh):
    """
    ``np.vdot(f, g)`` of two real fields from their half spectra (Parseval),
    weighted by :func:`~poisswell.grid.parseval_weights`; ``gh`` may stack
    spectra on a leading axis, for one product with each in one pass.  An
    ``einsum`` over float views never enters BLAS, whose ``vdot`` runs on
    every core unless its threads are pinned.
    """
    w = parseval_weights(grid)
    f = fh.view(float).reshape(-1, len(w))
    g = gh.view(float).reshape(gh.shape[: gh.ndim - fh.ndim] + f.shape)
    return np.einsum("...j,j->...", np.einsum("ij,...ij->...j", f, g), w) / grid.npoints


# -- norms -------------------------------------------------------------------


def l2_norm(grid: Grid, f):
    """L2 norm by grid quadrature; components summed in quadrature."""
    return float(np.sqrt(np.sum(np.abs(f) ** 2) * grid.cell_volume))


def lp_norm(grid: Grid, f, p):
    return float((np.sum(np.abs(f) ** p) * grid.cell_volume) ** (1.0 / p))


@dataclass(frozen=True)
class Spectrum:
    """
    A field with its spectrum, taken once for all its norms and derivatives
    (the half spectrum for a real field).  ``power`` is the component-summed
    ``|f_hat|^2``, a half-spectrum mode counted with its conjugate partner.
    """

    f: np.ndarray
    fh: np.ndarray
    inverse: Callable
    half: bool
    power: np.ndarray


def spectrum(grid: Grid, f, fh=None) -> Spectrum:
    """
    The :class:`Spectrum` of a field; a spectrum is returned as it is.
    ``fh``, the half spectrum of a real ``f``, is taken when the caller holds
    it, and then ``f`` may be None for a spectrum that only :func:`sobolev_norm`
    and :func:`spectral_tail_fraction` read.
    """
    if isinstance(f, Spectrum):
        return f
    if fh is None:
        f = np.asarray(f)
        fwd, inv, half = _transforms(grid, f)
        fh = fwd(f)
    else:
        inv, half = grid.irfft, True
    power = np.sum(np.abs(fh) ** 2, axis=tuple(range(fh.ndim - grid.dim)))
    if half:  # off the last axis's 0 and N/2 planes a mode stands for two
        power[..., 1:-1] *= 2.0
    return Spectrum(f=f, fh=fh, inverse=inv, half=half, power=power)


def sobolev_norm(grid: Grid, f, s):
    """
    H^s norm of a (possibly multi-component) field or of its :class:`Spectrum`:
    the power spectrum weighted by (1+|k|^2)^s; the L2 norm at s = 0.
    """
    if s < 0:
        raise ValueError("regularity index must be >= 0")
    spec = spectrum(grid, f)
    weight = (1.0 + k2(grid, spec.half)) ** s
    return float(np.sqrt(np.sum(weight * spec.power) * grid.cell_volume / grid.npoints))


@dataclass(frozen=True)
class PointwiseNorms:
    l_inf: float
    w1_inf: float
    w2_3: Optional[float]


def pointwise_norms(grid: Grid, f, second=True):
    """
    Grid realizations of the sup-type norms of a field or its :class:`Spectrum`:
    L^inf is the max of the pointwise magnitude, W^{1,inf} adds the max over
    first derivatives, W^{2,3} sums L^3 quadrature norms of derivatives up to
    order 2.  Each multiplier (``i k_i``, then ``-k_i k_j`` for i <= j) is
    inverted alone and only its magnitude kept, in one real table per order of
    shape ``(multipliers, *f.shape)``: the max and L^3 sum of a batched inverse,
    bit for bit.  Without ``second`` no second-order table is made (``w2_3`` None).
    """
    spec = spectrum(grid, f)
    f, ks = spec.f, k3(grid, spec.half)

    def magnitudes(multipliers):
        table = np.empty((len(multipliers),) + f.shape)
        for m, row in zip(multipliers, table):
            np.abs(spec.inverse(m * spec.fh), out=row)
        return table

    def l3_norm(table):  # lp_norm(grid, table, 3), cubing the table in place, not a copy
        table **= 3
        return float((np.sum(table) * grid.cell_volume) ** (1.0 / 3))

    stack0 = f if f.ndim > grid.dim else f[None]
    l_inf = float(np.max(np.sqrt(np.sum(np.abs(stack0) ** 2, axis=0))))
    d1 = magnitudes([1j * ks[i] for i in range(grid.dim)])
    w1_inf = l_inf + float(np.max(d1))
    if not second:
        return PointwiseNorms(l_inf=l_inf, w1_inf=w1_inf, w2_3=None)
    w2_3 = lp_norm(grid, stack0, 3) + l3_norm(d1)
    del d1  # the two tables are never held at once
    pairs = combinations_with_replacement(range(grid.dim), 2)
    w2_3 += l3_norm(magnitudes([-(ks[i] * ks[j]) for i, j in pairs]))
    return PointwiseNorms(l_inf=l_inf, w1_inf=w1_inf, w2_3=w2_3)


def spectral_tail_fraction(grid: Grid, f):
    """
    Fraction of spectral energy of a field or its :class:`Spectrum` carried by the
    top third of the kept (dealiased) band: modes with |index_i| > 2 N_i / 9 on any axis.
    """
    spec = spectrum(grid, f)
    total = float(spec.power.sum())
    if total == 0.0:
        return 0.0
    return float(spec.power[tail_mask(grid, spec.half)].sum() / total)
