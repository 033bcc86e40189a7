"""
Periodic-torus discretization shared by every other module.

Conventions used throughout the package:

* spatial axes are the *last* ``d`` axes of any field array; component axes
  (spinor or vector) come first,
* scalar fields have shape ``grid.shape``, 3-vector fields ``(3, *shape)``,
  2-spinor fields ``(2, *shape)``,
* for ``d < 3`` all vector quantities still carry 3 components ("slab"
  symmetry); derivatives along inactive axes are identically zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Grid:
    """
    Uniform periodic grid on a d-dimensional torus.

    Parameters
    ----------
    shape : tuple of int
        Points per axis, one entry per dimension (powers of two recommended).
    lengths : tuple of float
        Axis lengths; defaults to 2*pi per axis.
    """

    shape: tuple
    lengths: tuple = None

    # derived, filled in __post_init__ (the hot loops read them often)
    dim: int = field(init=False)
    spacings: tuple = field(init=False)
    npoints: int = field(init=False)
    cell_volume: float = field(init=False)

    def __post_init__(self):
        shape = tuple(int(n) for n in np.atleast_1d(self.shape))
        if not 1 <= len(shape) <= 3:
            raise ValueError("grid dimension must be 1, 2 or 3")
        if any(n < 4 or n % 2 for n in shape):
            raise ValueError("points per axis must be even and >= 4")
        lengths = self.lengths
        if lengths is None:
            lengths = (2.0 * np.pi,) * len(shape)
        lengths = tuple(float(L) for L in np.atleast_1d(lengths))
        if len(lengths) != len(shape):
            raise ValueError("lengths must match shape")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "dim", len(shape))
        object.__setattr__(
            self, "spacings", tuple(L / n for L, n in zip(lengths, shape))
        )
        object.__setattr__(self, "npoints", int(np.prod(shape)))
        object.__setattr__(self, "cell_volume", float(np.prod(self.spacings)))

    # -- geometry -----------------------------------------------------------

    @property
    def axes(self):
        """FFT axes (the trailing spatial axes)."""
        return tuple(range(-self.dim, 0))

    def coordinates(self):
        """Coordinate arrays ``x[i]`` broadcastable to ``shape``."""
        out = []
        for i, (n, L) in enumerate(zip(self.shape, self.lengths)):
            x = np.arange(n) * (L / n)
            shp = [1] * self.dim
            shp[i] = n
            out.append(x.reshape(shp))
        return out

    # -- mode indices -------------------------------------------------------
    #
    # ``half=True`` indexes the half spectrum of :meth:`rfft`: the last axis
    # keeps only its nonnegative indices 0 .. N//2.  The spectral tables
    # built on these indices are the cached functions below the class.

    def _axis_index(self, i, half=False):
        """Integer mode indices of axis ``i`` (fftfreq * N), broadcastable."""
        n = self.shape[i]
        last = half and i == self.dim - 1
        idx = np.arange(n // 2 + 1) if last else np.rint(np.fft.fftfreq(n) * n).astype(int)
        shp = [1] * self.dim
        shp[i] = len(idx)
        return idx.reshape(shp)

    # -- transforms ---------------------------------------------------------

    # On a 1d grid the 1d transforms are called directly: they compute the
    # same numbers as the n-dimensional ones, without numpy's n-dimensional
    # argument handling, which costs more than a 256-point transform.
    # Otherwise a forward or complex inverse transform is given its result
    # array: numpy then transforms axis after axis in that one array, the
    # same numbers, where without it each axis allocates a new array.
    # ``axis`` selects one spatial axis, which alone is transformed: on a 1d
    # grid that is the whole transform.

    def fft(self, f, axis=None):
        """Forward transform over the spatial axes, or along ``axis`` alone."""
        if self.dim == 1 or axis is not None:
            return np.fft.fft(f, axis=(axis or 0) - self.dim)
        return np.fft.fftn(f, axes=self.axes, out=np.empty(np.shape(f), complex))

    def ifft(self, fh, axis=None, out=None):
        """Inverse of :meth:`fft`, complex, into ``out`` when given (``fh`` itself may be it)."""
        if self.dim == 1 or axis is not None:
            return np.fft.ifft(fh, axis=(axis or 0) - self.dim, out=out)
        if out is None:
            out = np.empty(np.shape(fh), complex)
        return np.fft.ifftn(fh, axes=self.axes, out=out)

    def ifft_real(self, fh):
        """Inverse transform of a spectrally-Hermitian field; drops imag."""
        return np.fft.ifftn(fh, axes=self.axes).real

    def rfft(self, f, out=None):
        """
        Forward transform of a real field over the spatial axes, batched
        over any leading component axes, into ``out`` when given; the last
        spatial axis keeps its half spectrum (use the ``half=True`` tables).
        """
        if self.dim == 1:
            return np.fft.rfft(f, out=out)
        if out is None:
            out = np.empty(np.shape(f)[:-1] + (self.shape[-1] // 2 + 1,), complex)
        return np.fft.rfftn(f, axes=self.axes, out=out)

    def irfft(self, fh, out=None, work=None):
        """
        Inverse of :meth:`rfft`, into ``out`` when given: a real field of
        shape ``shape``.  ``work``, a complex array of the shape of ``fh``
        whose contents are spent, takes the complex inverse passes over the
        leading spatial axes before the last axis's real inverse: the numbers
        of ``np.fft.irfftn``, without its fresh complex array per pass.
        ``fh`` is not written to.  A 1d grid has no such pass and ignores it.
        """
        if self.dim == 1:
            return np.fft.irfft(fh, n=self.shape[0], out=out)
        if work is None:
            return np.fft.irfftn(fh, s=self.shape, axes=self.axes, out=out)
        for axis in self.axes[:-1]:
            fh = np.fft.ifft(fh, axis=axis, out=work)
        return np.fft.irfft(fh, n=self.shape[-1], axis=-1, out=out)


# Cached spectral tables.  The grid is frozen, so each table is stored on
# it under a private name the first time it is asked for; ``half=True``
# selects the half-spectrum table that goes with ``Grid.rfft``.


def _cached(grid: Grid, name, half, build):
    name = name + ("_half" if half else "")
    tab = grid.__dict__.get(name)
    if tab is None:
        tab = build()
        object.__setattr__(grid, name, tab)
    return tab


def k3(grid: Grid, half=False):
    """
    Derivative wavenumber arrays ``k[i]`` broadcastable to ``shape``; always
    3 entries, zero on inactive axes.  The Nyquist mode is zeroed so the
    table is exactly antisymmetric under index negation and odd derivatives
    of real fields stay real.
    """

    def build():
        ks = [np.zeros((1,) * grid.dim) for _ in range(3)]
        for i, (n, L) in enumerate(zip(grid.shape, grid.lengths)):
            idx = grid._axis_index(i, half)
            k = 2.0 * np.pi * (idx * (1.0 / (n * (L / n))))  # as fftfreq
            ks[i] = np.where(np.abs(idx) == n // 2, 0.0, k)
        return ks

    return _cached(grid, "_k3", half, build)


def k2(grid: Grid, half=False):
    """|k|^2 on the grid (from the antisymmetrized table)."""
    return _cached(grid, "_k2", half, lambda: sum(k**2 for k in k3(grid, half)[: grid.dim]))


def parseval_weights(grid: Grid):
    """Weights of a half spectrum's float view in a Parseval sum: 1 on the last
    axis's 0 and N/2 planes, 2 off them, where a mode stands for its partner too."""
    m = grid.shape[-1] // 2 - 1
    return _cached(grid, "_parseval", True, lambda: np.r_[1.0, 1.0, [2.0] * (2 * m), 1.0, 1.0])


def k2_safe(grid: Grid, half=False):
    """
    |k|^2 with zero entries replaced by 1 (for spectral division).

    Besides the k = 0 mode this also covers Nyquist lines, where the
    antisymmetrized derivative table vanishes; callers must zero those
    modes in their result (see :func:`inverse_laplacian_modes`).
    """
    return _cached(grid, "_k2_safe", half,
                   lambda: np.where(k2(grid, half) == 0.0, 1.0, k2(grid, half)))


def inverse_laplacian_modes(grid: Grid, half=False):
    """Boolean mask of modes invertible by -Delta (k2 != 0)."""
    return _cached(grid, "_invertible", half, lambda: k2(grid, half) != 0.0)


def dealias_mask(grid: Grid, half=False):
    """Boolean 2/3-rule mask: keeps |index_i| <= N_i // 3 per axis."""

    def build():
        mask = np.ones((1,) * grid.dim, dtype=bool)
        for i, n in enumerate(grid.shape):
            mask = mask & (np.abs(grid._axis_index(i, half)) <= n // 3)
        return mask

    return _cached(grid, "_mask", half, build)


def dealias_band(grid: Grid, half=False):
    """The modes :func:`dealias_mask` keeps as an index: ``f[band]`` is their block in ``f``."""
    return _cached(grid, "_band", half, lambda: (Ellipsis,) + np.ix_(*(
        np.flatnonzero(np.abs(grid._axis_index(i, half)) <= n // 3)
        for i, n in enumerate(grid.shape))))


def tail_mask(grid: Grid, half=False):
    """The top third of the kept band: kept modes with |index_i| > 2 N_i / 9 on some axis."""

    def build():
        tail = np.zeros((1,) * grid.dim, dtype=bool)
        for i, n in enumerate(grid.shape):
            tail = tail | (np.abs(grid._axis_index(i, half)) > (2 * n) // 9)
        return tail & dealias_mask(grid, half)

    return _cached(grid, "_tail", half, build)


def dispersion_factor(grid: Grid, epsilon, t, tables: dict):
    """
    exp(-i eps |k|^2 t/2), the flow of (i eps/2) Lap over ``t``, kept in the
    caller's ``tables`` (each solver owns one, so its tables go with it):
    two at most, the pair an IF-RK4 step uses.
    """
    key = (float(epsilon), float(t))
    if key not in tables:
        if len(tables) == 2:
            tables.clear()
        tables[key] = np.exp(-0.5j * epsilon * t * k2(grid))
    return tables[key]
