import numpy as np
import pytest

from poisswell.grid import Grid, dealias_mask, dispersion_factor, k2, k3

from conftest import random_band_limited


@pytest.mark.parametrize("shape,lengths", [((64,), None), ((32, 16), (2 * np.pi, 4 * np.pi)), ((8, 8, 8), None)])
def test_cell_volume_times_points_is_domain_volume(shape, lengths):
    g = Grid(shape, lengths)
    assert g.cell_volume * g.npoints == pytest.approx(np.prod(g.lengths), rel=1e-14)


def test_wavenumber_table_antisymmetric_under_index_negation():
    g = Grid((64,))
    k = k3(g)[0].ravel()
    n = g.shape[0]
    for i in range(n):
        assert k[(-i) % n] == -k[i]


def test_wavenumber_table_antisymmetric_2d():
    g = Grid((16, 32), (2 * np.pi, 2 * np.pi))
    for ax in range(2):
        k = k3(g)[ax]
        flipped = -np.flip(np.roll(k, -1, axis=ax), axis=ax)
        assert np.array_equal(k, flipped)


def test_dealias_mask_zeroes_above_third():
    g = Grid((96,))
    mask = dealias_mask(g)
    idx = (np.fft.fftfreq(96) * 96).astype(int)
    assert np.array_equal(mask, np.abs(idx) <= 32)


def test_roundtrip_transform(rng):
    g = Grid((32, 16))
    f = rng.standard_normal(g.shape)
    back = g.ifft_real(g.fft(f))
    assert np.max(np.abs(back - f)) <= 1e-12 * max(1.0, np.max(np.abs(f)))


@pytest.mark.parametrize("shape", [(16, 12), (8, 6, 10), (64,)])
def test_transforms_are_numpys_to_the_bit(shape, rng):
    # the transforms that write into one result array compute numpy's
    # n-dimensional transforms exactly, for real and complex, batched input
    g = Grid(shape)
    f = rng.standard_normal((3,) + shape)
    z = f + 1j * rng.standard_normal((3,) + shape)
    fh = np.fft.rfftn(f, axes=g.axes)
    assert np.array_equal(g.rfft(f), fh)
    out = np.empty_like(f)
    assert g.irfft(fh, out=out) is out
    assert np.array_equal(out, np.fft.irfftn(fh, s=shape, axes=g.axes))
    for x in (f, f[0], z):
        assert np.array_equal(g.fft(x), np.fft.fftn(x, axes=g.axes))
        assert np.array_equal(g.ifft(x), np.fft.ifftn(x, axes=g.axes))


@pytest.mark.parametrize("shape", [(16, 12), (128, 128), (8, 6, 10), (32, 32, 32)])
def test_inverse_in_a_work_array_is_numpys_to_the_bit(shape, rng):
    # the complex passes over the leading axes go to a spent work array in
    # place of irfftn's fresh ones: the same numbers, and fh is not written to
    g = Grid(shape)
    for f in (rng.standard_normal(shape), rng.standard_normal((3,) + shape)):
        fh = np.fft.rfftn(f, axes=g.axes)
        before = fh.copy()
        work = np.full_like(fh, np.nan)
        expected = np.fft.irfftn(fh, s=shape, axes=g.axes)
        assert np.array_equal(g.irfft(fh, work=work), expected)
        out = np.empty_like(f)
        assert g.irfft(fh, out=out, work=work) is out
        assert np.array_equal(out, expected)
        assert np.array_equal(fh, before)


def test_1d_inverse_leaves_the_work_array_alone(rng):
    g = Grid((64,))
    fh = np.fft.rfft(rng.standard_normal((3, 64)))
    work = np.full_like(fh, np.nan)
    assert np.array_equal(g.irfft(fh, work=work), np.fft.irfft(fh, n=64))
    assert np.all(np.isnan(work))


def test_roundtrip_spinor(rng):
    g = Grid((32,))
    psi = rng.standard_normal((2, 32)) + 1j * rng.standard_normal((2, 32))
    back = g.ifft(g.fft(psi))
    assert np.max(np.abs(back - psi)) <= 1e-12 * np.max(np.abs(psi))


def test_spinor_density_nonnegative(rng):
    from poisswell.states import charge_density

    g = Grid((32,))
    psi = random_band_limited(g, rng, components=2, complex_=True)
    rho = charge_density(psi)
    assert rho.min() >= 0.0


def test_rejects_odd_or_tiny_axes():
    with pytest.raises(ValueError):
        Grid((15,))
    with pytest.raises(ValueError):
        Grid((2,))


def test_mask_cached_identity():
    g = Grid((32,))
    assert dealias_mask(g) is dealias_mask(g)


@pytest.mark.parametrize("shape", [(32,), (16, 12), (8, 6, 10)])
def test_half_tables_are_the_kept_part_of_the_full_ones(shape, rng):
    from poisswell.grid import dealias_mask, inverse_laplacian_modes, k2, k2_safe, k3

    g = Grid(shape, tuple(1.0 + i for i in range(len(shape))))
    kept = (Ellipsis, slice(0, shape[-1] // 2 + 1))
    for full, half in zip(k3(g), k3(g, half=True)):
        assert np.array_equal(np.broadcast_to(full, shape)[kept],
                              np.broadcast_to(half, g.rfft(np.zeros(shape)).shape))
    for table in (k2, k2_safe, inverse_laplacian_modes, dealias_mask):
        assert np.array_equal(table(g)[kept], table(g, half=True))
    f = rng.standard_normal((3,) + shape)
    scale = np.max(np.abs(f)) * g.npoints
    assert np.max(np.abs(g.rfft(f) - g.fft(f)[kept])) <= 1e-13 * scale
    assert np.max(np.abs(g.irfft(g.rfft(f)) - f)) <= 1e-13 * np.max(np.abs(f))


def test_dispersion_factor_is_one_cached_table():
    # both solvers ask for exp(-i eps |k|^2 t/2); a step's pair of tables is
    # built once, and a third (eps, t) drops them
    g, tables = Grid((16, 8)), {}
    half = dispersion_factor(g, 0.2, 0.005, tables)
    full = dispersion_factor(g, 0.2, 0.01, tables)
    assert np.array_equal(full, np.exp(-0.5j * 0.2 * 0.01 * k2(g)))
    assert dispersion_factor(g, 0.2, 0.005, tables) is half
    assert dispersion_factor(g, 0.2, 0.01, tables) is full
    dispersion_factor(g, 0.1, 0.01, tables)
    assert list(tables) == [(0.1, 0.01)]
    assert np.array_equal(dispersion_factor(g, 0.2, 0.01, tables), full)
