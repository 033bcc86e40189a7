from dataclasses import astuple
from itertools import combinations_with_replacement

import numpy as np
import pytest

from poisswell.grid import Grid, k3
from poisswell import operators as ops

from conftest import random_band_limited


def x_of(grid, axis=0):
    return grid.coordinates()[axis]


class TestGradient:
    def test_cosine_eigenfunction(self):
        g = Grid((64,))
        x = x_of(g)
        grad = ops.gradient(g, np.cos(x) * np.ones(g.shape))
        assert np.max(np.abs(grad[0] + np.sin(x))) < 1e-12
        assert np.max(np.abs(grad[1])) == 0.0

    def test_constant_maps_to_zero(self):
        g = Grid((32,))
        grad = ops.gradient(g, np.full(g.shape, 3.7))
        assert np.max(np.abs(grad)) < 1e-13

    def test_2d_product_against_symbolic_derivative(self):
        # oracle: d/dx1 cos(2 x1)cos(3 x2) = -2 sin(2 x1)cos(3 x2)
        #         d/dx2 cos(2 x1)cos(3 x2) = -3 cos(2 x1)sin(3 x2)
        g = Grid((32, 48))
        x1, x2 = g.coordinates()
        f = np.cos(2 * x1) * np.cos(3 * x2)
        grad = ops.gradient(g, f)
        assert np.max(np.abs(grad[0] + 2 * np.sin(2 * x1) * np.cos(3 * x2))) < 1e-11
        assert np.max(np.abs(grad[1] + 3 * np.cos(2 * x1) * np.sin(3 * x2))) < 1e-11

    def test_linearity(self, rng):
        g = Grid((32,))
        f1 = random_band_limited(g, rng)
        f2 = random_band_limited(g, rng)
        left = ops.gradient(g, 2.0 * f1 - 0.5 * f2)
        right = 2.0 * ops.gradient(g, f1) - 0.5 * ops.gradient(g, f2)
        assert np.max(np.abs(left - right)) < 1e-12


class TestCurl:
    def test_symbolic_curl_x1(self):
        # oracle: curl(0,0,sin x1) = (d2 A3 - d3 A2, d3 A1 - d1 A3, d1 A2 - d2 A1)
        #       = (0, -cos x1, 0)
        g = Grid((64,))
        x = x_of(g)
        A = np.zeros((3,) + g.shape)
        A[2] = np.sin(x).ravel()
        B = ops.curl(g, A)
        assert np.max(np.abs(B[0])) < 1e-12
        assert np.max(np.abs(B[1] + np.cos(x).ravel())) < 1e-12
        assert np.max(np.abs(B[2])) < 1e-12

    def test_symbolic_curl_x2(self):
        # oracle: curl(0,0,sin x2) = (cos x2, 0, 0)
        g = Grid((16, 64))
        x2 = g.coordinates()[1]
        A = np.zeros((3,) + g.shape)
        A[2] = (np.sin(x2) * np.ones(g.shape))
        B = ops.curl(g, A)
        assert np.max(np.abs(B[0] - np.cos(x2) * np.ones(g.shape))) < 1e-12
        assert np.max(np.abs(B[1])) < 1e-12

    def test_curl_of_gradient_vanishes(self, rng):
        g = Grid((16, 16))
        phi = random_band_limited(g, rng)
        B = ops.curl(g, ops.gradient(g, phi))
        assert np.max(np.abs(B)) < 1e-12

    def test_divergence_of_curl_vanishes(self, rng):
        g = Grid((16, 16, 16))
        A = random_band_limited(g, rng, components=3)
        divB = ops.divergence(g, ops.curl(g, A))
        assert np.max(np.abs(divB)) < 1e-12

    @pytest.mark.parametrize("shape", [(64,), (16, 12), (8, 6, 10)])
    def test_curl_divergence_is_curl_and_divergence(self, shape, rng):
        # one transform of the field gives both, to the bit
        g = Grid(shape)
        A = rng.standard_normal((3,) + shape)
        B, divA = ops.curl_divergence(g, A)
        assert np.array_equal(B, ops.curl(g, A))
        assert np.array_equal(divA, ops.divergence(g, A))


class TestNorms:
    def test_l2_of_cosine(self):
        # integral of cos^2 over [0, 2pi) is pi
        g = Grid((64,))
        x = x_of(g)
        assert ops.l2_norm(g, np.cos(x).ravel()) == pytest.approx(np.sqrt(np.pi), rel=1e-13)

    def test_parseval(self, rng):
        # the L2 norm of a real field from its half-spectrum power
        g = Grid((32, 32))
        f = random_band_limited(g, rng)
        assert ops.l2_norm(g, f) == pytest.approx(
            ops.sobolev_norm(g, ops.spectrum(g, f), 0.0), rel=1e-12
        )

    def test_sobolev_reduces_to_l2_at_zero(self, rng):
        g = Grid((64,))
        f = random_band_limited(g, rng)
        assert ops.sobolev_norm(g, f, 0.0) == pytest.approx(ops.l2_norm(g, f), rel=1e-12)

    def test_sobolev_fourier_cosine(self):
        # oracle: single mode k=1 carries weight (1+1)^1 = 2 => sqrt(2) sqrt(pi)
        g = Grid((64,))
        x = x_of(g)
        val = ops.sobolev_norm(g, np.cos(x).ravel(), 1.0)
        assert val == pytest.approx(np.sqrt(2.0) * np.sqrt(np.pi), rel=1e-12)

    def test_sobolev_monotone_in_s(self, rng):
        g = Grid((64,))
        f = random_band_limited(g, rng)
        vals = [ops.sobolev_norm(g, f, s) for s in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_zero_field_zero_norm(self):
        g = Grid((32,))
        for s in (0.0, 1.0, 3.0):
            assert ops.sobolev_norm(g, np.zeros(g.shape), s) == 0.0

    def test_pointwise_norms_cosine(self):
        g = Grid((128,))
        x = x_of(g)
        pw = ops.pointwise_norms(g, np.cos(x).ravel())
        assert pw.l_inf == pytest.approx(1.0, abs=1e-14)
        assert pw.w1_inf == pytest.approx(2.0, abs=1e-12)

    def test_pointwise_norms_zero(self):
        g = Grid((32,))
        pw = ops.pointwise_norms(g, np.zeros(g.shape))
        assert (pw.l_inf, pw.w1_inf, pw.w2_3) == (0.0, 0.0, 0.0)

    def test_pointwise_sup_sampling_error(self):
        # grid max of sin(3x) reaches 1 up to O(dx^2) sampling error
        g = Grid((64,))
        x = x_of(g)
        pw = ops.pointwise_norms(g, np.sin(3 * x).ravel())
        dx = g.spacings[0]
        assert 1.0 - pw.l_inf <= dx**2
        assert pw.l_inf <= 1.0 + 1e-14

    def test_w23_cosine_against_quadrature(self):
        # oracle: fine-grid quadrature of |cos|^3, |sin|^3 on [0, 2pi)
        g = Grid((128,))
        x = x_of(g).ravel()
        fine = np.linspace(0, 2 * np.pi, 200001)
        c3 = (np.trapezoid(np.abs(np.cos(fine)) ** 3, fine)) ** (1 / 3)
        s3 = (np.trapezoid(np.abs(np.sin(fine)) ** 3, fine)) ** (1 / 3)
        pw = ops.pointwise_norms(g, np.cos(x))
        assert pw.w2_3 == pytest.approx(2 * c3 + s3, rel=1e-6)


class TestStructure:
    def test_translation_commutes_with_gradient_and_curl(self, rng):
        g = Grid((32, 32))
        f = random_band_limited(g, rng)
        A = random_band_limited(g, rng, components=3)
        rolled = np.roll(f, 1, axis=-1)
        assert np.allclose(
            ops.gradient(g, rolled), np.roll(ops.gradient(g, f), 1, axis=-1), atol=1e-12
        )
        rolledA = np.roll(A, 1, axis=-1)
        assert np.allclose(
            ops.curl(g, rolledA), np.roll(ops.curl(g, A), 1, axis=-1), atol=1e-12
        )

    def test_dealias_idempotent(self, rng):
        g = Grid((64,))
        f = rng.standard_normal(g.shape)
        once = ops.dealias(g, f)
        twice = ops.dealias(g, once)
        assert np.allclose(once, twice, atol=1e-13)

    def test_spectral_tail_fraction_detects_high_modes(self):
        g = Grid((96,))
        x = x_of(g).ravel()
        smooth = np.cos(x)
        rough = np.cos(30 * x)  # inside kept band (|k|<=32), top third (>21)
        assert ops.spectral_tail_fraction(g, smooth) < 1e-20
        assert ops.spectral_tail_fraction(g, rough) > 0.99


@pytest.mark.parametrize("shape", [(64,), (16, 12), (8, 6, 10)])
def test_real_fields_match_the_complex_path(shape, rng):
    # real fields take the half-spectrum transforms; the complex path of the
    # same operator is the reference
    g = Grid(shape)
    f = random_band_limited(g, rng)
    v = random_band_limited(g, rng, components=3)
    cases = [
        (ops.gradient, f), (ops.laplacian, f), (ops.dealias, f),
        (lambda g, f: ops.deriv(g, f, g.dim - 1), f),
        (ops.divergence, v), (ops.curl, v),
        (lambda g, v: ops.advect(g, v, v), v),
    ]
    for op, x in cases:
        real = op(g, x)
        reference = op(g, x.astype(complex))
        assert not np.iscomplexobj(real)
        assert np.max(np.abs(real - reference)) <= 1e-12 * max(1.0, np.max(np.abs(reference)))


def _norms_from_arrays(g, stack0, d1, d2):
    # the definitions of PointwiseNorms, on given derivative arrays
    l_inf = float(np.max(np.sqrt(np.sum(np.abs(stack0) ** 2, axis=0))))
    w1_inf = l_inf + float(np.max(np.abs(d1)))
    w2_3 = sum(ops.lp_norm(g, d, 3) for d in (stack0, d1, d2))
    return l_inf, w1_inf, w2_3


class TestDerivativeTable:
    @pytest.mark.parametrize("shape, components, complex_", [
        ((16, 16, 16), 2, True),
        ((16, 16, 16), 3, False),
        ((32, 24), None, False),
    ])
    def test_matches_repeated_first_derivatives(self, shape, components, complex_, rng):
        # reference: every second derivative as deriv(deriv(f)), two
        # transform pairs each
        g = Grid(shape)
        f = random_band_limited(g, rng, components=components, complex_=complex_, kmax=5)
        pairs = combinations_with_replacement(range(g.dim), 2)
        d1 = np.stack([ops.deriv(g, f, i) for i in range(g.dim)])
        d2 = np.stack([ops.deriv(g, ops.deriv(g, f, i), j) for i, j in pairs])
        expected = _norms_from_arrays(g, f if components else f[None], d1, d2)
        pw = ops.pointwise_norms(g, f)
        assert (pw.l_inf, pw.w1_inf, pw.w2_3) == pytest.approx(expected, rel=1e-13)

    def test_mixed_second_derivatives_closed_form(self):
        # f = sin x sin 2y cos 3z: every second derivative is known exactly
        g = Grid((16, 16, 16))
        x, y, z = g.coordinates()
        sx, cx = np.sin(x), np.cos(x)
        s2, c2 = np.sin(2 * y), np.cos(2 * y)
        s3, c3 = np.sin(3 * z), np.cos(3 * z)
        f = sx * s2 * c3
        d1 = np.stack([cx * s2 * c3, 2 * sx * c2 * c3, -3 * sx * s2 * s3])
        d2 = np.stack([
            -f, 2 * cx * c2 * c3, -3 * cx * s2 * s3,  # xx, xy, xz
            -4 * f, -6 * sx * c2 * s3,                # yy, yz
            -9 * f,                                   # zz
        ])
        spin = np.array([1.0, 0.5j]).reshape(2, 1, 1, 1)
        for field, first, second, stack0 in (
            (f, d1, d2, f[None]),
            (spin * f, d1[:, None] * spin, d2[:, None] * spin, spin * f),
        ):
            pw = ops.pointwise_norms(g, field)
            expected = _norms_from_arrays(g, stack0, first, second)
            assert (pw.l_inf, pw.w1_inf, pw.w2_3) == pytest.approx(expected, rel=1e-12)

    def test_spectrum_is_shared_not_retaken(self, rng, transform_count):
        # one forward transform serves every norm of the field: none is made
        # here, and the inverses transform 3 first and 6 second derivatives
        # of each of the 3 components, one multiplier per call
        g = Grid((16, 16, 16))
        u = random_band_limited(g, rng, components=3)
        spec = ops.spectrum(g, u)
        transform_count.clear()
        ops.sobolev_norm(g, spec, 4.0)
        ops.spectral_tail_fraction(g, spec)
        ops.pointwise_norms(g, spec)
        assert set(transform_count) == {"irfft"}
        assert dict(transform_count.components) == {"irfft": 27}


def _batched_pointwise_norms(g, f, second=True):
    # the batched formula: each order's multipliers stacked on the spectrum
    # and inverted in one call, the norms taken by lp_norm
    spec = ops.spectrum(g, f)
    f, fh, ks = spec.f, spec.fh, k3(g, spec.half)
    axes = range(g.dim)
    stack0 = f if f.ndim > g.dim else f[None]
    l_inf = float(np.max(np.sqrt(np.sum(np.abs(stack0) ** 2, axis=0))))
    d1 = spec.inverse(np.stack([1j * ks[i] * fh for i in axes]))
    w1_inf = l_inf + float(np.max(np.abs(d1)))
    if not second:
        return ops.PointwiseNorms(l_inf=l_inf, w1_inf=w1_inf, w2_3=None)
    w2_3 = ops.lp_norm(g, stack0, 3) + ops.lp_norm(g, d1, 3)
    pairs = combinations_with_replacement(axes, 2)
    d2 = spec.inverse(np.stack([-(ks[i] * ks[j]) * fh for i, j in pairs]))
    w2_3 += ops.lp_norm(g, d2, 3)
    return ops.PointwiseNorms(l_inf=l_inf, w1_inf=w1_inf, w2_3=w2_3)


@pytest.mark.parametrize("shape, components, complex_, second", [
    ((16, 16, 16), 2, True, True),
    ((16, 16, 16), 3, False, True),
    ((16, 16, 16), 3, False, False),
    ((32, 24), 2, True, True),
    ((64,), None, False, True),
], ids=["spinor-3d", "vector-3d", "vector-3d-first", "spinor-2d", "scalar-1d"])
def test_streamed_norms_equal_the_batched_ones(shape, components, complex_, second, rng):
    # inverted one multiplier at a time, every norm is the batched one bit
    # for bit: the tables are summed over the same shape in the same order.
    # Summed multiplier by multiplier, the L^3 sums of some of these fields
    # differ in their last bits, which the cube root often rounds away, so
    # each case draws several fields
    g = Grid(shape)
    for _ in range(8):
        f = random_band_limited(g, rng, components=components, complex_=complex_, kmax=5)
        got = ops.pointwise_norms(g, f, second=second)
        assert astuple(got) == astuple(_batched_pointwise_norms(g, f, second=second))


@pytest.mark.parametrize("shape", [(64,), (16, 12), (8, 6, 10)])
def test_half_spectrum_norms_match_the_full_spectrum(shape, rng):
    # a real field's power sums over the half spectrum, each mode counted
    # with its conjugate partner; white noise loads every mode, including
    # the index 0 and N/2 planes that stand for themselves alone
    g = Grid(shape)
    for f in (rng.standard_normal(shape), rng.standard_normal((3,) + shape)):
        full = f.astype(complex)
        for s in (0.0, 1.0, 2.5, 4.0):
            assert ops.sobolev_norm(g, f, s) == pytest.approx(
                ops.sobolev_norm(g, full, s), rel=1e-13)
        assert ops.spectral_tail_fraction(g, f) == pytest.approx(
            ops.spectral_tail_fraction(g, full), rel=1e-13)


@pytest.mark.parametrize("shape", [(64,), (16, 12), (8, 6, 10)])
def test_half_spectrum_vdot_is_parseval(shape, rng):
    # the inner product of two real fields, taken from their half spectra
    g = Grid(shape)
    f = rng.standard_normal((3,) + g.shape)
    h = rng.standard_normal((3,) + g.shape)
    expected = np.vdot(f, h)
    got = ops.half_spectrum_vdot(g, g.rfft(f), g.rfft(h))
    assert abs(got - expected) <= 1e-13 * np.sqrt(np.vdot(f, f) * np.vdot(h, h))
    assert ops.half_spectrum_vdot(g, g.rfft(f), g.rfft(f)) == pytest.approx(
        np.vdot(f, f), rel=1e-13)
    # a stack takes one inner product per entry, the same numbers
    pair = ops.half_spectrum_vdot(g, g.rfft(f), np.stack([g.rfft(h), g.rfft(f)]))
    assert pair.tolist() == pytest.approx([got, ops.half_spectrum_vdot(g, g.rfft(f), g.rfft(f))],
                                          rel=1e-14)


@pytest.mark.parametrize("shape", [(64,), (16, 12), (12, 8, 10)])
def test_derivative_tables_match_deriv(shape, rng):
    # a complex amplitude's derivatives, streamed one transform pair along
    # each axis, and a real vector's Jacobian d_i f_j, one batched inverse
    g = Grid(shape)
    a = random_band_limited(g, rng, components=2, complex_=True, kmax=3)
    v = random_band_limited(g, rng, components=3, kmax=3)
    grad_a = list(ops.partials(g, a))
    jac = ops.derivative_table(g, g.rfft(v))
    assert len(grad_a) == g.dim and jac.shape == (g.dim, 3) + g.shape
    for i in range(g.dim):
        assert np.max(np.abs(grad_a[i] - ops.deriv(g, a, i))) <= 1e-13 * np.max(np.abs(a))
        for j in range(3):
            assert np.max(np.abs(jac[i, j] - ops.deriv(g, v[j], i))) <= 1e-13 * np.max(np.abs(v))


@pytest.mark.parametrize("shape", [(16, 12), (12, 8, 10)])
def test_one_axis_derivatives_match_deriv_with_nyquist_content(shape, rng):
    # every mode of the spectrum is filled, the Nyquist lines among them:
    # ifft_i(i k_i fft_i(f)) zeroes axis i's Nyquist line as the full
    # spectrum's derivative does, and keeps the other axes' ones
    g = Grid(shape)
    a = rng.standard_normal((2,) + shape) + 1j * rng.standard_normal((2,) + shape)
    assert all(np.min(np.abs(np.take(g.fft(a), n // 2, axis=i - g.dim))) > 0
               for i, n in enumerate(shape))
    for i, d in enumerate(ops.partials(g, a)):
        expected = ops.deriv(g, a, i)
        assert np.max(np.abs(d - expected)) <= 1e-13 * np.max(np.abs(expected))
    vel = rng.standard_normal((3,) + shape)
    expected = ops.advect(g, vel, a)
    assert np.max(np.abs(ops.directional(g, vel, a) - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_one_axis_derivative_on_a_1d_grid_is_the_spectral_one(rng):
    # on a 1d grid the one-axis transform is the spectrum: the derivative
    # is ifft(i k fft(a)), to the bit
    g = Grid((64,))
    a = rng.standard_normal((2, 64)) + 1j * rng.standard_normal((2, 64))
    (d,) = ops.partials(g, a)
    assert np.array_equal(d, g.ifft(1j * k3(g)[0] * g.fft(a)))
