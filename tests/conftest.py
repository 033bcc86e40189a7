import collections
import inspect
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from poisswell.grid import Grid


@pytest.fixture
def grid1d():
    return Grid((64,))


@pytest.fixture
def grid2d():
    return Grid((32, 32))


@pytest.fixture
def grid3d():
    return Grid((16, 16, 16))


def random_band_limited(grid, rng, components=None, kmax=4, amplitude=1.0, complex_=False):
    """Smooth random field: a few low Fourier modes with decaying weights."""
    shape = grid.shape if components is None else (components,) + grid.shape
    fh = np.zeros(shape, dtype=complex)
    keep = np.ones(grid.shape, dtype=bool)
    for i, n in enumerate(grid.shape):
        idx = np.rint(np.fft.fftfreq(n) * n).reshape([-1 if j == i else 1 for j in range(grid.dim)])
        keep &= np.abs(idx) <= kmax
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    fh[..., keep] = coeffs[..., keep]
    f = grid.ifft(fh)
    if not complex_:
        f = f.real
    scale = np.max(np.abs(f))
    if scale > 0:
        f = f * (amplitude / scale)
    return f


class Samples(list):
    """The ``(record, state, pots)`` of each sample of a run, as a ``keep`` collects them."""

    @property
    def states(self):
        return [state for _, state, _ in self]

    @property
    def potentials(self):
        return [pots for _, _, pots in self]


def sampled_run(solver, init, n_samples=None):
    """
    ``solver.run(init, n_samples)`` with a ``keep`` that collects every
    sample: the run and its :class:`Samples`.
    """
    samples = Samples()
    return solver.run(init, n_samples, keep=lambda *sample: samples.append(sample)), samples


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def traced_peak():
    """
    ``measure(call, *args, **kwargs)`` returns the call's result and the
    peak of the memory tracemalloc traced during the call, in bytes above
    what was traced when it started.  numpy reports its array buffers to
    tracemalloc, so the peak counts the arrays the call holds at once.
    """
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()

    def measure(call, *args, **kwargs):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1] - base

    yield measure
    if started:
        tracemalloc.stop()


class TransformCount(collections.Counter):
    """
    Calls of each ``Grid`` transform, by method name; ``components`` counts
    the fields they transformed (the leading components of each argument).
    Both count full transforms: a transform along one axis of a d-dimensional
    grid (``axis=``) counts as ``1/d`` of a call and of each of its
    components, exactly (a :class:`~fractions.Fraction`).
    """

    def __init__(self):
        super().__init__()
        self.components = collections.Counter()

    def clear(self):
        super().clear()
        self.components.clear()


@pytest.fixture
def transform_count(monkeypatch):
    """A :class:`TransformCount` of every ``Grid`` transform made."""
    counts = TransformCount()
    for name in ("fft", "ifft", "ifft_real", "rfft", "irfft"):
        method = getattr(Grid, name)

        def counted(self, f, *args, _method=method, _name=name,
                    _signature=inspect.signature(method), **kwargs):
            axis = _signature.bind(self, f, *args, **kwargs).arguments.get("axis")
            share = 1 if axis is None else Fraction(1, self.dim)
            counts[_name] += share
            counts.components[_name] += share * int(np.prod(np.shape(f)[: np.ndim(f) - self.dim]))
            return _method(self, f, *args, **kwargs)

        monkeypatch.setattr(Grid, name, counted)
    return counts


class EllipticSpy:
    """
    What the elliptic solves of a run saw: ``finite`` holds, per Poisson or
    screened solve, whether its density was finite.  ``fail_at = n`` makes
    the n-th screened solve (1 is a run's initial one) raise NonConvergence.
    """

    def __init__(self):
        self.finite = []
        self.screened = 0
        self.fail_at = None


@pytest.fixture
def elliptic_spy(monkeypatch):
    """An :class:`EllipticSpy` on every Poisson and screened solve made."""
    from poisswell import pauli_solver, states
    from poisswell.errors import NonConvergence

    spy = EllipticSpy()
    poisson, screened = states.solve_poisson_neutral, states.solve_screened_vector

    def spied_poisson(grid, rho, *args, **kwargs):
        spy.finite.append(bool(np.all(np.isfinite(rho))))
        return poisson(grid, rho, *args, **kwargs)

    def spied_screened(grid, rhs, rho, *args, **kwargs):
        spy.finite.append(bool(np.all(np.isfinite(rho))))
        spy.screened += 1
        if spy.screened == spy.fail_at:
            raise NonConvergence("screened solve forced to fail")
        return screened(grid, rhs, rho, *args, **kwargs)

    for module in (states, pauli_solver):
        monkeypatch.setattr(module, "solve_poisson_neutral", spied_poisson)
    monkeypatch.setattr(states, "solve_screened_vector", spied_screened)
    return spy


@pytest.fixture
def cg_iterations(monkeypatch):
    """
    A list that receives, per screened solve made, in call order, its
    conjugate-gradient work counted as the inverse transforms made inside
    it: one per iteration, plus one per true-residual test that follows
    iterations.  A cold solve of n iterations counts n + 1; a guess that
    already meets the tolerance counts 0.
    """
    from poisswell import states

    counts, inside = [], []
    irfft, solve = Grid.irfft, states.solve_screened_vector

    def counted_irfft(self, fh, *args, **kwargs):
        if inside:
            inside[-1] += 1
        return irfft(self, fh, *args, **kwargs)

    def counted_solve(*args, **kwargs):
        inside.append(0)
        try:
            return solve(*args, **kwargs)
        finally:
            counts.append(inside.pop())

    monkeypatch.setattr(Grid, "irfft", counted_irfft)
    monkeypatch.setattr(states, "solve_screened_vector", counted_solve)
    return counts
