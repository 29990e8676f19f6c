"""Solver, convolution, and RNG substream tests.

Expected values are closed-form oracles: linear least squares has an exact
normal-equation solution, convolution of distributions adds variances, and
substream moments follow from the generating distribution.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from photonstat import numerics
from photonstat.numerics import (
    FitError,
    FitProblem,
    FitResult,
    convolve_profiles,
    fit_counts,
    least_squares,
    profile_fwhm,
    rng_substream,
)
from photonstat.tcspc import build_decay_histogram, fit_biexponential


def _linear(params, x):
    return params[0] + params[1] * x


def _exp_decay(params, x):
    return params[0] * np.exp(-params[1] * x)


class TestLeastSquares:
    def test_linear_noiseless_is_exact(self):
        # Oracle: for a linear model the normal equations are solved in one
        # Gauss-Newton step, so noiseless data returns the generating
        # parameters to machine precision.
        x = np.linspace(0.0, 10.0, 40)
        y = _linear([3.5, -1.25], x)
        res = least_squares(FitProblem(model=_linear, x=x, y=y, initial_params=[0.0, 0.0]))
        assert res.converged
        np.testing.assert_allclose(res.params, [3.5, -1.25], rtol=1e-12)

    def test_nonlinear_decay_roundtrip(self):
        x = np.linspace(0.0, 4.0, 60)
        y = _exp_decay([7.0, 2.5], x)
        res = least_squares(
            FitProblem(model=_exp_decay, x=x, y=y, initial_params=[1.0, 0.5])
        )
        assert res.converged
        np.testing.assert_allclose(res.params, [7.0, 2.5], rtol=1e-9)

    @given(
        a=st.floats(-50, 50),
        b=st.floats(-5, 5),
    )
    def test_linear_roundtrip_property(self, a, b):
        x = np.linspace(-3.0, 3.0, 25)
        y = _linear([a, b], x)
        res = least_squares(FitProblem(model=_linear, x=x, y=y, initial_params=[0.0, 0.0]))
        np.testing.assert_allclose(res.params, [a, b], rtol=1e-8, atol=1e-8)

    def test_weights_change_the_solution(self):
        # Two inconsistent points per x; upweighting one side pulls the fit
        # toward it.  The infinitely-weighted limit would interpolate the
        # heavy points, so the weighted fit must sit strictly closer to them.
        x = np.array([0.0, 0.0, 1.0, 1.0])
        y = np.array([0.0, 2.0, 1.0, 3.0])
        flat = least_squares(
            FitProblem(model=_linear, x=x, y=y, initial_params=[0.0, 0.0])
        )
        heavy = least_squares(
            FitProblem(
                model=_linear, x=x, y=y, initial_params=[0.0, 0.0],
                weights=np.array([100.0, 1.0, 100.0, 1.0]),
            )
        )
        assert abs(heavy.params[0] - 0.0) < abs(flat.params[0] - 0.0)

    def test_bounds_are_respected(self):
        x = np.linspace(0.0, 10.0, 30)
        y = _linear([5.0, 2.0], x)
        res = least_squares(
            FitProblem(
                model=_linear, x=x, y=y, initial_params=[0.5, 0.5],
                bounds=[(0.0, 1.0), (None, None)],
            )
        )
        assert 0.0 <= res.params[0] <= 1.0

    def test_singular_problem_raises_with_parameter_index(self):
        def ignores_second(params, x):
            return params[0] * x

        x = np.linspace(1.0, 5.0, 20)
        y = 2.0 * x
        with pytest.raises(FitError, match="parameter 1"):
            least_squares(
                FitProblem(model=ignores_second, x=x, y=y, initial_params=[1.0, 1.0])
            )

    def test_inseparable_parameters_raise_instead_of_a_zero_covariance(self):
        # any split of the sum fits; started on the exact solution, the two
        # Jacobian columns are equal, and a pseudo-inverse scaled by the zero
        # residual reported sigma = 0 for both parameters
        def summed(params, x):
            return (params[0] + params[1]) * x

        x = np.linspace(1.0, 5.0, 20)
        with pytest.raises(FitError, match="singular normal equations"):
            least_squares(FitProblem(model=summed, x=x, y=2.0 * x, initial_params=[1.0, 1.0]))

    def test_fewer_points_than_parameters_rejected(self):
        with pytest.raises(ValueError, match="at least as many data points"):
            least_squares(
                FitProblem(
                    model=_linear,
                    x=np.array([1.0]),
                    y=np.array([2.0]),
                    initial_params=[0.0, 0.0],
                )
            )

    def test_iteration_cap_returns_unconverged(self):
        x = np.linspace(0.0, 4.0, 60)
        y = _exp_decay([7.0, 2.5], x)
        res = least_squares(
            FitProblem(
                model=_exp_decay, x=x, y=y, initial_params=[0.01, 9.0],
                bounds=[(1e-6, None), (1e-6, None)],
                max_iterations=1,
            )
        )
        assert isinstance(res, FitResult)
        assert not res.converged

    def test_covariance_scales_with_noise(self):
        # Doubling the noise quadruples the (unweighted, chi2-scaled)
        # covariance in expectation; check the diagonal is positive and
        # grows.
        rng = np.random.default_rng(0)
        x = np.linspace(0.0, 10.0, 200)
        clean = _linear([1.0, 0.5], x)
        noise = rng.normal(0.0, 1.0, x.size)
        res1 = least_squares(
            FitProblem(model=_linear, x=x, y=clean + 0.1 * noise, initial_params=[0, 0])
        )
        res2 = least_squares(
            FitProblem(model=_linear, x=x, y=clean + 0.2 * noise, initial_params=[0, 0])
        )
        assert np.all(np.diag(res1.covariance) > 0)
        assert np.all(np.diag(res2.covariance) > np.diag(res1.covariance))


class TestCovariance:
    def test_weighted_linear_covariance_is_inverse_normal_matrix(self):
        # Oracle: for a weighted linear model y = X p the parameter
        # covariance is (X^T W X)^-1 exactly, independent of the data.
        rng = np.random.default_rng(1)
        x = np.linspace(0.0, 10.0, 50)
        w = rng.uniform(0.5, 4.0, x.size)
        y = _linear([2.0, -0.7], x) + rng.normal(0.0, 1.0, x.size) / np.sqrt(w)
        res = least_squares(
            FitProblem(model=_linear, x=x, y=y, initial_params=[0.0, 0.0], weights=w)
        )
        design = np.column_stack([np.ones_like(x), x])
        expected = np.linalg.inv(design.T @ (w[:, None] * design))
        np.testing.assert_allclose(res.covariance, expected, rtol=1e-6)


def _constant(params, x):
    return np.full(x.size, params[0])


class TestFitCounts:
    def test_constant_model_refit_returns_the_mean(self):
        # Oracle: raw-count weights 1/y make the first pass the harmonic
        # mean of the counts, below the arithmetic mean; the refit's weights
        # 1/max(c, 1) are uniform, so it returns the arithmetic mean exactly.
        y = rng_substream(31, 0).poisson(5.0, 2000).astype(float)
        problem = FitProblem(model=_constant, x=np.arange(y.size), y=y, initial_params=[1.0],
                             weights=1.0 / np.maximum(y, 1.0))
        first = least_squares(problem)
        result = fit_counts(problem)
        assert result.converged
        assert result.params[0] == pytest.approx(y.mean(), rel=1e-9)
        assert first.params[0] < 0.9 * y.mean()

    @staticmethod
    def _refit_raises(monkeypatch):
        solve = numerics.least_squares
        calls = []

        def flaky(problem):
            calls.append(problem)
            if len(calls) == 2:
                raise FitError("refit failed")
            return solve(problem)

        monkeypatch.setattr(numerics, "least_squares", flaky)
        return calls

    def test_refit_error_propagates(self, monkeypatch):
        calls = self._refit_raises(monkeypatch)
        x = np.linspace(0.0, 4.0, 60)
        with pytest.raises(FitError, match="refit failed"):
            fit_counts(FitProblem(model=_exp_decay, x=x, y=_exp_decay([7.0, 2.5], x),
                                  initial_params=[1.0, 0.5]))
        assert len(calls) == 2

    def test_failed_decay_refit_never_returns_the_first_pass(self, monkeypatch):
        # without the failure this histogram fits as a bi-exponential; a
        # failed refit sends it down the single-exponential route instead
        g = rng_substream(21, 0)
        slow = g.random(200_000) < 0.1
        t = np.where(slow, g.exponential(30_000.0, slow.size), g.exponential(1_500.0, slow.size))
        hist = build_decay_histogram(t, bin_width=100.0, window=200_000.0)
        assert fit_biexponential(hist).model == "biexponential"
        calls = self._refit_raises(monkeypatch)
        fit = fit_biexponential(hist)
        assert fit.model == "single_exponential"
        assert len(calls) == 4


def _gauss(x, fwhm):
    sigma = fwhm / np.sqrt(8.0 * np.log(2.0))
    return np.exp(-0.5 * (x / sigma) ** 2) / (sigma * np.sqrt(2.0 * np.pi))


class TestConvolve:
    def test_delta_is_identity(self):
        x = np.linspace(-20.0, 20.0, 1601)
        f = _gauss(x, 3.0)
        delta = np.zeros_like(x)
        delta[np.argmin(np.abs(x))] = 1.0 / (x[1] - x[0])
        out = convolve_profiles(x, f, delta)
        np.testing.assert_allclose(out, f, atol=1e-9)

    def test_gaussian_widths_add_in_quadrature(self):
        # Var(f * g) = Var(f) + Var(g); for Gaussians the FWHM obeys
        # w^2 = w1^2 + w2^2.
        x = np.linspace(-30.0, 30.0, 4001)
        out = convolve_profiles(x, _gauss(x, 2.0), _gauss(x, 1.5))
        assert profile_fwhm(x, out) == pytest.approx(np.hypot(2.0, 1.5), rel=1e-3)

    def test_commutative(self):
        x = np.linspace(-25.0, 25.0, 2001)
        f = _gauss(x, 2.0)
        g = _gauss(x, 4.0)
        np.testing.assert_allclose(
            convolve_profiles(x, f, g), convolve_profiles(x, g, f), atol=1e-12
        )

    def test_variance_additivity(self):
        x = np.linspace(-40.0, 40.0, 4001)
        f = _gauss(x, 3.0)
        g = _gauss(x, 5.0)
        out = convolve_profiles(x, f, g)
        dx = x[1] - x[0]

        def var(y):
            m = np.sum(x * y) * dx
            return np.sum((x - m) ** 2 * y) * dx

        assert var(out) == pytest.approx(var(f) + var(g), rel=1e-6)

    def test_grid_must_contain_zero(self):
        x = np.linspace(0.05, 10.0, 100)  # no t=0 node
        y = np.ones_like(x)
        with pytest.raises(ValueError):
            convolve_profiles(x, y, y)

    def test_nonuniform_grid_rejected(self):
        x = np.array([-2.0, -1.0, 0.0, 1.5, 2.0])
        y = np.ones_like(x)
        with pytest.raises(ValueError):
            convolve_profiles(x, y, y)

    def test_truncated_support_warns(self):
        x = np.linspace(-4.0, 4.0, 401)
        f = _gauss(x, 6.0)  # far from decayed at the edges
        with pytest.warns(RuntimeWarning):
            convolve_profiles(x, f, f)


def _fftconvolve_reference(x, f, g):
    """convolve_profiles through scipy's fftconvolve, imported here only."""
    from scipy.signal import fftconvolve

    dx = x[1] - x[0]
    i0 = int(round(-x[0] / dx))
    return (fftconvolve(f, g, mode="full") * dx)[i0 : i0 + x.size]


class TestConvolveMatchesFftconvolve:
    def test_c7_grids_bit_for_bit(self):
        from photonstat.spectral import gaussian_profile, lorentzian_profile

        x = np.linspace(-60.0, 60.0, 8001)
        delta = np.zeros_like(x)
        delta[x.size // 2] = 1.0 / (x[1] - x[0])
        pairs = [
            (lorentzian_profile(x, 1.0), lorentzian_profile(x, 1.3)),
            (gaussian_profile(x, 1.0), gaussian_profile(x, 1.3)),
            (delta, gaussian_profile(x, 2.0)),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # Lorentzian tails
            for f, g in pairs:
                np.testing.assert_array_equal(convolve_profiles(x, f, g),
                                              _fftconvolve_reference(x, f, g))

    @given(n=st.integers(2, 3000), zero=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_random_lengths_bit_for_bit(self, n, zero, seed):
        # odd and even lengths, t = 0 anywhere on the grid
        x = (np.arange(n) - int(zero * (n - 1))) * 0.25
        rng = np.random.default_rng(seed)
        f, g = rng.random(n), rng.random(n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # untapered edges
            np.testing.assert_array_equal(convolve_profiles(x, f, g),
                                          _fftconvolve_reference(x, f, g))


class TestProfileFwhm:
    def test_gaussian_fwhm_exact(self):
        x = np.linspace(-20.0, 20.0, 8001)
        assert profile_fwhm(x, _gauss(x, 4.0)) == pytest.approx(4.0, rel=1e-5)

    def test_never_crossing_half_raises(self):
        x = np.linspace(-1.0, 1.0, 101)
        y = np.ones_like(x)
        with pytest.raises(ValueError):
            profile_fwhm(x, y)


class TestSubStream:
    """rng_substream's keyed Philox generators."""

    def test_is_numpys_generator(self):
        assert isinstance(rng_substream(5, 5), np.random.Generator)

    def test_same_key_reproduces_exactly(self):
        a = rng_substream(42, 7).random(1000)
        b = rng_substream(42, 7).random(1000)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = rng_substream(42, 0).random(1000)
        b = rng_substream(42, 1).random(1000)
        assert not np.array_equal(a, b)

    def test_exponential_mean(self):
        # mean of Exp(1.5) over n=1e6 draws; SE = 1.5/sqrt(n) = 0.0015,
        # 5 sigma = 0.0075
        draws = rng_substream(1, 2).exponential(1.5, 1_000_000)
        assert abs(draws.mean() - 1.5) < 0.0075

    def test_uniform_support(self):
        u = rng_substream(3, 4).random(100_000)
        assert u.min() >= 0.0 and u.max() < 1.0
        # mean 0.5, SE = 1/sqrt(12 n) ~ 0.00091; allow 5 sigma
        assert abs(u.mean() - 0.5) < 0.0046

    def test_streams_uncorrelated(self):
        n = 200_000
        a = rng_substream(9, 0).normal(size=n)
        b = rng_substream(9, 1).normal(size=n)
        # sample correlation SE = 1/sqrt(n); require < 5 sigma
        assert abs(np.corrcoef(a, b)[0, 1]) < 5.0 / np.sqrt(n)

    def test_poisson_moments(self):
        g = rng_substream(11, 0)
        p = g.poisson(4.0, 400_000)
        assert abs(p.mean() - 4.0) < 5.0 * np.sqrt(4.0 / 400_000)

    def test_scalar_draws(self):
        g = rng_substream(5, 5)
        assert isinstance(g.random(), float)
        assert isinstance(g.exponential(2.0), float)
