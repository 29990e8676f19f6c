"""Shared numerics: bounded least squares, grid convolution, reproducible RNG substreams.

Everything stochastic in this package draws randomness exclusively through
:func:`rng_substream`, numpy's Philox ``Generator`` keyed by (seed,
stream_index), so that pair pins every simulated byte.  The fitter is
scipy's trust-region reflective least squares behind a small problem/result
interface that adds the package's error and covariance conventions; it is
deterministic for fixed inputs and never consumes randomness.
:func:`fit_counts` is the one weighting policy for Poisson count histograms
(decay, correlation dip, etalon scan): a fit as posed, then a refit with
weights from the fitted model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence
import warnings

import numpy as np

__all__ = [
    "FitError",
    "FitProblem",
    "FitResult",
    "least_squares",
    "fit_counts",
    "convolve_profiles",
    "profile_fwhm",
    "rng_substream",
    "RNG_ALGORITHM",
    "FWHM_TO_SIGMA",
]

RNG_ALGORITHM = "philox4x64"

# Gaussian sigma per FWHM, 1 / (2 sqrt(2 ln 2)): the exact factor, since the
# rounded 1 / 2.3548 is too coarse for the exact Voigt evaluator
FWHM_TO_SIGMA = 1.0 / math.sqrt(8.0 * math.log(2.0))

_MASK64 = (1 << 64) - 1


class FitError(RuntimeError):
    """Raised when a least-squares problem cannot be solved (singular normal
    equations, degenerate data, or an explicitly fatal non-convergence)."""


@dataclass(frozen=True)
class FitProblem:
    """A weighted nonlinear least-squares problem.

    Parameters
    ----------
    model : callable
        ``model(params, x) -> y`` evaluated on the full abscissa array.
    x, y : ndarray
        Data.  ``x`` is passed through to the model untouched, so it can be
        any object the model understands.
    initial_params : sequence of float
        Starting point.  Clipped into bounds before the first iteration.
    bounds : sequence of (lo, hi), optional
        Box bounds per parameter, ``None`` for unbounded.
    weights : ndarray, optional
        Per-point weights w_i (interpreted as 1/variance).  ``None`` means
        unweighted.
    max_iterations : int
        Cap on model evaluations (finite-difference Jacobian evaluations
        excluded).  Hitting it returns the last iterate with
        ``converged=False`` rather than raising.
    """

    model: Callable[[np.ndarray, object], np.ndarray]
    x: object
    y: np.ndarray
    initial_params: Sequence[float]
    bounds: Optional[Sequence[tuple[float, float]]] = None
    weights: Optional[np.ndarray] = None
    max_iterations: int = 200


@dataclass(frozen=True)
class FitResult:
    """Outcome of :func:`least_squares`.

    ``covariance`` is (J^T W J)^-1, scaled by the reduced chi-square for
    unweighted problems; it is symmetrized, and meaningful only when
    ``converged`` is true.  ``residual_norm`` is the weighted L2 norm of the
    final residual.  ``iterations`` is the solver's count of model
    evaluations.
    """

    params: np.ndarray
    covariance: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool
    message: str = ""


def _problem_bounds(problem: FitProblem, n: int) -> tuple[np.ndarray, np.ndarray]:
    if problem.bounds is None:
        return np.full(n, -np.inf), np.full(n, np.inf)
    lo = np.array([b[0] if b[0] is not None else -np.inf for b in problem.bounds], float)
    hi = np.array([b[1] if b[1] is not None else np.inf for b in problem.bounds], float)
    if lo.size != n or np.any(lo >= hi):
        raise ValueError("bounds must be one (lo, hi) pair per parameter with lo < hi")
    return lo, hi


def least_squares(problem: FitProblem) -> FitResult:
    """Solve a weighted, box-bounded nonlinear least-squares problem.

    A thin wrapper over :func:`scipy.optimize.least_squares` (trust-region
    reflective, Jacobian-scaled variables, forward-difference Jacobian),
    with the solver's function-evaluation count as the iteration cap and a
    relative parameter-change ``xtol`` of 1e-8.  Deterministic for fixed
    inputs.

    Raises
    ------
    FitError
        If the model is not finite at the start, or if a parameter has no
        effect on the residual at the solution (zero Jacobian column), which
        leaves the normal equations singular.
    """
    y = np.asarray(problem.y, dtype=float)
    p = np.asarray(problem.initial_params, dtype=float).copy()
    if p.ndim != 1:
        raise ValueError("initial_params must be one-dimensional")
    if y.size < p.size:
        raise ValueError(
            f"need at least as many data points as parameters ({y.size} < {p.size})"
        )
    lo, hi = _problem_bounds(problem, p.size)
    p = np.clip(p, lo, hi)

    if problem.weights is None:
        sqw = np.ones_like(y)
    else:
        w = np.asarray(problem.weights, dtype=float)
        if w.shape != y.shape:
            raise ValueError("weights must match y in shape")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        sqw = np.sqrt(w)

    def residual(q: np.ndarray) -> np.ndarray:
        return sqw * (np.asarray(problem.model(q, problem.x), dtype=float) - y)

    if not np.all(np.isfinite(residual(p))):
        raise FitError("model is not finite at the initial parameters")
    # imported here, so that commands that never fit never load scipy.optimize
    from scipy.optimize import least_squares as scipy_least_squares

    sol = scipy_least_squares(
        residual, p, bounds=(lo, hi), method="trf", x_scale="jac",
        max_nfev=problem.max_iterations, xtol=1e-8,
    )

    jac = sol.jac
    if not np.all(np.isfinite(jac)):
        raise FitError("Jacobian is not finite at the solution")
    a = jac.T @ jac
    dead = np.diag(a) <= 0.0
    if np.any(dead):
        idx = int(np.nonzero(dead)[0][0])
        raise FitError(
            f"singular normal equations: parameter {idx} has no effect on the residual"
        )
    try:
        cov = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(a)
    cost = float(sol.fun @ sol.fun)
    if problem.weights is None:
        dof = max(y.size - p.size, 1)
        cov = cov * (cost / dof)
    cov = 0.5 * (cov + cov.T)
    return FitResult(
        params=sol.x,
        covariance=cov,
        residual_norm=float(np.sqrt(cost)),
        iterations=int(sol.nfev),
        converged=bool(sol.status > 0),
        message=sol.message,
    )


def fit_counts(problem: FitProblem) -> FitResult:
    """Fit a model to Poisson counts: ``problem`` as posed, whose ``weights``
    serve the first pass, then a refit from that solution with weights
    1/max(model, 1) of the first fit.  Model weights remove the bias that
    raw-count weights (or none) leave in sparse or shallow bins, where a
    downward fluctuation earns inflated weight.  A FitError from either pass
    propagates.
    """
    first = least_squares(problem)
    weights = 1.0 / np.maximum(problem.model(first.params, problem.x), 1.0)
    return least_squares(replace(problem, initial_params=first.params, weights=weights))


def _grid_spacing(x: np.ndarray) -> float:
    dx = np.diff(x)
    if dx.size == 0 or dx[0] <= 0:
        raise ValueError("grid must be increasing with at least two points")
    if np.any(np.abs(dx - dx[0]) > 1e-9 * abs(dx[0])):
        raise ValueError("grid must be uniform")
    return float(dx[0])


def convolve_profiles(x: np.ndarray, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Convolve two profiles sampled on a common uniform grid.

    The grid must contain t = 0 on a node; the result is returned on the same
    grid, normalized so that the area (trapezoid rule) of the output equals
    the product of the input areas.  A delta profile (a single nonzero node at
    t = 0 with value 1/dx) is therefore an exact identity element.

    Profiles are expected to decay below 1e-6 of their peak at the grid edges;
    if they do not, the truncated tails bias the result and a warning is
    emitted.
    """
    x = np.asarray(x, dtype=float)
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if not (x.shape == f.shape == g.shape) or x.ndim != 1:
        raise ValueError("x, f, g must be one-dimensional arrays of equal length")
    dx = _grid_spacing(x)
    i0 = int(round(-x[0] / dx))
    if i0 < 0 or i0 >= x.size or abs(x[0] + i0 * dx) > 1e-6 * dx:
        raise ValueError("grid must contain t = 0 on a node")
    for name, prof in (("f", f), ("g", g)):
        peak = np.max(np.abs(prof))
        if peak > 0 and max(abs(prof[0]), abs(prof[-1])) > 1e-6 * peak:
            warnings.warn(
                f"profile {name} does not decay below 1e-6 of its peak at the grid "
                "edges; the convolution truncates its tails",
                RuntimeWarning,
                stacklevel=2,
            )
    # imported here, so that commands that never convolve never load scipy.fft
    from scipy import fft

    # fftconvolve(f, g, mode="full")'s steps, so its bits, on scipy.fft; all
    # 2n - 1 points, so the window from t = 0 is whole
    n = x.size
    size = fft.next_fast_len(2 * n - 1, True)
    return fft.irfft(fft.rfft(f, size) * fft.rfft(g, size), size)[i0 : i0 + n] * dx


def profile_fwhm(x: np.ndarray, y: np.ndarray) -> float:
    """Full width at half maximum of a sampled single-peaked profile, by
    linear interpolation of the half-height crossings."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    k = int(np.argmax(y))
    half = y[k] / 2.0
    left = np.nonzero(y[: k + 1] < half)[0]
    right = np.nonzero(y[k:] < half)[0]
    if left.size == 0 or right.size == 0:
        raise ValueError("profile does not fall below half maximum on both sides")
    i = left[-1]
    xl = x[i] + (x[i + 1] - x[i]) * (half - y[i]) / (y[i + 1] - y[i])
    j = k + right[0]
    xr = x[j - 1] + (x[j] - x[j - 1]) * (half - y[j - 1]) / (y[j] - y[j - 1])
    return float(xr - xl)


def rng_substream(seed: int, stream_index: int) -> np.random.Generator:
    """Return numpy's Philox generator keyed by (seed, stream_index).

    Philox is counter-based, so disjoint stream indices under one seed give
    independent streams, and identical arguments give bitwise-identical
    draw sequences regardless of scheduling.  All randomness in this
    package flows through here.
    """
    key = np.array([int(seed) & _MASK64, int(stream_index) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
