"""Gaussian kernel interpolants and the decay of their spectral norms.

For a dataset with distinct points, the interpolant through Gaussian bumps
of width ``sigma`` exists whenever the kernel matrix solves; shrinking
``sigma`` yields a family whose spectral norm scales like ``sigma^(d-alpha)``
up to cross terms, so the norm collapses for ``alpha < d`` and blows up for
``alpha > d`` while interpolating the data exactly throughout.

Each cross term of the norm is one polar radial integral, whose angular
mean of cos is ``cos``, Bessel ``J0`` or ``sinc`` for d = 1, 2, 3.  A brute
tensor-grid quadrature, ``_grid_norm``, is kept as a private oracle for the
tests.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import j0

from .core import Dataset, _as_points
from .critical import (
    GAUSS_RATE,
    WEIGHT_BRACKET,
    WEIGHT_HOMOGENEOUS,
    log_log_slope,
    sphere_area,
)
from .errors import QuadratureError, SolverError

_INTERPOLATION_TOL = 1e-10
_GL_NODES, _GL_WEIGHTS = leggauss(16)
_MAX_GRID_POINTS = 40_000_000
_MAX_PANELS = 50_000
# Edges of the first panel's split, as fractions of its width: 8^-10 .. 8^-1.
_ORIGIN_GRADING = 8.0 ** -np.arange(10, 0, -1.0)


@dataclass(frozen=True)
class GaussianInterpolant:
    """Kernel weights solving ``K g = Y`` for Gaussian bumps of width sigma."""

    sigma: float
    data: Dataset
    coefficients: np.ndarray
    kernel_matrix: np.ndarray
    dominance_margin: float

    def evaluate(self, points) -> np.ndarray:
        return evaluate_interpolant(self, points)


def build_interpolant(data: Dataset, sigma: float) -> GaussianInterpolant:
    """Solve the kernel system and record the diagonal-dominance margin.

    A nonpositive margin is only a warning: dominance is sufficient for
    invertibility, not necessary.  A solve whose interpolation residual
    exceeds 1e-10 is treated as failed and reported with advice to shrink
    sigma.
    """
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError("sigma must be positive")
    diffs = data.X[:, None, :] - data.X[None, :, :]
    kernel = np.exp(-np.sum(diffs * diffs, axis=2) / (2.0 * sigma * sigma))
    margin = float(np.min(2.0 - kernel.sum(axis=1)))
    try:
        g = np.linalg.solve(kernel, data.Y)
    except np.linalg.LinAlgError as exc:
        raise SolverError(
            f"kernel matrix singular at sigma={sigma:g}; try a smaller sigma"
        ) from exc
    residual = float(np.max(np.abs(kernel @ g - data.Y)))
    if residual > _INTERPOLATION_TOL * max(1.0, float(np.max(np.abs(data.Y)))):
        raise SolverError(
            f"kernel solve at sigma={sigma:g} leaves interpolation residual "
            f"{residual:.3e}; try a smaller sigma"
        )
    if margin <= 0:
        warnings.warn(
            f"kernel matrix not diagonally dominant at sigma={sigma:g} "
            f"(margin {margin:.3e}); solution accepted on residual check",
            stacklevel=2,
        )
    return GaussianInterpolant(
        sigma=float(sigma),
        data=data,
        coefficients=g,
        kernel_matrix=kernel,
        dominance_margin=margin,
    )


def evaluate_interpolant(interp: GaussianInterpolant, points) -> np.ndarray:
    """``sum_i g_i exp(-||x - x_i||^2 / (2 sigma^2))`` at each point."""
    pts = _as_points(points, interp.data.d)
    squeeze = np.ndim(points) == 0 or (np.ndim(points) == 1 and interp.data.d > 1)
    diffs = pts[:, None, :] - interp.data.X[None, :, :]
    bumps = np.exp(-np.sum(diffs * diffs, axis=2) / (2.0 * interp.sigma**2))
    values = bumps @ interp.coefficients
    return float(values[0]) if squeeze else values


def _weight_function(alpha: float, weight: str):
    if weight == WEIGHT_BRACKET:
        return lambda r: (1.0 + r * r) ** (alpha / 2.0)
    if weight == WEIGHT_HOMOGENEOUS:
        return lambda r: r**alpha
    raise ValueError(f"unknown weight {weight!r}")


def _radial_cutoff(d: int, alpha: float, sigma: float) -> float:
    # Gaussian tail exp(-4 pi^2 sigma^2 R^2) below ~1e-26 even after the
    # polynomial weight growth.
    return math.sqrt(60.0 + 10.0 * (alpha + d)) / (2.0 * math.pi * sigma)


def _panel_integral(fn, upper: float, oscillation: float, sigma: float) -> float:
    """Composite 16-point Gauss-Legendre with panels resolving the fastest scale.

    The first panel is split geometrically toward the origin, where the
    homogeneous weight ``r^alpha`` has a kink and the bracket weight varies on
    the unit scale.
    """
    scales = [upper / 8.0, 1.0 / (4.0 * math.pi * sigma)]
    if oscillation > 0:
        scales.append(1.0 / (4.0 * oscillation))
    panel = min(scales)
    n_panels = int(math.ceil(upper / panel))
    if n_panels > _MAX_PANELS:
        raise QuadratureError(
            f"pairwise radial integral at distance {oscillation:g}, sigma={sigma:g} needs "
            f"{n_panels} panels, over the limit of {_MAX_PANELS}"
        )
    edges = np.linspace(0.0, upper, n_panels + 1)
    edges = np.concatenate([[0.0], edges[1] * _ORIGIN_GRADING, edges[1:]])
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    r = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return float(np.sum(w * fn(r)))


# Angular mean of ``cos(t u . e)`` over unit vectors ``u`` in R^d.
_ANGULAR_MEAN = {
    1: np.cos,
    2: j0,
    3: lambda t: np.sinc(t / np.pi),
}


def _pair_term(d: int, alpha: float, sigma: float, distance: float, weight: str) -> float:
    """``integral w(||xi||) psi_sigma(xi)^2 cos(2 pi xi . v) dxi`` for ``||v|| = distance``.

    In polar form it is ``(2 pi)^d sigma^(2d) omega_d * integral_0^R w(r)
    exp(-4 pi^2 sigma^2 r^2) r^(d-1) m_d(2 pi r distance) dr``, with ``m_d``
    the angular mean of cos; ``m_d(0) = 1`` makes distance 0 no special case.
    """
    wf = _weight_function(alpha, weight)
    mean = _ANGULAR_MEAN[d]
    radial = _panel_integral(
        lambda r: wf(r)
        * np.exp(-GAUSS_RATE * sigma * sigma * r * r)
        * r ** (d - 1)
        * mean(2.0 * np.pi * distance * r),
        _radial_cutoff(d, alpha, sigma),
        distance,
        sigma,
    )
    return (2.0 * math.pi) ** d * sigma ** (2 * d) * sphere_area(d) * radial


def _grid_norm(interp: GaussianInterpolant, alpha: float, weight: str) -> float:
    d = interp.data.d
    if d > 3:
        raise ValueError("grid quadrature implemented for d <= 3")
    sigma = interp.sigma
    extent = _radial_cutoff(d, alpha, sigma)
    max_dist = float(np.max(np.abs(interp.data.X))) * 2.0
    spacing = 1.0 / (8.0 * (max_dist + 1.0))
    n_half = int(math.ceil(extent / spacing))
    axis = np.arange(-n_half, n_half + 1) * spacing
    if axis.size**d > _MAX_GRID_POINTS:
        raise QuadratureError(
            f"grid quadrature needs {axis.size**d:.2e} points, over the limit of "
            f"{_MAX_GRID_POINTS:.0e}; use a wider sigma or points nearer the origin"
        )
    wf = _weight_function(alpha, weight)
    prefactor = (2.0 * math.pi) ** d * sigma ** (2 * d)
    total = 0.0
    # Chunk along the first axis, about 2**18 grid points at a time: the
    # temporaries take some 30 words per grid point.
    chunk = max(1, 2**18 // axis.size ** (d - 1))
    for lo in range(0, axis.size, chunk):
        first = axis[lo : lo + chunk]
        mesh = np.meshgrid(first, *([axis] * (d - 1)), indexing="ij")
        xi = np.stack([m.ravel() for m in mesh], axis=1)
        sq = np.sum(xi * xi, axis=1)
        phases = np.exp(-2j * np.pi * (xi @ interp.data.X.T)) @ interp.coefficients
        integrand = wf(np.sqrt(sq)) * np.exp(-GAUSS_RATE * sigma * sigma * sq) * np.abs(phases) ** 2
        total += float(np.sum(integrand))
    return prefactor * total * spacing**d


def interpolant_sobolev_norm(
    interp: GaussianInterpolant, alpha: float, weight: str = WEIGHT_BRACKET
) -> float:
    """Squared spectral norm of the interpolant's Gaussian-envelope spectrum.

    ``weight`` selects the bracket ``(1+||xi||^2)^(alpha/2)`` or the
    pure-power ``||xi||^alpha`` density.
    """
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError("alpha must be positive")
    X = interp.data.X
    g = interp.coefficients
    d = interp.data.d
    if d not in _ANGULAR_MEAN:
        raise ValueError("pairwise quadrature implemented for d <= 3")
    diffs = X[:, None, :] - X[None, :, :]
    distances = np.sqrt(np.sum(diffs * diffs, axis=2))
    # One radial integral per distinct distance (to 12 decimals).
    keys, inverse = np.unique(np.round(distances, 12), return_inverse=True)
    terms = np.array([_pair_term(d, alpha, interp.sigma, float(key), weight) for key in keys])
    return float(g @ terms[inverse].reshape(distances.shape) @ g)


@dataclass(frozen=True)
class DecaySweep:
    alpha: float
    weight: str
    sigmas: np.ndarray
    norms: np.ndarray
    margins: np.ndarray
    fitted_slope: float


def decay_sweep(data: Dataset, alpha: float, sigmas, weight: str = WEIGHT_BRACKET) -> DecaySweep:
    """Interpolate at each sigma and track norm and dominance margin."""
    sigmas = np.asarray(sigmas, dtype=float)
    if sigmas.size < 2:
        raise ValueError("need at least 2 sigma values")
    if np.any(np.diff(sigmas) >= 0) or np.any(sigmas <= 0):
        raise ValueError("sigmas must be strictly decreasing and positive")
    norms = []
    margins = []
    for sigma in sigmas:
        interp = build_interpolant(data, float(sigma))
        norms.append(interpolant_sobolev_norm(interp, alpha, weight=weight))
        margins.append(interp.dominance_margin)
    norms = np.asarray(norms)
    return DecaySweep(
        alpha=float(alpha),
        weight=weight,
        sigmas=sigmas,
        norms=norms,
        margins=np.asarray(margins),
        fitted_slope=log_log_slope(sigmas, norms),
    )
