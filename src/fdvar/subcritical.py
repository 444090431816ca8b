"""Gaussian kernel interpolants and the decay of their spectral norms.

For a dataset with distinct points, the interpolant through Gaussian bumps
of width ``sigma`` exists whenever the kernel matrix solves; shrinking
``sigma`` yields a family whose spectral norm scales like ``sigma^(d-alpha)``
up to cross terms, so the norm collapses for ``alpha < d`` and blows up for
``alpha > d`` while interpolating the data exactly throughout.  An
interpolant keeps its width, data and weights; ``evaluate`` sums its bumps,
and the kernel matrix lives only inside ``build_interpolant``.

Each cross term of the norm is one polar radial integral, whose angular
mean of cos is ``cos``, Bessel ``J0`` or ``sinc`` for d = 1, 2, 3.  With the
bracket weight it is ``critical._pair_term``, on the panel rule that also
computes the Gaussian envelope's norm.  With the homogeneous weight it is
``critical._homogeneous_pair_terms``, one closed-form call over all distinct
distances, which falls back to the panel rule where scipy's ``1F1`` is not
trusted; ``_pair_term`` stays the tests' oracle for it.  A brute tensor-grid
quadrature, ``_grid_norm``, is kept as a private oracle for the tests; it
forms the weight ``w(r)`` directly.

``decay_sweep`` is the one loop over interpolant widths; ``fdvar
subcritical`` and ``fdvar verify`` run it.  Its widths pass
``critical.checked_widths``, and norms without a log-log slope, such as the
zero norms of all-zero labels, raise ``ValueError``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import Dataset, _as_points
from .critical import GAUSS_RATE, WEIGHT_BRACKET, checked_weight, checked_widths, log_log_slope
from .critical import _ANGULAR_MEAN, _homogeneous_pair_terms, _norm_args, _pair_term
from .critical import _radial_cutoff
from .errors import QuadratureError, SolverError, positive_real

_INTERPOLATION_TOL = 1e-10
_MAX_GRID_POINTS = 40_000_000


@dataclass(frozen=True)
class GaussianInterpolant:
    """Kernel weights solving ``K g = Y`` for Gaussian bumps of width sigma (``K`` is not kept)."""

    sigma: float
    data: Dataset
    coefficients: np.ndarray
    dominance_margin: float

    def evaluate(self, points) -> np.ndarray:
        """``sum_i g_i exp(-||x - x_i||^2 / (2 sigma^2))`` at each point."""
        pts = _as_points(points, self.data.d)
        squeeze = np.ndim(points) == 0 or (np.ndim(points) == 1 and self.data.d > 1)
        diffs = pts[:, None, :] - self.data.X[None, :, :]
        bumps = np.exp(-np.sum(diffs * diffs, axis=2) / (2.0 * self.sigma**2))
        values = bumps @ self.coefficients
        return float(values[0]) if squeeze else values


def build_interpolant(data: Dataset, sigma: float) -> GaussianInterpolant:
    """Solve the kernel system and record the diagonal-dominance margin.

    A nonpositive margin is only a warning: dominance is sufficient for
    invertibility, not necessary.  A solve whose interpolation residual
    exceeds 1e-10 is treated as failed and reported with advice to shrink
    sigma.
    """
    sigma = positive_real("sigma", sigma)
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
    return GaussianInterpolant(sigma=sigma, data=data, coefficients=g, dominance_margin=margin)


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
        # The weight as w(r) itself, not the panel rule's exponent.
        w = (1.0 + sq if weight == WEIGHT_BRACKET else sq) ** (alpha / 2.0)
        integrand = w * np.exp(-GAUSS_RATE * sigma * sigma * sq) * np.abs(phases) ** 2
        total += float(np.sum(integrand))
    return prefactor * total * spacing**d


def interpolant_sobolev_norm(
    interp: GaussianInterpolant, alpha: float, weight: str = WEIGHT_BRACKET
) -> float:
    """Squared spectral norm of the interpolant's Gaussian-envelope spectrum.

    ``weight`` selects the bracket ``(1+||xi||^2)^(alpha/2)`` or the
    pure-power ``||xi||^alpha`` density.
    """
    d, alpha, sigma = _norm_args(interp.data.d, alpha, interp.sigma)
    X = interp.data.X
    g = interp.coefficients
    if d not in _ANGULAR_MEAN:
        raise ValueError("pairwise quadrature implemented for d <= 3")
    diffs = X[:, None, :] - X[None, :, :]
    distances = np.sqrt(np.sum(diffs * diffs, axis=2))
    # One pair term per distinct distance (to 12 decimals).
    keys, inverse = np.unique(np.round(distances, 12), return_inverse=True)
    if checked_weight(weight) == WEIGHT_BRACKET:
        terms = np.array([_pair_term(d, alpha, sigma, float(key), weight) for key in keys])
    else:
        terms = _homogeneous_pair_terms(d, alpha, sigma, keys)
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(g @ terms[inverse].reshape(distances.shape) @ g)
    if not math.isfinite(norm):  # every term is finite, but large labels can overflow the sum
        where = f"interpolant norm at d={d}, alpha={alpha:g}, sigma={sigma:g}"
        raise QuadratureError(f"{where} is {norm:g}, not a finite double")
    return norm


@dataclass(frozen=True)
class DecaySweep:
    alpha: float
    weight: str
    sigmas: np.ndarray
    norms: np.ndarray
    margins: np.ndarray
    fitted_slope: float


def decay_sweep(data: Dataset, alpha: float, sigmas, weight: str = WEIGHT_BRACKET) -> DecaySweep:
    """Interpolate at each of at least two decreasing widths; track norm and dominance margin."""
    sigmas = checked_widths(sigmas, 2)
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
