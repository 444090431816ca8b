"""Domain types and primitive operations on band-limited spectra."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import FrequencyGrid

HERMITIAN_TOL = 1e-12


def japanese_bracket(xi) -> float:
    """``(1 + ||xi||^2)^(1/2)`` for a single frequency point ``xi``."""
    xi = np.asarray(xi, dtype=float)
    if not np.all(np.isfinite(xi)):
        raise ValueError("frequency must be finite")
    return float(np.sqrt(1.0 + np.sum(xi * xi)))


@dataclass(frozen=True)
class Dataset:
    """Sample matrix ``X`` (n points in R^d) and label vector ``Y``.

    A 1-D ``X`` is interpreted as n points in one dimension.  Duplicate
    sample points are rejected: they make the interpolation constraints
    redundant and the Gaussian kernel system singular.
    """

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        if X.ndim == 1:
            X = X[:, None]
        if X.ndim != 2:
            raise ValueError("X must be an n-by-d matrix")
        Y = np.asarray(self.Y, dtype=float).reshape(-1)
        if X.shape[0] == 0:
            raise ValueError("dataset empty")
        if Y.shape[0] != X.shape[0]:
            raise ValueError(f"{X.shape[0]} sample points but {Y.shape[0]} labels")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
            raise ValueError("dataset entries must be finite")
        if np.unique(X, axis=0).shape[0] != X.shape[0]:
            raise ValueError("duplicate sample points in X")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class SpectralCoefficients:
    """Complex coefficient vector aligned with a grid's flat indexing."""

    values: np.ndarray
    grid: FrequencyGrid
    hermitian: bool = False

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex).reshape(-1)
        if values.shape[0] != self.grid.size:
            raise ValueError(
                f"coefficient vector has length {values.shape[0]}, grid size is {self.grid.size}"
            )
        object.__setattr__(self, "values", values)
        if self.hermitian:
            defect = self.hermitian_defect()
            if defect > HERMITIAN_TOL * max(1.0, float(np.abs(values).max(initial=0.0))):
                raise ValueError(f"coefficients flagged hermitian but defect is {defect:.3e}")

    def hermitian_defect(self) -> float:
        """Largest deviation from ``values[-J] == conj(values[J])``.

        ``-J`` sits at the reversed flat index (see ``FrequencyGrid``).
        """
        return float(np.abs(self.values - np.conj(self.values[::-1])).max(initial=0.0))

    def hermitian_projected(self) -> "SpectralCoefficients":
        """Average each mode with the conjugate of its negated partner."""
        sym = 0.5 * (self.values + np.conj(self.values[::-1]))
        return SpectralCoefficients(values=sym, grid=self.grid, hermitian=True)


@dataclass(frozen=True)
class SolveConfig:
    """Solver settings: Sobolev exponent, penalty weight, tolerance, memory budget."""

    alpha: float
    lam: float
    solve_tolerance: float = 1e-10
    memory_budget_mb: float = 4096.0

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError("alpha must be positive")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError("lambda must be nonnegative")
        if not (self.solve_tolerance > 0):
            raise ValueError("solve_tolerance must be positive")
        if not (self.memory_budget_mb > 0):
            raise ValueError("memory_budget_mb must be positive")


def sobolev_objective(coeffs: SpectralCoefficients, alpha: float) -> float:
    """Weighted spectral energy ``sum_J (1 + ||J*dxi||^2)^(alpha/2) |phi_J|^2``.

    The plain sum carries no mesh-volume factor ``delta_xi^d``.
    """
    weights = coeffs.grid.sobolev_weights(alpha)
    return float(np.sum(weights * np.abs(coeffs.values) ** 2))


def _as_points(points, d: int) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 0:
        pts = pts.reshape(1, 1)
    elif pts.ndim == 1:
        pts = pts[:, None] if d == 1 else pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != d:
        raise ValueError(f"points must have {d} coordinates per row")
    if not np.all(np.isfinite(pts)):
        raise ValueError("evaluation points must be finite")
    return pts


def point_evaluations(coeffs: SpectralCoefficients, points) -> np.ndarray:
    """Evaluate ``sum_J phi_J exp(2*pi*i*delta_xi*J.x)`` at each point.

    This is the linear map carrying a spectral vector to its reconstruction
    values at sample points; for hermitian coefficients the imaginary parts
    are numerical noise.  The points go through ``FrequencyGrid.phases`` in
    blocks of about ``2**18`` phases (4 MiB), which bounds the memory.  A
    block stays well below a fit's n-by-G matrix: glibc raises its mmap
    threshold to the largest block freed, so a larger block would send later
    matrices to the heap, whose peak varies from run to run with its layout.
    """
    pts = _as_points(points, coeffs.grid.d)
    out = np.empty(pts.shape[0], dtype=complex)
    block = max(1, 2**18 // coeffs.grid.size)
    for lo in range(0, pts.shape[0], block):
        out[lo : lo + block] = coeffs.grid.phases(pts[lo : lo + block]) @ coeffs.values
    return out


@dataclass(frozen=True)
class FittedModel:
    """Solver output: coefficients plus the configuration that produced them."""

    coefficients: SpectralCoefficients
    config: SolveConfig
    dataset_hash: str
    objective: float
    residuals: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.objective < 0:
            raise ValueError("objective must be nonnegative")
        object.__setattr__(self, "residuals", np.asarray(self.residuals, dtype=float))

    @property
    def grid(self) -> FrequencyGrid:
        return self.coefficients.grid

    def evaluate(self, points) -> np.ndarray:
        return point_evaluations(self.coefficients, points)
