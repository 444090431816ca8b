"""Domain types and primitive operations on band-limited spectra."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import nonnegative_real, positive_real
from .grid import FrequencyGrid


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

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex).reshape(-1)
        if values.shape[0] != self.grid.size:
            raise ValueError(
                f"coefficient vector has length {values.shape[0]}, grid size is {self.grid.size}"
            )
        object.__setattr__(self, "values", values)

    def hermitian_defect(self) -> float:
        """Largest deviation from ``values[-J] == conj(values[J])``.

        ``-J`` sits at the reversed flat index (see ``FrequencyGrid``).
        """
        return float(np.abs(self.values - np.conj(self.values[::-1])).max(initial=0.0))

    def hermitian_projected(self) -> "SpectralCoefficients":
        """Average each mode with the conjugate of its negated partner."""
        sym = 0.5 * (self.values + np.conj(self.values[::-1]))
        return SpectralCoefficients(values=sym, grid=self.grid)


@dataclass(frozen=True)
class SolveConfig:
    """Solver settings: Sobolev exponent, penalty weight, tolerance, memory budget."""

    alpha: float
    lam: float
    solve_tolerance: float = 1e-10
    memory_budget_mb: float = 4096.0

    def __post_init__(self):
        object.__setattr__(self, "alpha", positive_real("alpha", self.alpha))
        object.__setattr__(self, "lam", nonnegative_real("lambda", self.lam))
        for name in ("solve_tolerance", "memory_budget_mb"):
            object.__setattr__(self, name, positive_real(name, getattr(self, name)))


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

    The coefficients, shaped ``(2M+1,)*d``, are contracted with the points'
    ``FrequencyGrid.axis_phases``: the last axis by one GEMM (at d = 1 the
    whole product), then each other axis, batched over points.  Point blocks
    keep every temporary at or under 4 MiB, far below a fit's n-by-G matrix:
    glibc raises its mmap threshold to the largest block freed, so larger
    blocks would send later matrices to the heap, whose peak varies by run.
    """
    grid = coeffs.grid
    pts = _as_points(points, grid.d)
    values = coeffs.values.reshape(-1, grid.axis_points).T
    out = np.empty(pts.shape[0], dtype=complex)
    block = max(1, 2**18 // max(values.shape))
    for lo in range(0, pts.shape[0], block):
        *leading, last = [grid.axis_phases(x) for x in pts[lo : lo + block].T]
        sums = last @ values
        for table in reversed(leading):
            sums = np.einsum("bij,bj->bi", sums.reshape(len(table), -1, table.shape[1]), table)
        out[lo : lo + block] = sums[:, 0]
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
        object.__setattr__(self, "objective", nonnegative_real("objective", self.objective))
        if np.ndim(self.residuals) != 1:
            raise ValueError(f"residuals must be a 1-D array, got {self.residuals!r}")
        residuals = [nonnegative_real(f"residuals[{i}]", r) for i, r in enumerate(self.residuals)]
        object.__setattr__(self, "residuals", np.array(residuals, dtype=float))

    @property
    def grid(self) -> FrequencyGrid:
        return self.coefficients.grid

    def evaluate(self, points) -> np.ndarray:
        return point_evaluations(self.coefficients, points)
