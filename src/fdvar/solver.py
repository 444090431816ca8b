"""Penalized least-squares solvers for band-limited spectral regression.

The assembled problem is ``min ||A phi - b||^2 + lam * sum w_J |phi_J|^2``
with ``A[k, J] = exp(2*pi*i*delta_xi*J.x_k)`` and Sobolev weights ``w_J``.
``fit`` solves it one way: ``dual``, an n-by-n real kernel system (the
representer form, the only O(n*G) route).  Two algebraically equivalent
solvers stay as independent oracles for ``fdvar verify``'s agreement check:

* ``direct``  -- Cholesky on the G-by-G normal equations,
* ``svd``     -- SVD of the weight-whitened matrix with spectral shrinkage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import (
    Dataset,
    FittedModel,
    SolveConfig,
    SpectralCoefficients,
    sobolev_objective,
)
from .errors import CapacityError, SolverError
from .grid import FrequencyGrid


@dataclass(frozen=True)
class AssembledSystem:
    """Evaluation matrix, Sobolev weights, penalty weight and right-hand side."""

    matrix: np.ndarray
    weights: np.ndarray
    lam: float
    rhs: np.ndarray

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=complex)
        weights = np.asarray(self.weights, dtype=float).reshape(-1)
        rhs = np.asarray(self.rhs, dtype=float).reshape(-1)
        if matrix.ndim != 2:
            raise ValueError("matrix must be two-dimensional")
        if weights.shape[0] != matrix.shape[1]:
            raise ValueError("weights length must match matrix columns")
        if rhs.shape[0] != matrix.shape[0]:
            raise ValueError("rhs length must match matrix rows")
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "rhs", rhs)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def size(self) -> int:
        return self.matrix.shape[1]

    @property
    def gamma_diag(self) -> np.ndarray:
        """Diagonal of the penalty factor, ``sqrt(lam) * w_J^(1/2)``."""
        return np.sqrt(self.lam * self.weights)


def _fit_bytes(n: int, G: int) -> int:
    """Upper bound on the bytes one ``fit`` holds at its peak.

    Counted in 8-byte words: two n-by-G complex arrays alive at once (the
    phases and the Kronecker product forming them, or the matrix and the
    dual's conjugated copy), twelve G-length work vectors (weights,
    coefficients, projection, gradient check), the n-by-n kernel and its
    factor, and 1 MiB of small objects.
    """
    return 8 * (4 * n * G + 12 * G + 4 * n * n + 2**17)


def assemble(grid: FrequencyGrid, data: Dataset, config: SolveConfig) -> AssembledSystem:
    """Build the evaluation matrix ``grid.phases(X)`` and the penalty weights."""
    if data.d != grid.d:
        raise ValueError(f"dataset dimension {data.d} does not match grid dimension {grid.d}")
    G = grid.size
    need = _fit_bytes(data.n, G)
    budget = config.memory_budget_mb * 2**20
    if need > budget:
        raise CapacityError(
            f"grid size G={G} needs about {need / 2**20:.0f} MiB "
            f"(budget {config.memory_budget_mb:.0f} MiB); raise memory_budget_mb or shrink M"
        )
    return AssembledSystem(
        matrix=grid.phases(data.X),
        weights=grid.sobolev_weights(config.alpha),
        lam=config.lam,
        rhs=data.Y,
    )


def _check_normal_residual(system: AssembledSystem, phi: np.ndarray, tolerance: float) -> None:
    # A^H v is taken as conj(conj(v) @ A), so no copy of A^H is formed.
    misfit = system.matrix @ phi - system.rhs
    gradient = np.conj(np.conj(misfit) @ system.matrix) + system.lam * system.weights * phi
    reference = float(np.linalg.norm(system.rhs @ system.matrix))
    if float(np.linalg.norm(gradient)) > tolerance * max(reference, 1e-300):
        raise SolverError(
            f"normal-equation residual {np.linalg.norm(gradient):.3e} exceeds "
            f"{tolerance:.1e} * ||A^H b|| = {tolerance * reference:.3e}"
        )


def solve_direct(system: AssembledSystem, tolerance: float = 1e-10) -> np.ndarray:
    """Factor the G-by-G normal equations ``(A^H A + lam W) phi = A^H b``."""
    if system.lam <= 0:
        raise ValueError("direct backend requires lambda > 0")
    normal = system.matrix.conj().T @ system.matrix
    normal[np.diag_indices_from(normal)] += system.lam * system.weights
    rhs = system.matrix.conj().T @ system.rhs
    try:
        factor = scipy.linalg.cho_factor(normal, check_finite=False)
        phi = scipy.linalg.cho_solve(factor, rhs, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        cond = float(np.linalg.cond(normal))
        raise SolverError(
            f"normal equations not positive definite (condition estimate {cond:.3e})"
        ) from exc
    _check_normal_residual(system, phi, tolerance)
    return phi


def solve_dual(system: AssembledSystem, tolerance: float = 1e-10) -> np.ndarray:
    """Solve through the real n-by-n kernel ``Re(A W^-1 A^H) + lam I``.

    Algebraically identical to the direct route but touches only O(n*G)
    memory.  With real labels the kernel
    ``K[k, l] = sum_J w_J^-1 cos(2*pi*delta_xi*J.(x_k - x_l))`` is real, so
    the dual variable ``mu`` is real and ``phi = W^-1 A^H mu`` is Hermitian
    up to rounding.  With ``lam > 0`` the kernel is Cholesky-factored and the
    normal-equation gradient must meet ``tolerance``.  With ``lam = 0`` the
    kernel pseudo-inverse gives the minimum-weighted-norm interpolant, which
    must meet ``||A phi - b|| <= tolerance * ||b||``; near-duplicate points
    make the kernel near-singular and fail that check with ``SolverError``.
    Either failure names the kernel's condition estimate, computed only then.
    """
    inv_w = 1.0 / system.weights
    scaled = np.conj(system.matrix)
    scaled *= inv_w
    kernel = (scaled @ system.matrix.T).real
    del scaled
    kernel[np.diag_indices_from(kernel)] += system.lam
    if system.lam > 0:
        try:
            factor = scipy.linalg.cho_factor(kernel, check_finite=False)
            mu = scipy.linalg.cho_solve(factor, system.rhs, check_finite=False)
        except scipy.linalg.LinAlgError as exc:
            raise SolverError(
                "dual kernel system singular to working precision "
                f"(condition estimate {np.linalg.cond(kernel):.3e})"
            ) from exc
    else:
        mu = scipy.linalg.pinvh(kernel) @ system.rhs
    phi = inv_w * np.conj(mu @ system.matrix)
    if system.lam > 0:
        _check_normal_residual(system, phi, tolerance)
    else:
        misfit = float(np.linalg.norm(system.matrix @ phi - system.rhs))
        limit = tolerance * float(np.linalg.norm(system.rhs))
        if misfit > limit:
            raise SolverError(
                f"interpolation residual {misfit:.3e} exceeds "
                f"{tolerance:.1e} * ||b|| = {limit:.3e} "
                f"(condition estimate {np.linalg.cond(kernel):.3e})"
            )
    return phi


def solve_svd(system: AssembledSystem, tolerance: float = 1e-10) -> np.ndarray:
    """Whiten by the penalty diagonal, shrink singular values, unwhiten."""
    if system.lam <= 0:
        raise ValueError("svd backend requires lambda > 0")
    gamma = system.gamma_diag
    whitened = system.matrix / gamma[None, :]
    try:
        u, s, vh = np.linalg.svd(whitened, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SolverError("SVD of the whitened system did not converge") from exc
    shrink = s / (s**2 + 1.0)
    # V c is taken as conj(conj(c) @ vh), so no copy of vh^H is formed.
    phi = np.conj(np.conj(shrink * (system.rhs @ np.conj(u))) @ vh) / gamma
    _check_normal_residual(system, phi, tolerance)
    return phi


_BACKENDS = {"direct": solve_direct, "dual": solve_dual, "svd": solve_svd}


def fit(grid: FrequencyGrid, data: Dataset, config: SolveConfig) -> FittedModel:
    """Assemble, solve through the dual kernel, and package the result.

    The dual output is Hermitian up to rounding; an O(G) projection (each
    mode averaged with the conjugate of its negated partner) removes that
    rounding so the reconstruction is exactly real.  ``solve_dual`` does not
    project, because it also solves systems whose columns are not a lattice.
    Residuals ``|A phi - Y|`` are taken for the projected coefficients with
    the matrix that assembly formed, not taken from the solver.
    """
    from .io import dataset_hash

    system = assemble(grid, data, config)
    phi = solve_dual(system, tolerance=config.solve_tolerance)
    coeffs = SpectralCoefficients(values=phi, grid=grid).hermitian_projected()
    return FittedModel(
        coefficients=coeffs,
        config=config,
        dataset_hash=dataset_hash(data),
        objective=sobolev_objective(coeffs, config.alpha),
        residuals=np.abs(system.matrix @ coeffs.values - data.Y),
    )
