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
from .errors import CapacityError, SolverError, nonnegative_real
from .grid import FrequencyGrid


# Doubles in one block of the dual kernel's real factor (2 MiB).  Like the
# blocks of ``core.point_evaluations`` it stays far below a fit's n-by-G
# matrix: glibc raises its mmap threshold to the largest block freed, so a
# larger block would send later matrices to the heap.
_KERNEL_BLOCK = 2**18


@dataclass(frozen=True)
class AssembledSystem:
    """Evaluation matrix, Sobolev weights, penalty weight and right-hand side.

    ``lattice`` marks a matrix whose columns are a symmetric lattice in flat
    order, as ``assemble`` builds it: column ``G-1-j`` is the conjugate of
    column ``j`` and the middle column is ``J = 0``.  The dual solver then
    sums only half the columns.  The mark is trusted, not checked against
    the matrix; a wrong one fails the solver's residual checks, which use
    every column.
    """

    matrix: np.ndarray
    weights: np.ndarray
    lam: float
    rhs: np.ndarray
    lattice: bool = False

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
        if self.lattice and matrix.shape[1] % 2 == 0:
            raise ValueError(
                f"a lattice system needs an odd column count, got {matrix.shape[1]}"
            )
        if self.lattice and not np.array_equal(weights, weights[::-1]):
            raise ValueError("a lattice system needs weights equal to their reversal")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "lam", nonnegative_real("lambda", self.lam))

    @property
    def size(self) -> int:
        return self.matrix.shape[1]


def _fit_bytes(n: int, grid: FrequencyGrid) -> int:
    """Upper bound on the bytes one ``fit`` on ``grid`` holds at its peak.

    Counted in 8-byte words: the n-by-G complex matrix; while it is formed,
    the Kronecker factor of the leading axes, n-by-(G / axis points)
    complex; one block of the dual kernel's real factor (``_KERNEL_BLOCK``
    doubles, or n*(G+1) if that is fewer); eight G-length words at the
    normal-equation check, the worst stage (weights, coefficients, the
    two-row product whose rows hold the gradient and its penalty term, and
    the scaled weights); the n-by-n kernel, its rank-k update and its
    factor, with an n-by-n spare; and 1 MiB of small objects.
    """
    G = grid.size
    leading = G // grid.axis_points
    return 8 * (
        2 * n * G
        + 2 * n * leading
        + min(_KERNEL_BLOCK, n * (G + 1))
        + 8 * G
        + 4 * n * n
        + 2**17
    )


def assemble(grid: FrequencyGrid, data: Dataset, config: SolveConfig) -> AssembledSystem:
    """Build the evaluation matrix ``grid.phases(X)`` and the penalty weights.

    Every fitted ``h`` has period ``1/delta_xi`` along each axis, so the data
    must span less than one period along every axis.
    """
    if data.d != grid.d:
        raise ValueError(f"dataset dimension {data.d} does not match grid dimension {grid.d}")
    period = 1.0 / grid.delta_xi
    for axis, extent in enumerate(np.ptp(data.X, axis=0), start=1):
        if extent >= period:
            raise ValueError(
                f"data extent {extent} along axis {axis} is not under the period "
                f"1/delta_xi = {period}; points a period apart are one point to the fit"
            )
    G = grid.size
    need = _fit_bytes(data.n, grid)
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
        lattice=True,
    )


def _check_normal_residual(system: AssembledSystem, phi: np.ndarray, tolerance: float) -> None:
    # A^H v is taken as conj(conj(v) @ A), so no copy of A^H is formed; A^H
    # misfit and A^T b come from one two-row product, one pass over A.
    misfit = system.matrix @ phi - system.rhs
    rows = np.stack([np.conj(misfit), system.rhs]) @ system.matrix
    reference = float(np.linalg.norm(rows[1]))
    gradient = np.conj(rows[0], out=rows[0])
    gradient += np.multiply(system.lam * system.weights, phi, out=rows[1])
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


def _dual_kernel(system: AssembledSystem, block: int = _KERNEL_BLOCK) -> np.ndarray:
    """The real kernel ``Re(A W^-1 A^H)``, summed over column blocks.

    With ``A = P + iQ`` the kernel is ``sum_J c_J (p_J p_J^T + q_J q_J^T)``
    with ``c_J = w_J^-1``, so a block of g columns adds ``B B^T`` for the
    real n-by-2g matrix ``B = [P_b, Q_b] * sqrt(c_b)`` of about ``block``
    doubles, a symmetric rank-k update.  This holds for any complex ``A``.
    A lattice system sums only the half ``0..(G-1)/2``: column ``-J`` is the
    conjugate of column ``J`` and adds the same term, so ``c_J = 2 w_J^-1``
    there and ``c_0 = w_0^-1`` at ``J = 0``.
    """
    n, G = system.matrix.shape
    scale = 1.0 / system.weights
    if system.lattice:
        G = (G + 1) // 2
        scale = 2.0 * scale[:G]
        scale[-1] *= 0.5
    np.sqrt(scale, out=scale)
    width = max(1, block // (2 * n))
    buffer = np.empty(2 * n * min(width, G))
    kernel = np.zeros((n, n))
    for lo in range(0, G, width):
        hi = min(lo + width, G)
        columns = system.matrix[:, lo:hi]
        g = hi - lo
        part = buffer[: 2 * n * g].reshape(n, 2 * g)
        np.multiply(columns.real, scale[lo:hi], out=part[:, :g])
        np.multiply(columns.imag, scale[lo:hi], out=part[:, g:])
        kernel += part @ part.T
    return kernel


def solve_dual(system: AssembledSystem, tolerance: float = 1e-10) -> np.ndarray:
    """Solve through the real n-by-n kernel ``Re(A W^-1 A^H) + lam I``.

    Algebraically identical to the direct route but touches only O(n*G)
    memory.  With real labels the kernel
    ``K[k, l] = sum_J w_J^-1 cos(2*pi*delta_xi*J.(x_k - x_l))`` is real, so
    the dual variable ``mu`` is real and ``phi = W^-1 A^H mu`` is Hermitian.
    The kernel is formed in real arithmetic by ``_dual_kernel``.  For a
    lattice system ``phi`` is formed on the half lattice and mirrored by
    conjugation, so it is exactly Hermitian.  With ``lam > 0`` the kernel is
    Cholesky-factored and the normal-equation gradient must meet
    ``tolerance``.  With ``lam = 0`` the kernel pseudo-inverse gives the
    minimum-weighted-norm interpolant, which must meet
    ``||A phi - b|| <= tolerance * ||b||``; near-duplicate points make the
    kernel near-singular and fail that check with ``SolverError``.  Either
    failure names the kernel's condition estimate, computed only then.
    """
    kernel = _dual_kernel(system)
    kernel[np.diag_indices_from(kernel)] += system.lam
    if system.lam > 0:
        try:
            # numpy's Cholesky runs on the BLAS that formed the kernel.  scipy
            # links a second BLAS whose threads contend with numpy's spinning
            # ones: on a 2-core machine an n = 200 factorization right after
            # the kernel took up to 0.19 s instead of about 1 ms.
            factor = np.linalg.cholesky(kernel)
            mu = scipy.linalg.cho_solve((factor, True), system.rhs, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                "dual kernel system singular to working precision "
                f"(condition estimate {np.linalg.cond(kernel):.3e})"
            ) from exc
    else:
        mu = scipy.linalg.pinvh(kernel) @ system.rhs
    if system.lattice:
        half = (system.size + 1) // 2
        phi = np.empty(system.size, dtype=complex)
        phi[:half] = np.conj(mu @ system.matrix[:, :half]) / system.weights[:half]
        phi[half:] = np.conj(phi[: half - 1][::-1])
    else:
        phi = np.conj(mu @ system.matrix) / system.weights
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
    gamma = np.sqrt(system.lam * system.weights)
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

    The assembled system is a lattice, so the dual output is exactly
    Hermitian and the reconstruction exactly real; the O(G) projection
    (each mode averaged with the conjugate of its negated partner) changes
    nothing on this output.
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
