import tracemalloc

import numpy as np
import pytest

import fdvar.closed_form as closed_form
from fdvar import (
    AssembledSystem,
    CapacityError,
    Dataset,
    FrequencyGrid,
    SolveConfig,
    SolverError,
    SpectralCoefficients,
    assemble,
    fit,
    point_evaluations,
    solve_direct,
    solve_dual,
    solve_svd,
)
from fdvar.solver import _fit_bytes
from fdvar.verify import backend_spread, random_small_system

ALL_SOLVERS = (solve_direct, solve_dual, solve_svd)


def unit_system():
    return AssembledSystem(matrix=np.ones((1, 1)), weights=np.ones(1), lam=1.0, rhs=np.ones(1))


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------
def test_assemble_zero_point_row_of_ones():
    grid = FrequencyGrid(d=1, M=1, delta_xi=1.0)
    config = SolveConfig(alpha=2.0, lam=1.0)
    system = assemble(grid, Dataset(X=[0.0], Y=[1.0]), config)
    assert np.allclose(system.matrix, [[1.0, 1.0, 1.0]])
    assert np.allclose(system.rhs, [1.0])


def test_assemble_half_point_alternating_row():
    grid = FrequencyGrid(d=1, M=1, delta_xi=1.0)
    config = SolveConfig(alpha=2.0, lam=1.0)
    system = assemble(grid, Dataset(X=[0.5], Y=[1.0]), config)
    assert np.allclose(system.matrix, [[-1.0, 1.0, -1.0]])


def test_assemble_gamma_entries():
    grid = FrequencyGrid(d=1, M=1, delta_xi=1.0)
    config = SolveConfig(alpha=2.0, lam=1.0)
    system = assemble(grid, Dataset(X=[0.0], Y=[1.0]), config)
    assert np.allclose(system.gamma_diag, [np.sqrt(2.0), 1.0, np.sqrt(2.0)])
    # entries at least sqrt(lambda), increasing with frequency magnitude
    assert np.all(system.gamma_diag >= np.sqrt(system.lam) - 1e-15)


def test_assemble_unit_modulus_and_conjugate_symmetry():
    grid = FrequencyGrid(d=2, M=2, delta_xi=0.3)
    config = SolveConfig(alpha=1.5, lam=0.5)
    x = np.array([[0.3, -0.8]])
    plus = assemble(grid, Dataset(X=x, Y=[1.0]), config)
    minus = assemble(grid, Dataset(X=-x, Y=[1.0]), config)
    assert np.allclose(np.abs(plus.matrix), 1.0)
    assert np.allclose(minus.matrix, np.conj(plus.matrix))


def test_assemble_deterministic():
    grid = FrequencyGrid(d=1, M=4, delta_xi=0.2)
    config = SolveConfig(alpha=3.0, lam=1.0)
    data = Dataset(X=[0.11, -0.42], Y=[1.0, -1.0])
    a = assemble(grid, data, config)
    b = assemble(grid, data, config)
    assert np.array_equal(a.matrix, b.matrix)
    assert np.array_equal(a.weights, b.weights)


def test_assemble_capacity_error_names_grid_size():
    grid = FrequencyGrid(d=2, M=8, delta_xi=0.1)
    config = SolveConfig(alpha=1.0, lam=1.0, memory_budget_mb=0.001)
    with pytest.raises(CapacityError, match=str(grid.size)):
        assemble(grid, Dataset(X=[[0.0, 0.0]], Y=[1.0]), config)


# ---------------------------------------------------------------------------
# the three backends
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("solver", ALL_SOLVERS)
def test_unit_system_gives_half(solver):
    phi = solver(unit_system())
    assert np.allclose(phi, [0.5])


@pytest.mark.parametrize("solver", ALL_SOLVERS)
def test_single_point_reduction_matches_closed_form(solver):
    params = closed_form.ClosedFormParams(M=2, delta_xi=1.0, alpha=2.0, lam=1.0)
    phi = solver(closed_form.assembled_system(params, label=2.0))
    # hand values: Z^2 = 1/2 + 1/5 = 0.7, phi_j = w_j^-1 / 1.7
    assert np.max(np.abs(phi - [0.5 / 1.7, 0.2 / 1.7])) < 1e-12
    expected = closed_form.coefficients(params)
    assert np.max(np.abs(phi - expected)) <= 1e-10


def test_backend_agreement_randomized():
    rng = np.random.default_rng(42)
    for _ in range(10):
        assert backend_spread(random_small_system(rng)) <= 1e-8


def test_dual_zero_lambda_interpolates():
    # min-weighted-norm interpolant via the pseudo-inverse fallback:
    # A = (1, 1), W = diag(1, 4) -> phi = (0.8, 0.2)
    system = AssembledSystem(
        matrix=np.ones((1, 2)), weights=np.array([1.0, 4.0]), lam=0.0, rhs=np.array([1.0])
    )
    phi = solve_dual(system)
    assert np.allclose(phi, [0.8, 0.2])
    assert abs(system.matrix @ phi - 1.0) < 1e-12


@pytest.mark.parametrize("gap", [1e-7, 0.1])
def test_dual_zero_lambda_interpolation_contract(gap):
    # near-duplicate points leave the kernel pseudo-inverse short of
    # interpolating; that must raise, not return "ok"
    grid = FrequencyGrid(d=1, M=400, delta_xi=0.1)
    data = Dataset(X=[0.0, gap], Y=[0.9, 0.8])
    config = SolveConfig(alpha=6.0, lam=0.0)
    if gap < 1e-3:
        with pytest.raises(
            SolverError,
            match=r"interpolation residual \S+ exceeds .* = \S+ \(condition estimate \S+\)",
        ):
            fit(grid, data, config)
    else:
        assert np.max(fit(grid, data, config).residuals) <= 1e-12


def test_dual_cholesky_failure_names_condition_estimate():
    # points 1e-9 apart with a negligible penalty leave K + lambda I
    # numerically indefinite; the error must say how ill-conditioned it is
    grid = FrequencyGrid(d=1, M=400, delta_xi=0.1)
    data = Dataset(X=[0.0, 1e-9], Y=[0.9, 0.8])
    with pytest.raises(SolverError, match=r"singular .*\(condition estimate \S+\)"):
        fit(grid, data, SolveConfig(alpha=6.0, lam=1e-20))


def test_dual_output_hermitian_before_projection():
    # mu is real, so phi = W^-1 A^H mu needs no projection to be Hermitian
    grid = FrequencyGrid(d=1, M=500, delta_xi=0.05)
    rng = np.random.default_rng(5)
    X = rng.uniform(-1, 1, size=40)
    data = Dataset(X=X, Y=np.sin(3 * X) + 0.1 * rng.normal(size=40))
    system = assemble(grid, data, SolveConfig(alpha=3.0, lam=1e-2))
    phi = solve_dual(system)
    defect = SpectralCoefficients(values=phi, grid=grid).hermitian_defect()
    assert defect <= 1e-14 * np.max(np.abs(phi))


def test_zero_lambda_rejected_outside_dual():
    system = AssembledSystem(
        matrix=np.ones((1, 2)), weights=np.array([1.0, 4.0]), lam=0.0, rhs=np.array([1.0])
    )
    with pytest.raises(ValueError):
        solve_direct(system)
    with pytest.raises(ValueError):
        solve_svd(system)


def test_direct_reports_indefinite_system():
    # rank-deficient normal equations: zero weights leave A^H A singular
    system = AssembledSystem(
        matrix=np.ones((1, 2)), weights=np.zeros(2), lam=1.0, rhs=np.array([1.0])
    )
    with pytest.raises(SolverError, match="condition"):
        solve_direct(system)


def test_lambda_scaling():
    rng = np.random.default_rng(5)
    system = random_small_system(rng)
    scaled = AssembledSystem(
        matrix=system.matrix, weights=system.weights, lam=10.0 * system.lam, rhs=system.rhs
    )
    assert np.allclose(scaled.gamma_diag, np.sqrt(10.0) * system.gamma_diag)
    misfit = np.linalg.norm(system.matrix @ solve_direct(system) - system.rhs)
    misfit_scaled = np.linalg.norm(scaled.matrix @ solve_direct(scaled) - scaled.rhs)
    assert misfit_scaled > misfit


def test_representer_and_kkt_properties():
    rng = np.random.default_rng(17)
    for _ in range(6):
        system = random_small_system(rng)
        phi = solve_dual(system)
        # solution lies in the span of W^-1 A^H
        basis = (system.matrix / system.weights[None, :]).conj().T
        coeffs, *_ = np.linalg.lstsq(basis, phi, rcond=None)
        rel = np.linalg.norm(basis @ coeffs - phi) / np.linalg.norm(phi)
        assert rel <= 1e-8
        # penalized-objective gradient vanishes to tolerance scale
        gradient = 2.0 * (
            system.matrix.conj().T @ (system.matrix @ phi - system.rhs)
            + system.lam * system.weights * phi
        )
        bound = (
            10.0
            * 1e-10
            * (
                np.linalg.norm(system.matrix.conj().T @ system.rhs)
                + np.linalg.norm(system.lam * system.weights * phi)
            )
        )
        assert np.linalg.norm(gradient) <= bound


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------
def test_fit_zero_labels():
    grid = FrequencyGrid(d=1, M=3, delta_xi=0.5)
    data = Dataset(X=[0.2, -0.4], Y=[0.0, 0.0])
    model = fit(grid, data, SolveConfig(alpha=2.0, lam=1.0))
    assert np.allclose(model.coefficients.values, 0.0)
    assert model.objective == 0.0
    assert np.allclose(model.residuals, 0.0)


def test_fit_single_point_full_lattice_closed_form():
    # one sample at the origin: phi_J = y * w_J^-1 / (sum_K w_K^-1 + lambda),
    # derived by eliminating the single dual variable
    grid = FrequencyGrid(d=1, M=50, delta_xi=0.1)
    data = Dataset(X=[0.0], Y=[2.0])
    model = fit(grid, data, SolveConfig(alpha=4.0, lam=1.0))
    w = grid.sobolev_weights(4.0)
    expected = 2.0 / w / (np.sum(1.0 / w) + 1.0)
    assert np.max(np.abs(model.coefficients.values - expected)) < 1e-12


def test_fit_is_hermitian_and_residuals_recomputed():
    grid = FrequencyGrid(d=2, M=3, delta_xi=0.3)
    rng = np.random.default_rng(23)
    data = Dataset(X=rng.uniform(-1, 1, size=(4, 2)), Y=rng.uniform(-1, 1, size=4))
    model = fit(grid, data, SolveConfig(alpha=3.0, lam=0.1))
    assert model.coefficients.hermitian_defect() == 0.0
    predictions = point_evaluations(model.coefficients, data.X)
    assert np.max(np.abs(predictions.imag)) <= 1e-10
    assert np.allclose(model.residuals, np.abs(predictions - data.Y))
    assert model.objective >= 0.0


def test_fit_residuals_match_point_evaluations():
    grid = FrequencyGrid(d=1, M=300, delta_xi=0.05)
    rng = np.random.default_rng(29)
    data = Dataset(X=rng.uniform(-2, 2, size=25), Y=rng.normal(size=25))
    model = fit(grid, data, SolveConfig(alpha=2.5, lam=1e-2))
    expected = np.abs(point_evaluations(model.coefficients, data.X) - data.Y)
    assert np.max(np.abs(model.residuals - expected)) <= 1e-12


@pytest.mark.parametrize(
    "n,d,m", [(1, 1, 20000), (1, 3, 30), (2, 2, 150), (30, 1, 2000), (3, 1, 600)]
)
def test_memory_estimate_bounds_traced_peak(n, d, m):
    grid = FrequencyGrid(d=d, M=m, delta_xi=0.05)
    rng = np.random.default_rng(n + d)
    data = Dataset(X=rng.uniform(-1, 1, size=(n, d)), Y=rng.normal(size=n))
    tracemalloc.start()
    try:
        fit(grid, data, SolveConfig(alpha=d + 2.0, lam=1e-2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _fit_bytes(n, grid.size)


def test_fit_residual_shrinks_with_lambda():
    grid = FrequencyGrid(d=1, M=40, delta_xi=0.1)
    data = Dataset(X=[-0.5, 0.5], Y=[0.9, 0.9])
    loose = fit(grid, data, SolveConfig(alpha=4.0, lam=1.0))
    tight = fit(grid, data, SolveConfig(alpha=4.0, lam=1e-4))
    assert np.max(tight.residuals) < np.max(loose.residuals)


def test_fit_dimension_mismatch():
    grid = FrequencyGrid(d=2, M=2, delta_xi=0.5)
    with pytest.raises(ValueError, match="dimension"):
        fit(grid, Dataset(X=[0.0], Y=[1.0]), SolveConfig(alpha=1.0, lam=1.0))
