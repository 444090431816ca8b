import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from fdvar.solver import _KERNEL_BLOCK, _dual_kernel, _fit_bytes
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
    assert np.array_equal(system.weights, [2.0, 1.0, 2.0])


@settings(max_examples=80, deadline=None)
@given(
    d=st.integers(1, 3),
    delta_xi=st.one_of(st.sampled_from([0.25, 0.5, 1.0, 2.0]), st.floats(0.01, 10.0)),
    units=st.lists(
        st.one_of(st.integers(-4, 4).map(lambda k: k / 4), st.floats(-1.0, 1.0)),
        min_size=3,
        max_size=18,
    ),
)
# one period exactly along the only axis; along the second of two; just under one
@example(d=1, delta_xi=0.5, units=[-0.5, 0.0, 0.5])
@example(d=2, delta_xi=0.25, units=[0.0, -0.5, 0.25, 0.5, 0.0, 0.0])
@example(d=1, delta_xi=1.0, units=[-0.5, 0.0, 0.4999])
def test_assemble_requires_data_inside_one_period(d, delta_xi, units):
    """``assemble`` raises exactly when some axis extent reaches ``1/delta_xi``."""
    period = 1.0 / delta_xi
    X = np.unique(np.reshape(units[: len(units) // d * d], (-1, d)) * period, axis=0)
    data = Dataset(X=X, Y=np.ones(len(X)))
    grid = FrequencyGrid(d=d, M=2, delta_xi=delta_xi)
    over = np.flatnonzero(np.ptp(X, axis=0) >= period)
    if over.size:
        with pytest.raises(ValueError, match=f"along axis {over[0] + 1} is not under the period"):
            assemble(grid, data, SolveConfig(alpha=2.0, lam=1.0))
    else:
        assert assemble(grid, data, SolveConfig(alpha=2.0, lam=1.0)).matrix.shape == (len(X), 5**d)


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


def test_assemble_marks_lattice_systems():
    grid = FrequencyGrid(d=2, M=2, delta_xi=0.3)
    system = assemble(grid, Dataset(X=[[0.1, 0.2]], Y=[1.0]), SolveConfig(alpha=2.0, lam=1.0))
    assert system.lattice
    hand_built = AssembledSystem(matrix=np.ones((1, 3)), weights=np.ones(3), lam=1.0, rhs=[1.0])
    assert not hand_built.lattice


def test_lattice_mark_needs_odd_columns_and_mirrored_weights():
    with pytest.raises(ValueError, match="odd column count, got 4"):
        AssembledSystem(
            matrix=np.ones((1, 4)), weights=np.ones(4), lam=1.0, rhs=[1.0], lattice=True
        )
    with pytest.raises(ValueError, match="reversal"):
        AssembledSystem(
            matrix=np.ones((1, 3)), weights=[1.0, 2.0, 3.0], lam=1.0, rhs=[1.0], lattice=True
        )


@pytest.mark.parametrize("lam", [1e-2, 0.0])
def test_wrong_lattice_mark_fails_residual_checks(lam):
    # lattice columns J = -2, -1, 1, 0, 2: no longer mirrored, so the
    # half-lattice kernel is wrong, and the checks over every column catch it
    grid = FrequencyGrid(d=1, M=2, delta_xi=0.7)
    data = Dataset(X=[-0.4, 0.1, 0.5], Y=[0.3, -1.0, 0.8])
    lattice = assemble(grid, data, SolveConfig(alpha=2.0, lam=1.0))
    system = AssembledSystem(
        matrix=lattice.matrix[:, [0, 1, 3, 2, 4]],
        weights=np.ones(5),
        lam=lam,
        rhs=data.Y,
        lattice=True,
    )
    with pytest.raises(SolverError, match="residual"):
        solve_dual(system)
    solve_dual(replace(system, lattice=False))


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
    phi = solver(closed_form.assembled_system(params))
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


@pytest.mark.xfail(
    strict=True,
    raises=SolverError,
    reason="unrefined dual solve misses the 1e-10 normal-equation contract at cond(K) ~ 1e7",
)
@pytest.mark.parametrize("seed", range(4))
def test_dual_meets_contract_on_ill_conditioned_plane(seed):
    # well-posed (lambda > 0) yet rejected today with residuals of about 1e-6 against
    # limits of about 1e-7; this test flips to a pass once the solve is refined
    rng = np.random.default_rng(seed)
    data = Dataset(X=rng.uniform(-1, 1, (100, 2)), Y=rng.standard_normal(100))
    fit(FrequencyGrid(d=2, M=60, delta_xi=0.01), data, SolveConfig(alpha=4.0, lam=1e-2))


@settings(max_examples=80, deadline=None)
@given(
    d=st.integers(1, 3),
    m=st.integers(1, 6),
    n=st.integers(1, 9),
    block=st.one_of(st.integers(1, 120), st.just(_KERNEL_BLOCK)),
    lattice=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# one point; a one-column block (block < 4n); a half lattice of 4 columns
# in blocks of 3; the default block holding every column
@example(d=1, m=3, n=1, block=_KERNEL_BLOCK, lattice=True, seed=1)
@example(d=2, m=2, n=9, block=17, lattice=True, seed=2)
@example(d=1, m=3, n=2, block=12, lattice=True, seed=3)
@example(d=3, m=1, n=4, block=_KERNEL_BLOCK, lattice=False, seed=4)
def test_blocked_dual_kernel_matches_dense(d, m, n, block, lattice, seed):
    rng = np.random.default_rng(seed)
    if lattice:
        # the points stay inside one period 1/delta_xi, as assemble requires
        grid = FrequencyGrid(d=d, M=m, delta_xi=rng.uniform(0.01, 1.0))
        X = rng.uniform(-0.45, 0.45, size=(n, d)) / grid.delta_xi
        data = Dataset(X=X, Y=rng.normal(size=n))
        system = assemble(grid, data, SolveConfig(alpha=rng.uniform(0.5, 6.0), lam=1.0))
    else:
        # the all-columns route holds for any complex matrix
        G = (2 * m + 1) ** d + int(rng.integers(0, 2))
        system = AssembledSystem(
            matrix=rng.normal(size=(n, G)) + 1j * rng.normal(size=(n, G)),
            weights=rng.uniform(0.1, 10.0, size=G),
            lam=1.0,
            rhs=rng.normal(size=n),
        )
    dense = ((np.conj(system.matrix) / system.weights) @ system.matrix.T).real
    kernel = _dual_kernel(system, block=block)
    assert np.max(np.abs(kernel - dense)) <= 1e-13 * np.max(np.abs(dense))


def test_dual_output_hermitian_before_projection():
    # phi is formed on the half lattice and mirrored by conjugation
    grid = FrequencyGrid(d=1, M=500, delta_xi=0.05)
    rng = np.random.default_rng(5)
    X = rng.uniform(-1, 1, size=40)
    data = Dataset(X=X, Y=np.sin(3 * X) + 0.1 * rng.normal(size=40))
    system = assemble(grid, data, SolveConfig(alpha=3.0, lam=1e-2))
    phi = solve_dual(system)
    assert SpectralCoefficients(values=phi, grid=grid).hermitian_defect() == 0.0


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
    "n,d,m",
    [(1, 1, 20000), (1, 3, 30), (2, 2, 150), (30, 1, 2000), (3, 1, 600), (100, 2, 60)],
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
    bound = _fit_bytes(n, grid)
    assert peak <= bound
    # tight where the arrays outweigh the 1 MiB allowance for small objects
    # (the former two-matrix bound was 1.5-1.9 times these peaks)
    if peak >= 2**20:
        assert bound <= 1.45 * peak


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
