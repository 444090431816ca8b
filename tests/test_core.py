import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdvar import (
    Dataset,
    FrequencyGrid,
    SolveConfig,
    SpectralCoefficients,
    point_evaluations,
    sobolev_objective,
)


def lattice(d, m):
    """Integer multi-indices in flat order: row-major, axis 0 slowest, each axis from -m."""
    axis = np.arange(-m, m + 1)
    return np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1).reshape(-1, d)


def random_hermitian(grid, rng):
    values = rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size)
    perm = grid.negation_permutation()
    return SpectralCoefficients(values=0.5 * (values + np.conj(values[perm])), grid=grid)


# ---------------------------------------------------------------------------
# dataset
# ---------------------------------------------------------------------------
def test_dataset_shapes():
    data = Dataset(X=[0.1, 0.7], Y=[1.0, 2.0])
    assert data.n == 2 and data.d == 1
    data2 = Dataset(X=[[0.1, 0.2], [0.3, 0.4]], Y=[1.0, 2.0])
    assert data2.d == 2


def test_dataset_rejects_bad_input():
    with pytest.raises(ValueError, match="duplicate"):
        Dataset(X=[[0.5], [0.5]], Y=[1.0, 2.0])
    with pytest.raises(ValueError, match="finite"):
        Dataset(X=[[np.nan]], Y=[1.0])
    with pytest.raises(ValueError, match="dataset empty"):
        Dataset(X=np.empty((0, 1)), Y=[])
    with pytest.raises(ValueError):
        Dataset(X=[[0.0]], Y=[1.0, 2.0])


# ---------------------------------------------------------------------------
# spectral coefficients
# ---------------------------------------------------------------------------
def test_coefficients_length_check():
    grid = FrequencyGrid(d=1, M=1, delta_xi=1.0)
    with pytest.raises(ValueError):
        SpectralCoefficients(values=np.zeros(2), grid=grid)


def test_hermitian_flag_validation():
    grid = FrequencyGrid(d=1, M=1, delta_xi=1.0)
    ok = SpectralCoefficients(values=[1 + 2j, 0.5, 1 - 2j], grid=grid)
    assert ok.hermitian_defect() == 0.0
    assert SpectralCoefficients(values=[1.0, 0.0, 2.0], grid=grid).hermitian_defect() == 1.0


def test_hermitian_projection_idempotent():
    grid = FrequencyGrid(d=2, M=2, delta_xi=0.3)
    rng = np.random.default_rng(3)
    raw = SpectralCoefficients(
        values=rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size), grid=grid
    )
    projected = raw.hermitian_projected()
    assert projected.hermitian_defect() == 0.0
    again = projected.hermitian_projected()
    assert np.array_equal(projected.values, again.values)


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------
def test_objective_examples():
    grid = FrequencyGrid(d=1, M=1, delta_xi=1.0)
    zero = SpectralCoefficients(values=np.zeros(3), grid=grid)
    assert sobolev_objective(zero, 2.0) == 0.0
    center = SpectralCoefficients(values=[0.0, 1.0, 0.0], grid=grid)
    assert math.isclose(sobolev_objective(center, 2.0), 1.0)
    edges = SpectralCoefficients(values=[1.0, 0.0, 1.0], grid=grid)
    assert math.isclose(sobolev_objective(edges, 2.0), 4.0)


def test_objective_monotone_in_alpha():
    grid = FrequencyGrid(d=1, M=3, delta_xi=0.7)
    rng = np.random.default_rng(11)
    coeffs = random_hermitian(grid, rng)
    values = [sobolev_objective(coeffs, a) for a in (0.5, 1.0, 2.0, 4.0, 8.0)]
    assert all(b > a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# point evaluations
# ---------------------------------------------------------------------------
def test_point_evaluations_examples():
    grid = FrequencyGrid(d=1, M=1, delta_xi=1.0)
    zero = SpectralCoefficients(values=np.zeros(3), grid=grid)
    assert np.allclose(point_evaluations(zero, [0.3, -1.2]), 0.0)
    constant = SpectralCoefficients(values=[0.0, 3.5, 0.0], grid=grid)
    assert np.allclose(point_evaluations(constant, 0.37), 3.5)
    edges = SpectralCoefficients(values=[1.0, 0.0, 1.0], grid=grid)
    # exp(-pi i) + exp(pi i) = -2
    assert np.allclose(point_evaluations(edges, 0.5), -2.0)


def test_point_evaluations_linearity():
    grid = FrequencyGrid(d=2, M=2, delta_xi=0.4)
    rng = np.random.default_rng(7)
    X = rng.uniform(-1, 1, size=(4, 2))
    v1 = rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size)
    v2 = rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size)
    a, b = 1.7 - 0.3j, -0.6 + 2.2j
    combo = point_evaluations(SpectralCoefficients(values=a * v1 + b * v2, grid=grid), X)
    parts = a * point_evaluations(
        SpectralCoefficients(values=v1, grid=grid), X
    ) + b * point_evaluations(SpectralCoefficients(values=v2, grid=grid), X)
    assert np.max(np.abs(combo - parts)) <= 1e-12 * max(1.0, np.max(np.abs(parts)))


@settings(max_examples=80, deadline=None)
@given(
    d=st.integers(1, 3),
    m=st.integers(1, 5),
    delta_xi=st.floats(1e-3, 10.0),
    scale=st.floats(1e-3, 100.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_point_evaluations_match_direct_sum(d, m, delta_xi, scale, seed):
    """The per-axis contraction against the plain lattice sum, in any axis order."""
    grid = FrequencyGrid(d=d, M=m, delta_xi=delta_xi)
    rng = np.random.default_rng(seed)
    X = rng.uniform(-scale, scale, size=(5, d))
    values = rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size)
    argument = 2 * np.pi * delta_xi * (X @ lattice(d, m).T)
    expected = np.exp(1j * argument) @ values
    got = point_evaluations(SpectralCoefficients(values=values, grid=grid), X)
    bound = 1e-14 * (1 + np.max(np.abs(argument))) * np.sum(np.abs(values))
    assert np.max(np.abs(got - expected)) <= bound


@pytest.mark.parametrize("d,m,n", [(1, 2**17, 3), (3, 20, 160)])
def test_point_evaluations_across_blocks(d, m, n):
    """More points than one 4 MiB block holds: one point per block at d = 1, 155 at d = 3."""
    grid = FrequencyGrid(d=d, M=m, delta_xi=0.013)
    rng = np.random.default_rng(5)
    X = rng.uniform(-3, 3, size=(n, d))
    values = rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size)
    J = lattice(d, m)
    expected = [np.exp(2j * np.pi * grid.delta_xi * (J @ x)) @ values for x in X]
    got = point_evaluations(SpectralCoefficients(values=values, grid=grid), X)
    max_argument = 2 * np.pi * grid.delta_xi * m * np.max(np.sum(np.abs(X), axis=1))
    bound = 1e-14 * (1 + max_argument) * np.sum(np.abs(values))
    assert np.max(np.abs(got - np.array(expected))) <= bound


def test_hermitian_gives_real_values():
    grid = FrequencyGrid(d=2, M=3, delta_xi=0.25)
    rng = np.random.default_rng(19)
    coeffs = random_hermitian(grid, rng)
    values = point_evaluations(coeffs, rng.uniform(-2, 2, size=(16, 2)))
    assert np.max(np.abs(values.imag)) <= 1e-10


def test_point_evaluations_dimension_mismatch():
    grid = FrequencyGrid(d=2, M=1, delta_xi=1.0)
    coeffs = SpectralCoefficients(values=np.zeros(grid.size), grid=grid)
    with pytest.raises(ValueError):
        point_evaluations(coeffs, np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# solve config
# ---------------------------------------------------------------------------
def test_solve_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(alpha=0.0, lam=1.0)
    with pytest.raises(ValueError):
        SolveConfig(alpha=1.0, lam=-1.0)
    assert SolveConfig(alpha=1.0, lam=0.0).lam == 0.0
    names = [f.name for f in fields(SolveConfig)]
    assert names == ["alpha", "lam", "solve_tolerance", "memory_budget_mb"]
