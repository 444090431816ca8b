import math
from dataclasses import fields

import numpy as np
import pytest

from fdvar import (
    Dataset,
    FrequencyGrid,
    SolveConfig,
    SpectralCoefficients,
    japanese_bracket,
    point_evaluations,
    sobolev_objective,
)


def random_hermitian(grid, rng):
    values = rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size)
    perm = grid.negation_permutation()
    return SpectralCoefficients(
        values=0.5 * (values + np.conj(values[perm])), grid=grid, hermitian=True
    )


# ---------------------------------------------------------------------------
# japanese bracket
# ---------------------------------------------------------------------------
def test_bracket_values():
    assert japanese_bracket([0.0, 0.0, 0.0]) == 1.0
    assert math.isclose(japanese_bracket([3.0, 4.0]), math.sqrt(26.0))
    # alpha = 2 weight at xi = 1 is the squared bracket
    assert math.isclose(japanese_bracket(1.0) ** 2, 2.0)


def test_bracket_rejects_nonfinite():
    with pytest.raises(ValueError):
        japanese_bracket([np.nan])
    with pytest.raises(ValueError):
        japanese_bracket([np.inf, 0.0])


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
    with pytest.raises(ValueError, match="hermitian"):
        SpectralCoefficients(values=[1.0, 0.0, 2.0], grid=grid, hermitian=True)
    ok = SpectralCoefficients(values=[1 + 2j, 0.5, 1 - 2j], grid=grid, hermitian=True)
    assert ok.hermitian_defect() == 0.0


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
