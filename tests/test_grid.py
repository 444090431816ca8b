import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fdvar import FrequencyGrid


@pytest.mark.parametrize("d,m", [(1, 1), (1, 3), (2, 2), (3, 1)])
def test_size(d, m):
    grid = FrequencyGrid(d=d, M=m, delta_xi=0.5)
    assert grid.size == (2 * m + 1) ** d
    assert grid.lattice().shape == (grid.size, d)


def test_row_major_axis0_slowest():
    grid = FrequencyGrid(d=2, M=1, delta_xi=1.0)
    lat = grid.lattice()
    assert tuple(lat[0]) == (-1, -1)
    assert tuple(lat[1]) == (-1, 0)
    assert tuple(lat[2]) == (-1, 1)
    assert tuple(lat[3]) == (0, -1)
    assert tuple(lat[-1]) == (1, 1)


@pytest.mark.parametrize("d,m", [(1, 3), (2, 2), (3, 1)])
def test_flat_lattice_roundtrip(d, m):
    # row k of lattice() is numpy's row-major multi-index k, shifted by -M
    grid = FrequencyGrid(d=d, M=m, delta_xi=0.1)
    shape = (grid.axis_points,) * d
    flat = np.arange(grid.size)
    lat = grid.lattice()
    assert np.array_equal(np.stack(np.unravel_index(flat, shape), axis=1) - m, lat)
    assert np.array_equal(np.ravel_multi_index(tuple((lat + m).T), shape), flat)


@pytest.mark.parametrize("d,m", [(1, 4), (2, 3), (3, 2)])
def test_symmetric_lattice_and_negation(d, m):
    grid = FrequencyGrid(d=d, M=m, delta_xi=0.2)
    points = {tuple(J) for J in grid.lattice()}
    assert {tuple(-np.asarray(J)) for J in points} == points
    perm = grid.negation_permutation()
    lat = grid.lattice()
    assert np.array_equal(lat[perm], -lat)
    # with ascending row-major order, negation is index reversal
    assert np.array_equal(perm, np.arange(grid.size)[::-1])


def test_squared_norms_and_weights():
    grid = FrequencyGrid(d=1, M=1, delta_xi=1.0)
    assert np.allclose(grid.squared_norms(), [1.0, 0.0, 1.0])
    assert np.allclose(grid.sobolev_weights(2.0), [2.0, 1.0, 2.0])


@pytest.mark.parametrize("d,m", [(1, 4), (2, 3), (3, 2)])
def test_squared_norms_match_lattice(d, m):
    grid = FrequencyGrid(d=d, M=m, delta_xi=0.37)
    expected = np.sum((grid.lattice() * grid.delta_xi) ** 2, axis=1)
    np.testing.assert_allclose(grid.squared_norms(), expected, rtol=1e-14, atol=0)


@settings(max_examples=80, deadline=None)
@given(
    d=st.integers(1, 3),
    m=st.integers(1, 5),
    delta_xi=st.floats(1e-3, 10.0),
    scale=st.floats(1e-3, 100.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_phases_match_lattice_exponentials(d, m, delta_xi, scale, seed):
    grid = FrequencyGrid(d=d, M=m, delta_xi=delta_xi)
    X = np.random.default_rng(seed).uniform(-scale, scale, size=(4, d))
    argument = 2 * np.pi * delta_xi * (X @ grid.lattice().T)
    P = grid.phases(X)
    assert P.shape == (4, grid.size)
    error = np.max(np.abs(P - np.exp(1j * argument)))
    assert error <= 1e-14 * (1 + np.max(np.abs(argument)))
    # column -J is the reversed flat index and exactly conj of column J
    assert np.array_equal(P[:, ::-1], np.conj(P))


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(1, 400),
    delta_xi=st.floats(1e-3, 10.0),
    scale=st.floats(1e-3, 100.0),
    n=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
)
# M+1 a perfect square (3, 399), one short of a full last row (10: width 4,
# 11 = 3*4 - 1) and one past a full row (16: width 5, 17 = 3*5 + 2)
@example(m=1, delta_xi=0.5, scale=1.0, n=1, seed=0)
@example(m=3, delta_xi=0.5, scale=1.0, n=3, seed=1)
@example(m=10, delta_xi=1.3, scale=10.0, n=5, seed=2)
@example(m=16, delta_xi=0.01, scale=50.0, n=7, seed=3)
@example(m=399, delta_xi=7.0, scale=100.0, n=2, seed=4)
def test_axis_phases_match_exponentials(m, delta_xi, scale, n, seed):
    grid = FrequencyGrid(d=1, M=m, delta_xi=delta_xi)
    x = np.random.default_rng(seed).uniform(-scale, scale, size=n)
    outer = np.multiply.outer(x, np.arange(-m, m + 1))
    argument = 2 * np.pi * delta_xi * outer
    T = grid.axis_phases(x)
    assert T.shape == (n, 2 * m + 1)
    error = np.max(np.abs(T - np.exp(2j * np.pi * delta_xi * outer)))
    assert error <= 1e-14 * (1 + np.max(np.abs(argument)))
    assert np.array_equal(T[:, ::-1], np.conj(T))


def test_validation():
    with pytest.raises(ValueError):
        FrequencyGrid(d=0, M=1, delta_xi=1.0)
    with pytest.raises(ValueError):
        FrequencyGrid(d=1, M=0, delta_xi=1.0)
    with pytest.raises(ValueError):
        FrequencyGrid(d=1, M=1, delta_xi=0.0)
    grid = FrequencyGrid(d=2, M=1, delta_xi=1.0)
    with pytest.raises(ValueError):
        grid.sobolev_weights(0.0)
