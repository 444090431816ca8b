import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fdvar.closed_form as closed_form
from fdvar import FrequencyGrid, solve_direct, solve_dual, solve_svd
from fdvar.critical import log_log_slope


def make_params(M=2, delta_xi=1.0, alpha=2.0, lam=1.0):
    return closed_form.ClosedFormParams(M=M, delta_xi=delta_xi, alpha=alpha, lam=lam)


def test_z_squared_hand_value_and_recompute():
    params = make_params()
    assert math.isclose(params.z_squared, 0.7, rel_tol=1e-14)
    recomputed = float(np.sum(params.mode_weights() ** -1))
    assert math.isclose(params.z_squared, recomputed, rel_tol=1e-14)


def test_coefficient_hand_values():
    phi = closed_form.coefficients(make_params())
    assert phi.shape == (2,)
    assert math.isclose(phi[0], 0.5 / 1.7)
    assert math.isclose(phi[1], 0.2 / 1.7)


def test_coefficients_decrease_and_high_alpha_suppression():
    params = make_params(M=6, alpha=1.5)
    phi = closed_form.coefficients(params)
    assert np.all(np.diff(phi) < 0)
    sharp = make_params(M=6, alpha=40.0)
    phi_sharp = closed_form.coefficients(sharp)
    ratios = phi_sharp / phi_sharp[0]
    assert np.all(ratios[1:] < 1e-6)


def test_coefficient_sum_is_relaxed_constraint():
    for lam in (0.5, 1.0, 4.0):
        params = make_params(M=8, delta_xi=0.25, alpha=3.0, lam=lam)
        total = float(np.sum(closed_form.coefficients(params))) * params.delta_xi
        expected = params.z_squared / (params.z_squared + lam)
        assert math.isclose(total, expected, rel_tol=1e-12)
        assert total < 1.0


def test_reconstruction_at_origin_and_interpolation_limit():
    params = make_params()
    assert math.isclose(
        float(closed_form.reconstruction(params, 0.0)[0]), 1.4 / 1.7, rel_tol=1e-12
    )
    hard = make_params(M=64, delta_xi=0.125, alpha=2.5, lam=0.0)
    assert math.isclose(float(closed_form.reconstruction(hard, 0.0)[0]), 2.0, rel_tol=1e-12)


def test_reconstruction_even():
    params = make_params(M=16, delta_xi=0.2, alpha=3.0, lam=0.7)
    xs = np.linspace(0.0, 0.5, 101)
    left = closed_form.reconstruction(params, -xs)
    right = closed_form.reconstruction(params, xs)
    assert np.array_equal(left, right)


def dense_cosine_sum(series, x):
    return np.cos(2 * np.pi * np.outer(x, np.arange(1, series.shape[0] + 1))) @ series


# The series are positive, as the oracle's (inverse weights), and x = 0 is
# among the points, so max|dense| is the series' total.  The dense sum's
# own argument rounding, about eps*2*pi*j*|x| per term, then stays far
# below the gate.
@settings(max_examples=100, deadline=None)
@given(
    m=st.integers(1, 5000),
    alpha=st.floats(0.1, 6.0),
    delta_xi=st.floats(1e-3, 1.0),
    n=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
)
# N+1 a perfect square (3, 4095), one short of a full last row (10: width 4,
# 11 = 3*4 - 1) and one past a full row (16: width 5, 17 = 3*5 + 2)
@example(m=1, alpha=1.0, delta_xi=0.5, n=1, seed=0)
@example(m=3, alpha=2.0, delta_xi=0.5, n=3, seed=1)
@example(m=10, alpha=0.5, delta_xi=0.1, n=5, seed=2)
@example(m=16, alpha=4.0, delta_xi=0.01, n=7, seed=3)
@example(m=4095, alpha=0.1, delta_xi=0.001, n=2, seed=4)
def test_cosine_sum_matches_dense_sum(m, alpha, delta_xi, n, seed):
    rng = np.random.default_rng(seed)
    j = np.arange(1, m + 1)
    series = (1.0 + (j * delta_xi) ** 2) ** (-alpha / 2) * rng.uniform(0.5, 1.0, size=m)
    x = np.append(rng.uniform(-0.5, 0.5, size=n), 0.0)
    dense = dense_cosine_sum(series, x)
    got = closed_form._cosine_sum(series, x)
    assert np.max(np.abs(got - dense)) <= 1e-12 * np.max(np.abs(dense))


# 1001 points span 15 point blocks at M = 1e5, the diagnostics shape, where
# every 20th point is compared (x = 0 among them), and 4 blocks at M = 5000,
# where every point is compared
@pytest.mark.parametrize("m,every", [(100_000, 20), (5_000, 1)])
def test_cosine_sum_across_point_blocks(m, every):
    params = closed_form.ClosedFormParams(M=m, delta_xi=1e-3, alpha=4.0, lam=1.0)
    xs = np.linspace(-0.5, 0.5, 1001)
    got = closed_form._cosine_sum(params.inverse_weights(), xs)
    dense = dense_cosine_sum(params.inverse_weights(), xs[::every])
    assert np.max(np.abs(got[::every] - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_oracle_does_not_use_frequency_grid(monkeypatch):
    # verify's closed-form check compares the solver with this oracle; routed
    # through the grid's phase tables it would compare a path with itself
    def refuse(*args, **kwargs):
        raise AssertionError("closed_form must not use FrequencyGrid phase tables")

    monkeypatch.setattr(FrequencyGrid, "axis_phases", refuse)
    monkeypatch.setattr(FrequencyGrid, "phases", refuse)
    params = make_params(M=300, delta_xi=0.05, alpha=2.0, lam=0.1)
    xs = np.linspace(-0.5, 0.5, 11)
    expected = closed_form.reconstruction(params, xs)
    got = closed_form.synthesize(closed_form.coefficients(params), params.delta_xi, xs)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("alpha,lam,delta_xi", [(4.0, 1.0, 0.01), (1.5, 1e-3, 0.05)])
def test_solver_reproduces_oracle_pointwise(alpha, lam, delta_xi):
    params = closed_form.ClosedFormParams(M=500, delta_xi=delta_xi, alpha=alpha, lam=lam)
    system = closed_form.assembled_system(params)
    xs = np.linspace(-0.5, 0.5, 1001)
    expected = closed_form.reconstruction(params, xs)
    for solver in (solve_direct, solve_dual, solve_svd):
        got = closed_form.synthesize(solver(system), params.delta_xi, xs)
        assert np.max(np.abs(got - expected)) <= 1e-8


def test_spike_versus_smooth_regimes():
    # above the critical exponent the reconstruction stabilizes as the band
    # limit grows; below it the curve keeps collapsing onto the data point
    xs = np.linspace(-0.5, 0.5, 2001)

    def h(alpha, m):
        params = closed_form.ClosedFormParams(M=m, delta_xi=0.01, alpha=alpha, lam=1.0)
        return closed_form.reconstruction(params, xs)

    smooth_small, smooth_large = h(4.0, 1000), h(4.0, 4000)
    h0_smooth = float(h(4.0, 1000)[xs == 0.0][0])
    assert np.max(np.abs(smooth_small - smooth_large)) < 0.01 * h0_smooth

    spike_small, spike_large = h(0.5, 1000), h(0.5, 4000)
    h0_spike = float(spike_small[xs == 0.0][0])
    assert h0_spike > 1.9
    outside = np.abs(xs) > 0.05
    assert np.max(np.abs(spike_small[outside])) < 0.1 * h0_spike
    # no stable limit: the profile still moves and its tail keeps shrinking
    assert np.max(np.abs(spike_small - spike_large)) > 0.05 * h0_spike
    tail = np.abs(xs) >= 0.01
    assert np.max(np.abs(spike_large[tail])) < 0.5 * np.max(np.abs(spike_small[tail]))


def test_partial_sum_growth_subcritical():
    # alpha < 1: Z^2 grows like M^(1-alpha)
    ms = [100, 1000, 10000]
    z2 = [closed_form.ClosedFormParams(M=m, delta_xi=1.0, alpha=0.5, lam=1.0).z_squared for m in ms]
    slope = log_log_slope(ms, z2)
    assert abs(slope - 0.5) < 0.1


def test_partial_sum_bounded_supercritical():
    # alpha > 1: partial sums are Cauchy
    z2_a = closed_form.ClosedFormParams(M=1000, delta_xi=1.0, alpha=2.0, lam=1.0).z_squared
    z2_b = closed_form.ClosedFormParams(M=4000, delta_xi=1.0, alpha=2.0, lam=1.0).z_squared
    assert abs(z2_b - z2_a) < 1e-3


def test_params_validation():
    with pytest.raises(ValueError):
        closed_form.ClosedFormParams(M=0, delta_xi=1.0, alpha=1.0, lam=1.0)
    with pytest.raises(ValueError):
        closed_form.ClosedFormParams(M=2, delta_xi=-1.0, alpha=1.0, lam=1.0)
    with pytest.raises(ValueError):
        closed_form.ClosedFormParams(M=2, delta_xi=1.0, alpha=0.0, lam=1.0)
    with pytest.raises(ValueError):
        closed_form.ClosedFormParams(M=2, delta_xi=1.0, alpha=1.0, lam=-0.5)
