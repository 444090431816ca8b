import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from fdvar import (
    Dataset,
    QuadratureError,
    SolverError,
    build_interpolant,
    decay_sweep,
    evaluate_interpolant,
    gaussian_homogeneous_norm,
    gaussian_sobolev_norm,
    interpolant_sobolev_norm,
    sphere_area,
)
from fdvar.critical import WEIGHT_BRACKET, WEIGHT_HOMOGENEOUS, _pair_term, _radial_cutoff
from fdvar.subcritical import _grid_norm

PLANE_DATA = Dataset(
    X=[[-1.5, 0.5], [-0.5, 0.5], [0.5, 0.5], [1.5, 0.5]],
    Y=[1.0, 0.9, 0.9, 1.0],
)


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------
def test_single_point_weights():
    interp = build_interpolant(Dataset(X=[0.0], Y=[2.0]), sigma=0.7)
    assert np.allclose(interp.coefficients, [2.0])
    assert interp.kernel_matrix.shape == (1, 1) and interp.kernel_matrix[0, 0] == 1.0


def test_two_point_narrow_kernel_weights():
    interp = build_interpolant(Dataset(X=[-0.5, 0.5], Y=[0.9, 0.9]), sigma=0.1)
    # off-diagonal entry exp(-50) is negligible
    assert np.max(np.abs(interp.coefficients - 0.9)) < 1e-8


def test_two_point_wide_kernel_weights():
    interp = build_interpolant(Dataset(X=[-0.5, 0.5], Y=[0.9, 0.9]), sigma=1.0)
    expected = 0.9 / (1.0 + math.exp(-0.5))
    assert np.allclose(interp.coefficients, expected)
    assert math.isclose(interp.dominance_margin, 1.0 - math.exp(-0.5))


def test_kernel_matrix_shape_and_symmetry():
    rng = np.random.default_rng(2)
    data = Dataset(X=rng.uniform(-1, 1, size=(5, 2)), Y=rng.normal(size=5))
    interp = build_interpolant(data, sigma=0.15)
    K = interp.kernel_matrix
    assert np.array_equal(K, K.T)
    assert np.allclose(np.diag(K), 1.0)
    assert np.max(np.abs(K @ interp.coefficients - data.Y)) <= 1e-10


def test_interpolation_exactness_across_sigmas():
    for sigma in (0.2, 0.1, 0.05, 0.025):
        interp = build_interpolant(PLANE_DATA, sigma)
        values = evaluate_interpolant(interp, PLANE_DATA.X)
        assert np.max(np.abs(values - PLANE_DATA.Y)) <= 1e-10


def test_evaluate_examples():
    interp = build_interpolant(Dataset(X=[0.0], Y=[2.0]), sigma=1.0)
    assert math.isclose(interp.evaluate(1.0), 2.0 * math.exp(-0.5))
    # ten widths away the Gaussian tail bound applies
    far = abs(interp.evaluate(10.0))
    assert far <= math.exp(-50.0) * np.sum(np.abs(interp.coefficients))


def test_evaluate_rejects_nonfinite_points_and_keeps_scalar_returns():
    line = build_interpolant(Dataset(X=[0.0], Y=[2.0]), sigma=1.0)
    plane = build_interpolant(PLANE_DATA, sigma=0.2)
    for interp, bad in [(line, math.nan), (line, [0.0, math.inf]), (plane, [[0.0, math.nan]])]:
        with pytest.raises(ValueError, match="finite"):
            evaluate_interpolant(interp, bad)
    assert isinstance(line.evaluate(0.5), float)
    assert isinstance(plane.evaluate([-1.5, 0.5]), float)
    assert plane.evaluate([[-1.5, 0.5]]).shape == (1,)


def test_dominance_warning_when_kernel_flat():
    data = Dataset(X=[-0.5, 0.0, 0.5], Y=[1.0, 1.0, 1.0])
    with pytest.warns(UserWarning, match="dominant"):
        interp = build_interpolant(data, sigma=1.5)
    assert interp.dominance_margin <= 0
    assert np.max(np.abs(evaluate_interpolant(interp, data.X) - data.Y)) <= 1e-10


def test_singular_kernel_advises_smaller_sigma():
    data = Dataset(X=[0.0, 1e-9], Y=[1.0, -1.0])
    with pytest.raises(SolverError, match="sigma"):
        build_interpolant(data, sigma=10.0)


def test_sigma_validation():
    with pytest.raises(ValueError):
        build_interpolant(PLANE_DATA, sigma=0.0)


def test_dominance_margin_positive_at_small_widths():
    # empirical threshold: sigma at half the minimum gap over sqrt(2 ln n)
    # keeps the kernel matrix diagonally dominant on random datasets
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        d = int(rng.integers(1, 4))
        X = rng.uniform(-1, 1, size=(n, d))
        gaps = np.linalg.norm(X[:, None, :] - X[None, :, :], axis=2)
        min_gap = float(np.min(gaps[np.triu_indices(n, k=1)]))
        if min_gap < 1e-3:
            continue
        sigma = 0.5 * min_gap / math.sqrt(2.0 * math.log(max(n, 2)))
        interp = build_interpolant(Dataset(X=X, Y=rng.normal(size=n)), sigma)
        assert interp.dominance_margin > 0


# ---------------------------------------------------------------------------
# spectral norms
# ---------------------------------------------------------------------------
def _bracket_norm_by_quadpack(d, alpha, sigma):
    # (2 pi)^d sigma^(d-alpha) omega_d * integral rho^(d-1) (sigma^2 + rho^2)^(alpha/2)
    # exp(-4 pi^2 rho^2) drho, by QUADPACK rather than the package's panel rule
    radial, _ = integrate.quad(
        lambda rho: rho ** (d - 1) * (sigma**2 + rho**2) ** (alpha / 2.0)
        * math.exp(-4.0 * math.pi**2 * rho**2),
        0.0, max(3.0, 2.0 * sigma), epsabs=0.0, epsrel=1e-12, limit=400,
    )
    return (2.0 * math.pi) ** d * sigma ** (d - alpha) * sphere_area(d) * radial


def _check_single_point_norm(d, alpha, sigma):
    # the homogeneous reference is exact; the bracket one is QUADPACK
    interp = build_interpolant(Dataset(X=np.zeros((1, d)), Y=[1.0]), sigma)
    bracket = interpolant_sobolev_norm(interp, alpha)
    assert abs(bracket / _bracket_norm_by_quadpack(d, alpha, sigma) - 1.0) <= 1e-8
    power = interpolant_sobolev_norm(interp, alpha, weight=WEIGHT_HOMOGENEOUS)
    assert abs(power / gaussian_homogeneous_norm(d, alpha, sigma) - 1.0) <= 1e-8


@pytest.mark.parametrize("d,alpha,sigma", [(1, 1.7, 0.3), (2, 1.0, 0.12), (3, 2.5, 0.4)])
def test_single_point_norm_reduces_to_gaussian_norm(d, alpha, sigma):
    _check_single_point_norm(d, alpha, sigma)


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(1, 3),
    alpha=st.floats(0.05, 8.0),
    sigma=st.floats(1e-3, 3.0),
)
@example(d=1, alpha=0.05, sigma=1e-3)
def test_single_point_norm_matches_gaussian_norm_over_parameter_box(d, alpha, sigma):
    _check_single_point_norm(d, alpha, sigma)


def test_pairwise_matches_grid_oracle_1d():
    interp = build_interpolant(Dataset(X=[-0.5, 0.5], Y=[0.9, 0.9]), sigma=0.15)
    fast = interpolant_sobolev_norm(interp, 1.5)
    brute = _grid_norm(interp, 1.5, WEIGHT_BRACKET)
    assert abs(fast / brute - 1.0) <= 1e-8


def test_pairwise_matches_grid_oracle_2d():
    interp = build_interpolant(PLANE_DATA, sigma=0.1)
    fast = interpolant_sobolev_norm(interp, 1.0)
    brute = _grid_norm(interp, 1.0, WEIGHT_BRACKET)
    assert abs(fast / brute - 1.0) <= 1e-8
    # the pure-power weight has a kink at the origin, which caps the
    # tensor-grid rule's accuracy; the pairwise route stays radial and smooth
    fast_hom = interpolant_sobolev_norm(interp, 1.0, weight=WEIGHT_HOMOGENEOUS)
    brute_hom = _grid_norm(interp, 1.0, WEIGHT_HOMOGENEOUS)
    assert abs(fast_hom / brute_hom - 1.0) <= 1e-5


def test_pairwise_matches_grid_oracle_3d():
    data = Dataset(X=[[0.0, 0.0, 0.0], [0.4, -0.2, 0.1], [-0.3, 0.3, 0.5]], Y=[1.0, -0.5, 0.8])
    interp = build_interpolant(data, sigma=0.3)
    fast = interpolant_sobolev_norm(interp, 1.5)
    brute = _grid_norm(interp, 1.5, WEIGHT_BRACKET)
    assert abs(fast / brute - 1.0) <= 1e-8


@settings(max_examples=60, deadline=None)
@given(
    d=st.sampled_from([1, 3]),
    weight=st.sampled_from([WEIGHT_BRACKET, WEIGHT_HOMOGENEOUS]),
    alpha=st.floats(0.05, 6.0),
    sigma=st.floats(0.02, 1.0),
    distance=st.floats(1e-3, 3.0),
)
def test_pair_term_matches_oscillatory_quadrature(d, weight, alpha, sigma, distance):
    # d = 1: 2 * integral w e cos(2 pi s r) dr; d = 3: (2 / s) * integral w e r sin(2 pi s r) dr,
    # each against QUADPACK's Fourier-weighted rule
    power = lambda r: (1.0 + r * r) ** (alpha / 2.0) if weight == WEIGHT_BRACKET else r**alpha
    envelope = lambda r: power(r) * math.exp(-4.0 * math.pi**2 * sigma**2 * r * r)
    upper = _radial_cutoff(d, alpha, sigma)
    fn, kind, scale = (
        (envelope, "cos", 2.0) if d == 1 else (lambda r: envelope(r) * r, "sin", 2.0 / distance)
    )
    with warnings.catch_warnings():
        # QUADPACK flags roundoff once it reaches double precision
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        radial, _ = integrate.quad(
            fn, 0.0, upper, weight=kind, wvar=2.0 * math.pi * distance, epsabs=0.0,
            epsrel=1e-13, limit=400,
        )
    expected = (2.0 * math.pi) ** d * sigma ** (2 * d) * scale * radial
    got = _pair_term(d, alpha, sigma, distance, weight)
    assert abs(got - expected) <= 1e-9 * _pair_term(d, alpha, sigma, 0.0, weight)


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 3),
    weight=st.sampled_from([WEIGHT_BRACKET, WEIGHT_HOMOGENEOUS]),
    alpha=st.floats(0.05, 1000.0),
    sigma=st.floats(1e-4, 3.0),
)
@example(d=1, weight=WEIGHT_BRACKET, alpha=300.0, sigma=0.1)
@example(d=1, weight=WEIGHT_HOMOGENEOUS, alpha=400.0, sigma=10**-1.25)
@example(d=3, weight=WEIGHT_BRACKET, alpha=1000.0, sigma=3.0)
def test_norms_finite_positive_or_quadrature_error(d, weight, alpha, sigma):
    # extreme alpha overflows or underflows a double: that must be a
    # QuadratureError, never nan, inf, OverflowError or a RuntimeWarning
    envelope = gaussian_sobolev_norm if weight == WEIGHT_BRACKET else gaussian_homogeneous_norm
    X = np.zeros((2, d))
    X[1, 0] = 1.0
    interp = build_interpolant(Dataset(X=X, Y=[1.0, 0.5]), sigma)
    norms = [
        lambda: envelope(d, alpha, sigma),
        lambda: interpolant_sobolev_norm(interp, alpha, weight=weight),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for norm in norms:
            try:
                value = norm()
            except QuadratureError:
                continue
            assert math.isfinite(value) and value > 0


def test_interpolant_norm_overflow_from_large_labels():
    # every pair term is finite; the labels' square takes the sum past a double
    interp = build_interpolant(Dataset(X=[0.0], Y=[1e200]), sigma=0.3)
    with pytest.raises(QuadratureError, match=r"alpha=1, sigma=0\.3 is inf"):
        interpolant_sobolev_norm(interp, 1.0)


def test_panel_cap_names_count_distance_and_sigma():
    # 1/(4 * distance) panels over a cutoff of ~1.4e4 at sigma = 1e-4: about 114k
    interp = build_interpolant(Dataset(X=[-1.0, 1.0], Y=[1.0, 1.0]), sigma=1e-4)
    message = r"distance 2, sigma=0\.0001 needs 11\d{4} panels, over the limit of 50000"
    with pytest.raises(QuadratureError, match=message):
        interpolant_sobolev_norm(interp, 1.0)


def test_norm_validation():
    interp = build_interpolant(Dataset(X=[0.0], Y=[1.0]), sigma=0.3)
    with pytest.raises(ValueError):
        interpolant_sobolev_norm(interp, 0.0)
    with pytest.raises(ValueError):
        interpolant_sobolev_norm(interp, 1.0, weight="nope")
    with pytest.raises(ValueError, match="d <= 3"):
        interpolant_sobolev_norm(build_interpolant(Dataset(X=np.zeros((1, 4)), Y=[1.0]), 0.3), 1.0)


# ---------------------------------------------------------------------------
# decay sweeps
# ---------------------------------------------------------------------------
def test_subcritical_decay_sweep():
    sweep = decay_sweep(PLANE_DATA, 1.0, [0.2, 0.1, 0.05, 0.025], weight=WEIGHT_HOMOGENEOUS)
    assert np.all(np.diff(sweep.norms) < 0)
    assert abs(sweep.fitted_slope - 1.0) <= 0.1
    assert np.all(sweep.margins > 0)


def test_supercritical_norms_grow():
    data = Dataset(X=[-0.5, 0.5], Y=[0.9, 0.9])
    sweep = decay_sweep(data, 2.0, [0.2, 0.1, 0.05, 0.025], weight=WEIGHT_HOMOGENEOUS)
    assert np.all(np.diff(sweep.norms) > 0)
    assert abs(sweep.fitted_slope + 1.0) <= 0.1


def test_bracket_slope_approaches_exponent_gap_at_small_sigma():
    # the bracket weight needs sigma well below the fixed Gaussian scale
    # ~1/(2 pi) before its slope settles at d - alpha
    sweep = decay_sweep(PLANE_DATA, 1.0, [0.02, 0.01, 0.005])
    assert abs(sweep.fitted_slope - 1.0) <= 0.1


def test_decay_sweep_validation():
    with pytest.raises(ValueError):
        decay_sweep(PLANE_DATA, 1.0, [0.1])
    with pytest.raises(ValueError):
        decay_sweep(PLANE_DATA, 1.0, [0.05, 0.1])
