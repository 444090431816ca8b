import math

import numpy as np
import pytest
from scipy import integrate

from fdvar import (
    critical_constant,
    gaussian_homogeneous_norm,
    gaussian_radial_moment,
    gaussian_radial_moment_exact,
    gaussian_sobolev_norm,
    sphere_area,
    trichotomy_sweep,
)
from fdvar.critical import GAUSS_RATE, WEIGHT_HOMOGENEOUS, log_log_slope


def _quadpack(fn, lo, hi):
    # a reference independent of the package's panel rule
    value, _ = integrate.quad(fn, lo, hi, epsabs=0.0, epsrel=1e-12, limit=400)
    return value


def test_sphere_areas():
    assert math.isclose(sphere_area(1), 2.0)
    assert math.isclose(sphere_area(2), 2.0 * math.pi)
    assert math.isclose(sphere_area(3), 4.0 * math.pi)
    assert math.isclose(sphere_area(4), 2.0 * math.pi**2)
    with pytest.raises(ValueError):
        sphere_area(0)


def test_critical_constants():
    assert math.isclose(critical_constant(1), 1.0 / (2.0 * math.pi))
    assert math.isclose(critical_constant(2), 1.0 / (4.0 * math.pi))
    assert math.isclose(critical_constant(3), 1.0 / (2.0 * math.pi**2))


def test_moment_quadrature_matches_closed_forms():
    for k in range(1, 9):
        quad_value = gaussian_radial_moment(k)
        exact = gaussian_radial_moment_exact(k)
        assert abs(quad_value / exact - 1.0) <= 1e-10, k


def test_moment_exact_hand_values():
    # odd: (1/2)((k-1)/2)! (2pi)^-(k+1); even: Gaussian half-integral
    assert math.isclose(gaussian_radial_moment_exact(1), 0.5 / (2 * math.pi) ** 2)
    assert math.isclose(gaussian_radial_moment_exact(3), 0.5 / (2 * math.pi) ** 4)
    assert math.isclose(gaussian_radial_moment_exact(0), math.sqrt(math.pi) / (4 * math.pi))


def test_sobolev_norm_near_critical_constant():
    assert abs(gaussian_sobolev_norm(1, 1.0, 1e-3) / critical_constant(1) - 1.0) < 0.01
    assert abs(gaussian_sobolev_norm(2, 2.0, 1e-3) / critical_constant(2) - 1.0) < 0.01


def test_sobolev_norm_halving_slopes():
    # d - alpha = 1: halving sigma halves the norm
    a = gaussian_sobolev_norm(2, 1.0, 2e-3)
    b = gaussian_sobolev_norm(2, 1.0, 1e-3)
    assert abs(b / a - 0.5) < 0.01
    # d - alpha = -2: halving sigma quadruples the norm
    c = gaussian_sobolev_norm(1, 3.0, 2e-3)
    e = gaussian_sobolev_norm(1, 3.0, 1e-3)
    assert abs(e / c - 4.0) < 0.05


def test_sobolev_norm_at_large_alpha():
    # mpmath at 40 digits: 4 pi * quad((1 + r^2)^300 exp(-4 pi^2 r^2), [0, inf]),
    # which the binomial sum of Gaussian moments matches to 39 digits
    reference = 3.2742035920159305e151
    assert abs(gaussian_sobolev_norm(1, 600.0, 1.0) / reference - 1.0) <= 1e-12


def test_homogeneous_norm_past_gamma_overflow():
    # Gamma(200.5) overflows a double, the norm Gamma(200.5) / (2 pi)^400 does not;
    # mpmath at 40 digits gives 2.9795787288481339e54
    assert abs(gaussian_homogeneous_norm(1, 400.0, 1.0) / 2.9795787288481339e54 - 1.0) <= 1e-12


def test_homogeneous_norm_critical_sigma_independence():
    for d in (1, 2, 3):
        values = [gaussian_homogeneous_norm(d, float(d), s) for s in (1.0, 1e-2, 1e-4)]
        target = critical_constant(d)
        for value in values:
            assert abs(value / target - 1.0) <= 1e-8


def test_homogeneous_norm_total_mass_limit():
    # alpha -> 0 recovers the squared L2 mass pi^(d/2) sigma^d of the envelope
    for d, sigma in [(1, 0.3), (2, 0.07), (3, 1.4)]:
        value = gaussian_homogeneous_norm(d, 1e-12, sigma)
        assert abs(value / (math.pi ** (d / 2.0) * sigma**d) - 1.0) < 1e-9


def test_critical_correction_is_quadratic():
    # above the limit constant the critical norm rises like sigma^2 (d >= 2)
    for d in (2, 3):
        sigmas = np.logspace(-1, -2, 5)
        gaps = [gaussian_sobolev_norm(d, float(d), s) - critical_constant(d) for s in sigmas]
        assert all(g > 0 for g in gaps)
        assert abs(log_log_slope(sigmas, gaps) - 2.0) <= 0.1


def test_bracket_integral_bounds():
    # for sigma < 1 the sigma-dependent radial factor sits between the
    # homogeneous integral and its loosened two-piece bound
    for d, alpha, sigma in [(2, 3.0, 0.5), (1, 2.0, 0.9)]:
        bracket = _quadpack(
            lambda r: r ** (d - 1)
            * (sigma**2 + r**2) ** (alpha / 2.0)
            * math.exp(-GAUSS_RATE * r * r),
            0.0,
            3.0,
        )
        lower = _quadpack(
            lambda r: r ** (alpha + d - 1) * math.exp(-GAUSS_RATE * r * r), 0.0, 3.0
        )
        upper = (
            _quadpack(
                lambda r: r ** (d - 1)
                * (1.0 + r * r) ** (alpha / 2.0)
                * math.exp(-GAUSS_RATE * r * r),
                0.0,
                1.0,
            )
            + 2.0**alpha * lower
        )
        assert lower <= bracket <= upper


def test_norm_argument_validation():
    with pytest.raises(ValueError):
        gaussian_sobolev_norm(1, 1.0, 0.0)
    with pytest.raises(ValueError):
        gaussian_sobolev_norm(1, -1.0, 0.1)
    with pytest.raises(ValueError):
        gaussian_homogeneous_norm(0, 1.0, 0.1)
    with pytest.raises(ValueError):
        gaussian_radial_moment(-1)


# ---------------------------------------------------------------------------
# trichotomy sweeps
# ---------------------------------------------------------------------------
SWEEP_SIGMAS = np.logspace(-1.25, -3.25, 9)


def test_sweep_subcritical_vanishes():
    sweep = trichotomy_sweep(2, 1.0, SWEEP_SIGMAS)
    assert sweep.classification == "vanishes"
    assert abs(sweep.fitted_slope - 1.0) <= 0.05


def test_sweep_critical_converges():
    sweep = trichotomy_sweep(1, 1.0, SWEEP_SIGMAS)
    assert sweep.classification == "converges"
    assert abs(sweep.norms[-1] - critical_constant(1)) <= 0.01 * critical_constant(1)


def test_sweep_supercritical_diverges():
    sweep = trichotomy_sweep(1, 3.0, SWEEP_SIGMAS)
    assert sweep.classification == "diverges"
    assert abs(sweep.fitted_slope + 2.0) <= 0.05


@pytest.mark.parametrize("d,alpha", [(1, 0.5), (1, 3.0), (2, 1.0), (2, 4.0)])
def test_sweep_slope_tracks_exponent_gap(d, alpha):
    # bracket weight, two decades below 0.1
    sweep = trichotomy_sweep(d, alpha, SWEEP_SIGMAS)
    assert abs(sweep.fitted_slope - (d - alpha)) <= 0.05


def test_sweep_homogeneous_weight_slope_exact():
    sweep = trichotomy_sweep(2, 4.0, np.logspace(-1, -3, 9), weight=WEIGHT_HOMOGENEOUS)
    assert abs(sweep.fitted_slope + 2.0) <= 1e-6
    assert sweep.classification == "diverges"


def test_sweep_validation():
    with pytest.raises(ValueError):
        trichotomy_sweep(1, 1.0, [0.1, 0.01])
    with pytest.raises(ValueError):
        trichotomy_sweep(1, 1.0, [0.1, 0.2, 0.3])
    with pytest.raises(ValueError):
        trichotomy_sweep(1, 1.0, [0.1, 0.01, -0.001])
    with pytest.raises(ValueError):
        trichotomy_sweep(1, 1.0, SWEEP_SIGMAS, weight="nope")
