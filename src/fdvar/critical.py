"""Radial Gaussian spectral-norm integrals and the limiting trichotomy.

For the normalized Gaussian envelope whose spatial profile is
``exp(-||x||^2 / (2 sigma^2))``, the squared spectral norm reduces to a
one-dimensional radial integral against ``exp(-4 pi^2 r^2)``.  As
``sigma -> 0`` the norm vanishes for ``alpha < d``, diverges for
``alpha > d``, and converges to a dimension-only constant at ``alpha = d``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import gamma as gamma_fn

from .errors import QuadratureError

GAUSS_RATE = 4.0 * math.pi**2

WEIGHT_BRACKET = "bracket"
WEIGHT_HOMOGENEOUS = "homogeneous"

_SLOPE_BAND = 0.05
_TERMINAL_BAND = 0.01


def sphere_area(d: int) -> float:
    """Surface area of the unit (d-1)-sphere, ``2 pi^(d/2) / Gamma(d/2)``."""
    if not isinstance(d, int) or d < 1:
        raise ValueError("dimension must be a positive integer")
    return 2.0 * math.pi ** (d / 2.0) / gamma_fn(d / 2.0)


def critical_constant(d: int) -> float:
    """Limit of the squared norm at the critical exponent ``alpha = d``."""
    if not isinstance(d, int) or d < 1:
        raise ValueError("dimension must be a positive integer")
    return 0.5 * math.factorial(d - 1) * (2.0 * math.pi) ** (-d) * sphere_area(d)


def _quad(fn, lo: float, hi: float, rel_tol: float = 1e-9) -> float:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, err = integrate.quad(fn, lo, hi, epsabs=1e-300, epsrel=1e-12, limit=400)
    if not math.isfinite(value):
        raise QuadratureError("radial integral did not converge")
    if abs(value) > 0 and err > rel_tol * abs(value):
        raise QuadratureError(
            f"radial quadrature error estimate {err:.3e} exceeds {rel_tol:.0e} relative"
        )
    return value


def gaussian_radial_moment(k: int) -> float:
    """``integral_0^inf r^k exp(-4 pi^2 r^2) dr`` by adaptive quadrature."""
    if not isinstance(k, int) or k < 0:
        raise ValueError("moment order must be a nonnegative integer")
    return _quad(lambda r: r**k * math.exp(-GAUSS_RATE * r * r), 0.0, 3.0, rel_tol=1e-11)


def _moment(k: float) -> float:
    # integral_0^inf r^k exp(-4 pi^2 r^2) dr = Gamma((k+1)/2) / (2 (2 pi)^(k+1)), DLMF 5.9.1
    return 0.5 * math.gamma((k + 1.0) / 2.0) * (2.0 * math.pi) ** (-(k + 1.0))


def gaussian_radial_moment_exact(k: int) -> float:
    """Closed form of the same moment, ``Gamma((k+1)/2) / (2 (2 pi)^(k+1))``."""
    if not isinstance(k, int) or k < 0:
        raise ValueError("moment order must be a nonnegative integer")
    return _moment(k)


def _validate_norm_args(d: int, alpha: float, sigma: float) -> None:
    if not isinstance(d, int) or d < 1:
        raise ValueError("dimension must be a positive integer")
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError("alpha must be positive")
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError("sigma must be positive")


def gaussian_sobolev_norm(d: int, alpha: float, sigma: float) -> float:
    """Squared bracket-weighted spectral norm of the Gaussian envelope.

    Equals ``(2 pi)^d sigma^(d-alpha) omega_d *
    integral_0^inf r^(d-1) (sigma^2 + r^2)^(alpha/2) exp(-4 pi^2 r^2) dr``.
    """
    _validate_norm_args(d, alpha, sigma)
    upper = max(3.0, 2.0 * sigma)

    def integrand(r):
        return r ** (d - 1) * (sigma * sigma + r * r) ** (alpha / 2.0) * math.exp(
            -GAUSS_RATE * r * r
        )

    radial = _quad(integrand, 0.0, upper)
    return (2.0 * math.pi) ** d * sigma ** (d - alpha) * sphere_area(d) * radial


def gaussian_homogeneous_norm(d: int, alpha: float, sigma: float) -> float:
    """Same norm with the pure-power weight ``||xi||^alpha``.

    The radial factor is the sigma-free moment of order ``alpha + d - 1``, so
    the value scales exactly as ``sigma^(d-alpha)`` and equals the critical
    constant when ``alpha = d``.
    """
    _validate_norm_args(d, alpha, sigma)
    radial = _moment(alpha + d - 1)
    return (2.0 * math.pi) ** d * sigma ** (d - alpha) * sphere_area(d) * radial


def log_log_slope(x, y) -> float:
    """Least-squares slope of ``log y`` against ``log x``."""
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    lx = lx - lx.mean()
    return float(np.sum(lx * (ly - ly.mean())) / np.sum(lx * lx))


@dataclass(frozen=True)
class TrichotomySweep:
    d: int
    alpha: float
    sigmas: np.ndarray
    norms: np.ndarray
    fitted_slope: float
    classification: str
    weight: str


def trichotomy_sweep(d: int, alpha: float, sigmas, weight: str = WEIGHT_BRACKET) -> TrichotomySweep:
    """Evaluate the norm along a shrinking sigma sequence and classify the limit.

    Classification is data-driven: a fitted log-log slope above +0.05 means
    the norm vanishes, below -0.05 it diverges, and a flat sweep must land
    within 1% of the critical constant to count as convergent.  A flat sweep
    that misses the constant is reported as ``indeterminate``.
    """
    sigmas = np.asarray(sigmas, dtype=float)
    if sigmas.size < 3:
        raise ValueError("need at least 3 sigma values")
    if np.any(sigmas <= 0) or not np.all(np.isfinite(sigmas)):
        raise ValueError("sigmas must be positive and finite")
    if np.any(np.diff(sigmas) >= 0):
        raise ValueError("sigmas must be strictly decreasing")
    if weight == WEIGHT_BRACKET:
        norm_fn = gaussian_sobolev_norm
    elif weight == WEIGHT_HOMOGENEOUS:
        norm_fn = gaussian_homogeneous_norm
    else:
        raise ValueError(f"unknown weight {weight!r}")
    norms = np.array([norm_fn(d, alpha, s) for s in sigmas])
    slope = log_log_slope(sigmas, norms)
    if slope > _SLOPE_BAND:
        verdict = "vanishes"
    elif slope < -_SLOPE_BAND:
        verdict = "diverges"
    else:
        terminal = norms[-1]
        target = critical_constant(d)
        verdict = "converges" if abs(terminal / target - 1.0) <= _TERMINAL_BAND else "indeterminate"
    return TrichotomySweep(
        d=d,
        alpha=float(alpha),
        sigmas=sigmas,
        norms=norms,
        fitted_slope=slope,
        classification=verdict,
        weight=weight,
    )
