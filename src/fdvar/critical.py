"""Radial Gaussian spectral-norm integrals and the limiting trichotomy.

For the normalized Gaussian envelope whose spatial profile is
``exp(-||x||^2 / (2 sigma^2))``, the squared spectral norm reduces to a
one-dimensional radial integral against ``exp(-4 pi^2 r^2)``.  As
``sigma -> 0`` the norm vanishes for ``alpha < d``, diverges for
``alpha > d``, and converges to a dimension-only constant at ``alpha = d``.
Every radial integral, including ``subcritical``'s pair terms, runs on one
panel rule; a norm that is not a finite positive double is a ``QuadratureError``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import j0

from .errors import QuadratureError

GAUSS_RATE = 4.0 * math.pi**2

WEIGHT_BRACKET = "bracket"
WEIGHT_HOMOGENEOUS = "homogeneous"

_SLOPE_BAND = 0.05
_TERMINAL_BAND = 0.01

_LOG_2PI = math.log(2.0 * math.pi)
_LOG_MAX = math.log(sys.float_info.max)
_GL_NODES, _GL_WEIGHTS = leggauss(16)
_LOG_GL_WEIGHTS = np.log(_GL_WEIGHTS)
_MAX_PANELS = 50_000
# Edges of the first panel's split, as fractions of its width: 8^-10 .. 8^-1.
_ORIGIN_GRADING = 8.0 ** -np.arange(10, 0, -1.0)


def sphere_area(d: int) -> float:
    """Surface area of the unit (d-1)-sphere, ``2 pi^(d/2) / Gamma(d/2)``."""
    if not isinstance(d, int) or d < 1:
        raise ValueError("dimension must be a positive integer")
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def critical_constant(d: int) -> float:
    """Limit of the squared norm at the critical exponent ``alpha = d``."""
    if not isinstance(d, int) or d < 1:
        raise ValueError("dimension must be a positive integer")
    return 0.5 * math.factorial(d - 1) * (2.0 * math.pi) ** (-d) * sphere_area(d)


def _radial_cutoff(d: int, alpha: float, sigma: float) -> float:
    # Gaussian tail exp(-4 pi^2 sigma^2 R^2) below ~1e-26 even after the
    # polynomial weight growth.
    return math.sqrt(60.0 + 10.0 * (alpha + d)) / (2.0 * math.pi * sigma)


# Angular mean of ``cos(t u . e)`` over unit vectors ``u`` in R^d.
_ANGULAR_MEAN = {1: np.cos, 2: j0, 3: lambda t: np.sinc(t / np.pi)}


def _panel_integral(
    d: int, alpha: float, sigma: float, distance: float, power: float, bracket: float
) -> float:
    """The one radial quadrature behind every Gaussian norm, moment and pair term.

    Returns ``(2 pi)^d sigma^(2d) omega_d * integral_0^R r^power (1 + r^2)^bracket
    exp(-4 pi^2 sigma^2 r^2) m_d(2 pi distance r) dr`` with ``R = _radial_cutoff``.
    Composite 16-point Gauss-Legendre with panels resolving the fastest
    scale; the first panel is split geometrically toward the origin, where
    the homogeneous weight ``r^alpha`` has a kink and the bracket weight
    varies on the unit scale.  The integrand, prefactor and node weights are
    one exponent, so a term overflows only if the integral does.  At
    distance 0 (``m_d = 1``) the integral is a norm and must be finite and
    positive.
    """
    where = f"radial integral at d={d}, alpha={alpha:g}, distance {distance:g}, sigma={sigma:g}"
    upper = _radial_cutoff(d, alpha, sigma)
    oscillation = 1.0 / (4.0 * distance) if distance > 0 else math.inf
    n_panels = int(math.ceil(upper / min(upper / 8.0, 1.0 / (4.0 * math.pi * sigma), oscillation)))
    if n_panels > _MAX_PANELS:
        raise QuadratureError(f"{where} needs {n_panels} panels, over the limit of {_MAX_PANELS}")
    step = upper / n_panels
    edges = np.concatenate([[0.0], step * _ORIGIN_GRADING, step * np.arange(1, n_panels + 1)])
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    r = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    log_scale = d * _LOG_2PI + 2 * d * math.log(sigma) + math.log(sphere_area(d))
    exponent = ((np.log(half) + log_scale)[:, None] + _LOG_GL_WEIGHTS[None, :]).ravel()
    square = r * r
    exponent += power * np.log(r) - GAUSS_RATE * sigma * sigma * square
    if bracket:
        exponent += bracket * np.log1p(square)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.exp(exponent, out=exponent)
        if distance > 0:
            terms *= _ANGULAR_MEAN[d](2.0 * np.pi * distance * r)
        value = float(np.sum(terms))
    if not math.isfinite(value) or (distance == 0 and value <= 0):
        raise QuadratureError(f"{where} is {value:g}, not a finite positive double")
    return value


def _pair_term(d: int, alpha: float, sigma: float, distance: float, weight: str) -> float:
    """``integral w(||xi||) psi_sigma(xi)^2 cos(2 pi xi . v) dxi`` for ``||v|| = distance``.

    In polar form it is ``(2 pi)^d sigma^(2d) omega_d * integral_0^R w(r)
    exp(-4 pi^2 sigma^2 r^2) r^(d-1) m_d(2 pi r distance) dr``, with ``m_d``
    the angular mean of cos.
    """
    if weight == WEIGHT_BRACKET:
        return _panel_integral(d, alpha, sigma, distance, d - 1.0, 0.5 * alpha)
    if weight == WEIGHT_HOMOGENEOUS:
        return _panel_integral(d, alpha, sigma, distance, alpha + d - 1.0, 0.0)
    raise ValueError(f"unknown weight {weight!r}")


def gaussian_radial_moment(k: int) -> float:
    """``integral_0^inf r^k exp(-4 pi^2 r^2) dr`` by the panel rule of every norm."""
    if not isinstance(k, int) or k < 0:
        raise ValueError("moment order must be a nonnegative integer")
    # At d = 1 and sigma = 1 the polar prefactor (2 pi)^d sigma^(2d) omega_d is 4 pi.
    return _panel_integral(1, float(k), 1.0, 0.0, float(k), 0.0) / (4.0 * math.pi)


def _log_moment(k: float) -> float:
    # integral_0^inf r^k exp(-4 pi^2 r^2) dr = Gamma((k+1)/2) / (2 (2 pi)^(k+1)), DLMF 5.9.1
    return math.lgamma((k + 1.0) / 2.0) - math.log(2.0) - (k + 1.0) * _LOG_2PI


def gaussian_radial_moment_exact(k: int) -> float:
    """Closed form of the same moment, ``Gamma((k+1)/2) / (2 (2 pi)^(k+1))``."""
    if not isinstance(k, int) or k < 0:
        raise ValueError("moment order must be a nonnegative integer")
    return math.exp(_log_moment(k))


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
    integral_0^inf rho^(d-1) (sigma^2 + rho^2)^(alpha/2) exp(-4 pi^2 rho^2) drho``;
    with ``rho = sigma r`` it is the distance-0 bracket ``_pair_term``.
    """
    _validate_norm_args(d, alpha, sigma)
    return _pair_term(d, alpha, sigma, 0.0, WEIGHT_BRACKET)


def gaussian_homogeneous_norm(d: int, alpha: float, sigma: float) -> float:
    """Same norm with the pure-power weight ``||xi||^alpha``.

    The radial factor is the sigma-free moment of order ``alpha + d - 1``, so
    the value scales exactly as ``sigma^(d-alpha)`` and equals the critical
    constant when ``alpha = d``.  It is formed in logarithms, so every value
    that fits in a double is returned; any other raises ``QuadratureError``.
    """
    _validate_norm_args(d, alpha, sigma)
    log_value = d * _LOG_2PI + (d - alpha) * math.log(sigma) + math.log(sphere_area(d))
    log_value += _log_moment(alpha + d - 1)
    value = math.exp(log_value) if log_value <= _LOG_MAX else math.inf
    if not 0 < value < math.inf:
        where = f"homogeneous norm at d={d}, alpha={alpha:g}, sigma={sigma:g}"
        raise QuadratureError(f"{where} is exp({log_value:.6g}), not a finite positive double")
    return value


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
