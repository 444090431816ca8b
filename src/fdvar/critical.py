"""Radial Gaussian spectral-norm integrals and the limiting trichotomy.

For the normalized Gaussian envelope whose spatial profile is
``exp(-||x||^2 / (2 sigma^2))``, the squared spectral norm reduces to a
one-dimensional radial integral against ``exp(-4 pi^2 r^2)``.  As
``sigma -> 0`` the norm vanishes for ``alpha < d``, diverges for
``alpha > d``, and converges to a dimension-only constant at ``alpha = d``.
The bracket weight's norm and ``subcritical``'s bracket pair terms run on one
panel rule.  The homogeneous weight's norm is one log-gamma, and its pair
terms are that norm times ``1F1(k; d/2; -s^2 / (4 sigma^2))`` up to
``alpha = 6``, the range in which scipy's ``hyp1f1`` was measured against
mpmath.  Past it, and at any term that breaks ``|T(s)| <= T(0)``, the panel
rule computes the term; ``_pair_term`` is also the tests' oracle for the
closed form.  A norm that is not a finite positive double is a
``QuadratureError``.

``trichotomy_sweep`` here and ``subcritical.decay_sweep`` are the only loops
over widths, and ``checked_widths`` is their one rule: at least k widths,
each positive and finite, strictly decreasing (k = 3 and 2).  ``fdvar
critical`` applies it to its two ends before taking their logarithms.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import hyp1f1, j0

from .errors import QuadratureError, positive_int, positive_real

GAUSS_RATE = 4.0 * math.pi**2

WEIGHT_BRACKET = "bracket"
WEIGHT_HOMOGENEOUS = "homogeneous"
WEIGHTS = (WEIGHT_BRACKET, WEIGHT_HOMOGENEOUS)

_SLOPE_BAND = 0.05
_TERMINAL_BAND = 0.01

_LOG_2PI = math.log(2.0 * math.pi)
_LOG_MAX = math.log(sys.float_info.max)
_GL_NODES, _GL_WEIGHTS = leggauss(16)
_LOG_GL_WEIGHTS = np.log(_GL_WEIGHTS)
_MAX_PANELS = 50_000
# Edges of the first panel's split, as fractions of its width: 8^-10 .. 8^-1.
_ORIGIN_GRADING = 8.0 ** -np.arange(10, 0, -1.0)
# Largest alpha of the homogeneous closed form.  Against mpmath at 40 digits,
# over some 2500 alphas in (0, 6] per d = 1, 2, 3, each at about 230 values of
# z = s^2 / (4 sigma^2) from 0 to 1e7, scipy's hyp1f1(k, d/2, -z) was within
# 8.7e-15 of the value.  Just past it, at d = 2 and alpha 6.025, it is off by
# 4.5e-13; near integer k it gets worse, as at d = 1 and alpha 9 + 2e-8 (3e-7).
_CLOSED_FORM_MAX_ALPHA = 6.0


def sphere_area(d: int) -> float:
    """Surface area of the unit (d-1)-sphere, ``2 pi^(d/2) / Gamma(d/2)``."""
    d = positive_int("d", d)
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def critical_constant(d: int) -> float:
    """Limit of the squared norm at the critical exponent ``alpha = d``."""
    d = positive_int("d", d)
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
    Composite 16-point Gauss-Legendre; a panel spans at most one period
    ``1/distance`` of ``m_d`` and ``1/(4 pi sigma)``, and the first is split
    geometrically toward the origin, where the homogeneous weight
    ``r^alpha`` has a kink and the bracket weight varies on the unit scale.
    The integrand, prefactor and node weights are one exponent, so a term
    overflows only if the integral does.  At distance 0 (``m_d = 1``) the
    integral is a norm and must be finite and positive.
    """
    where = f"radial integral at d={d}, alpha={alpha:g}, distance {distance:g}, sigma={sigma:g}"
    upper = _radial_cutoff(d, alpha, sigma)
    oscillation = 1.0 / distance if distance > 0 else math.inf
    n_panels = int(math.ceil(upper / min(1.0 / (4.0 * math.pi * sigma), oscillation)))
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
    if checked_weight(weight) == WEIGHT_BRACKET:
        return _panel_integral(d, alpha, sigma, distance, d - 1.0, 0.5 * alpha)
    return _panel_integral(d, alpha, sigma, distance, alpha + d - 1.0, 0.0)


def _homogeneous_pair_terms(d: int, alpha: float, sigma: float, distances) -> np.ndarray:
    """The homogeneous ``_pair_term`` at each of ``distances``, in closed form.

    ``T(s) = T(0) 1F1(k; d/2; -s^2 / (4 sigma^2))`` with ``k = (alpha + d)/2``
    and ``T(0) = gaussian_homogeneous_norm``: the Hankel transform of a
    Gaussian times a power (Gradshteyn-Ryzhik 6.631.1; DLMF 10.22.52, 13.2).
    ``T(s) / T(0)`` is a mean of ``m_d``, so a ratio outside [-1, 1] or nan is
    scipy's error.  Such terms, and every term past ``_CLOSED_FORM_MAX_ALPHA``,
    come from the panel rule, which raises ``QuadratureError`` where it must.
    """
    distances = np.asarray(distances, dtype=float)
    ratio = np.full(distances.shape, math.nan)
    if alpha <= _CLOSED_FORM_MAX_ALPHA:
        with np.errstate(over="ignore"):
            ratio = hyp1f1(0.5 * (alpha + d), 0.5 * d, -np.square(distances / (2.0 * sigma)))
    trusted = np.abs(ratio) <= 1.0  # False at nan
    terms = np.empty(distances.shape)
    if trusted.any():
        terms[trusted] = gaussian_homogeneous_norm(d, alpha, sigma) * ratio[trusted]
    for i in np.flatnonzero(~trusted):
        terms[i] = _pair_term(d, alpha, sigma, float(distances[i]), WEIGHT_HOMOGENEOUS)
    return terms


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


def _norm_args(d: int, alpha: float, sigma: float) -> tuple[int, float, float]:
    return positive_int("d", d), positive_real("alpha", alpha), positive_real("sigma", sigma)


def gaussian_sobolev_norm(d: int, alpha: float, sigma: float) -> float:
    """Squared bracket-weighted spectral norm of the Gaussian envelope.

    Equals ``(2 pi)^d sigma^(d-alpha) omega_d *
    integral_0^inf rho^(d-1) (sigma^2 + rho^2)^(alpha/2) exp(-4 pi^2 rho^2) drho``;
    with ``rho = sigma r`` it is the distance-0 bracket ``_pair_term``.
    """
    d, alpha, sigma = _norm_args(d, alpha, sigma)
    return _pair_term(d, alpha, sigma, 0.0, WEIGHT_BRACKET)


def gaussian_homogeneous_norm(d: int, alpha: float, sigma: float) -> float:
    """Same norm with the pure-power weight ``||xi||^alpha``.

    The radial factor is the sigma-free moment of order ``alpha + d - 1``, so
    the value scales exactly as ``sigma^(d-alpha)`` and equals the critical
    constant when ``alpha = d``.  It is formed in logarithms, so every value
    that fits in a double is returned; any other raises ``QuadratureError``.
    """
    d, alpha, sigma = _norm_args(d, alpha, sigma)
    log_value = d * _LOG_2PI + (d - alpha) * math.log(sigma) + math.log(sphere_area(d))
    log_value += _log_moment(alpha + d - 1)
    value = math.exp(log_value) if log_value <= _LOG_MAX else math.inf
    if not 0 < value < math.inf:
        where = f"homogeneous norm at d={d}, alpha={alpha:g}, sigma={sigma:g}"
        raise QuadratureError(f"{where} is exp({log_value:.6g}), not a finite positive double")
    return value


def checked_weight(weight) -> str:
    """The name of a spectral weight: one of ``WEIGHTS``."""
    if weight not in WEIGHTS:
        raise ValueError(f"weight must be one of {WEIGHTS}, got {weight!r}")
    return weight


def checked_widths(sigmas, count: int) -> np.ndarray:
    """``sigmas`` as floats: at least ``count`` widths, positive, finite, strictly decreasing."""
    sigmas = np.asarray(sigmas, dtype=float)
    if sigmas.size < count:
        raise ValueError(f"need at least {count} sigma values, got {sigmas.tolist()}")
    if not np.all(np.isfinite(sigmas) & (sigmas > 0)):
        raise ValueError(f"sigmas must be positive and finite, got {sigmas.tolist()}")
    if np.any(np.diff(sigmas) >= 0):
        raise ValueError(f"sigmas must be strictly decreasing, got {sigmas.tolist()}")
    return sigmas


def log_log_slope(x, y) -> float:
    """Least-squares slope of ``log y`` against ``log x``, all positive and finite."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    bad = np.flatnonzero(~(np.isfinite(x) & (x > 0) & np.isfinite(y) & (y > 0)))
    if bad.size:
        at, value = float(x[bad[0]]), float(y[bad[0]])
        raise ValueError(f"log-log slope needs positive finite values, got y = {value} at x = {at}")
    lx = np.log(x)
    ly = np.log(y)
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
    sigmas = checked_widths(sigmas, 3)
    bracket = checked_weight(weight) == WEIGHT_BRACKET
    d = positive_int("d", d)
    norm_fn = gaussian_sobolev_norm if bracket else gaussian_homogeneous_norm
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
