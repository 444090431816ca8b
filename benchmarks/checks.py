"""Independent correctness oracles: the benchmark's own direct sums.

Nothing here calls fdvar.  A fitted model is checked through the
stationarity condition of the penalised least-squares problem,

    lam * w_J * phi_J = sum_k (Y_k - h(x_k)) * exp(-2 pi i dxi J.x_k),

on a seeded sample of modes, with ``h`` summed directly over the whole
lattice.  Reconstructions are compared with the same direct sum at a few
seeded points.
"""

from __future__ import annotations

import json

import numpy as np

SYNTHESIS_GATE = 1e-12  # synthesis error relative to max|h| (the ROADMAP gate)
IMAG_GATE = 1e-8  # the CLI's limit on the imaginary residue of an eval
CHECK_MODES = 64
CHECK_POINTS = 8
_BLOCK = 1 << 20  # complex phases formed per block, to keep the check's memory small


def lattice(d: int, M: int) -> np.ndarray:
    """Integer multi-indices in row-major order, axis 0 slowest, each axis from -M."""
    axis = np.arange(-M, M + 1)
    return np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1).reshape(-1, d)


def sobolev_weights(J: np.ndarray, delta_xi: float, alpha: float) -> np.ndarray:
    return (1.0 + delta_xi**2 * np.sum(J.astype(float) ** 2, axis=1)) ** (alpha / 2.0)


def synthesize(phi: np.ndarray, lat: np.ndarray, delta_xi: float, points: np.ndarray) -> np.ndarray:
    """``h(x) = sum_J phi_J exp(2 pi i dxi J.x)`` at each row of ``points``."""
    points = np.asarray(points, dtype=float).reshape(len(points), lat.shape[1])
    out = np.empty(len(points), dtype=complex)
    rows = max(1, _BLOCK // len(lat))
    for lo in range(0, len(points), rows):
        phases = np.exp(2j * np.pi * delta_xi * (points[lo : lo + rows] @ lat.T))
        out[lo : lo + rows] = phases @ phi
    return out


def stationarity_error(phi, lat, delta_xi, alpha, lam, X, Y, rng) -> float:
    """Gradient of the objective on sampled modes, relative to ``A^H Y`` there."""
    X = np.asarray(X, dtype=float).reshape(len(Y), lat.shape[1])
    modes = rng.choice(len(lat), size=min(CHECK_MODES, len(lat)), replace=False)
    J = lat[modes]
    adjoint = np.exp(-2j * np.pi * delta_xi * (J @ X.T))
    residual = Y - synthesize(phi, lat, delta_xi, X)
    gradient = lam * sobolev_weights(J, delta_xi, alpha) * phi[modes] - adjoint @ residual
    return float(np.linalg.norm(gradient) / np.linalg.norm(adjoint @ Y))


def sample_points(count: int, rng) -> np.ndarray:
    return rng.choice(count, size=min(CHECK_POINTS, count), replace=False)


def synthesis_error(phi, lat, delta_xi, points, values, rng) -> float:
    """Largest gap to the direct sum at sampled points, relative to max|h|.

    ``values`` may be the complex output of ``evaluate`` or the real column
    of an eval CSV; the direct sum is compared in the same form.
    """
    idx = sample_points(len(points), rng)
    direct = synthesize(phi, lat, delta_xi, np.asarray(points)[idx])
    if not np.iscomplexobj(values):
        direct = direct.real
    return float(np.max(np.abs(values[idx] - direct)) / np.max(np.abs(values)))


def closed_form_values(M, delta_xi, alpha, lam, label, x) -> np.ndarray:
    """One-point solution ``label/(Z^2+lam) * sum_j w_j^-1 cos(2 pi j x)``, directly."""
    j = np.arange(1, M + 1, dtype=float)
    inv_w = (1.0 + (j * delta_xi) ** 2) ** (-alpha / 2.0)
    series = np.cos(2.0 * np.pi * np.outer(np.atleast_1d(x), j)) @ inv_w
    return label / (inv_w.sum() + lam) * series


def closed_form_error(M, delta_xi, alpha, lam, label, xs, values, idx) -> float:
    direct = closed_form_values(M, delta_xi, alpha, lam, label, xs[idx])
    return float(np.max(np.abs(values[idx] - direct)) / np.max(np.abs(values)))


def model_coefficients(path) -> tuple[np.ndarray, dict]:
    """Coefficients and payload of a model JSON file, read without fdvar.io."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    pairs = np.asarray(payload["coefficients"], dtype=float)
    return pairs[:, 0] + 1j * pairs[:, 1], payload


def read_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
