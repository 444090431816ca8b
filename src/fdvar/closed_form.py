"""Closed-form solution of the one-point, one-dimensional problem.

With a single sample at the origin, an even spectrum, and the zero mode
pinned to zero, the penalized problem reduces to coefficients on the
half-lattice ``j = 1..M`` and admits an explicit solution.  It serves as
an independent oracle for the general solver: feeding ``assembled_system``
to any backend must reproduce ``coefficients`` and ``reconstruction``.

Note the synthesis here uses integer frequencies ``j`` (period 1), with the
mesh entering only through the coefficient magnitudes; ``synthesize`` applies
the matching ``2*delta_xi*cos`` quadrature to a solver output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import nonnegative_real, positive_int, positive_real
from .solver import AssembledSystem


@dataclass(frozen=True)
class ClosedFormParams:
    M: int
    delta_xi: float
    alpha: float
    lam: float
    z_squared: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "M", positive_int("M", self.M))
        for name in ("delta_xi", "alpha"):
            object.__setattr__(self, name, positive_real(name, getattr(self, name)))
        object.__setattr__(self, "lam", nonnegative_real("lambda", self.lam))
        object.__setattr__(self, "z_squared", float(np.sum(self.inverse_weights())))

    def mode_weights(self) -> np.ndarray:
        """``(1 + j^2 delta_xi^2)^(alpha/2)`` for ``j = 1..M``."""
        j = np.arange(1, self.M + 1, dtype=float)
        return (1.0 + (j * self.delta_xi) ** 2) ** (self.alpha / 2.0)

    def inverse_weights(self) -> np.ndarray:
        return self.mode_weights() ** -1


def _cosine_sum(series: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``sum_j series[j-1] * cos(2*pi*j*x)`` for a real ``series``, ``j = 1..N``.

    Each ``j = q*B + r`` with ``B = ceil(sqrt(N+1))`` and ``0 <= r < B``, so
    ``exp(2*pi*i*j*x)`` is a coarse factor (``q*B``) times a fine one (``r``)
    and the sum is ``Re(sum_q coarse_q * (fine @ S)_q)``, where ``S[r, q]``
    holds the series at ``j = q*B + r`` (zero at ``j = 0`` and past ``N``).
    A point costs about ``2*sqrt(N+1)`` cosines and sines and one row of a
    real GEMM, in place of ``N`` cosines.  This path builds its own tables,
    apart from ``FrequencyGrid``, so that it stays an independent oracle for
    the solver.
    """
    width = math.isqrt(series.shape[0]) + 1
    rows = -(-(series.shape[0] + 1) // width)
    padded = np.zeros(rows * width)
    padded[1 : series.shape[0] + 1] = series
    S = padded.reshape(rows, width).T
    fine_turns = 2.0 * np.pi * np.arange(width)
    coarse_turns = 2.0 * np.pi * width * np.arange(rows)
    out = np.empty(x.shape[0])
    # Each temporary of a block is at most 1 MiB.  The GEMM packs the block's
    # rows into BLAS's own buffer, whose touched size grows with them: at
    # M = 1e5 a 4 MiB block (552 rows) added 3.4 MiB of resident memory, a
    # 1 MiB block (138 rows) 1.4 MiB, at equal speed.
    block = max(1, 2**17 // (2 * width + 4 * rows))
    for lo in range(0, x.shape[0], block):
        chunk = x[lo : lo + block]
        fine = np.multiply.outer(chunk, fine_turns)
        coarse = np.multiply.outer(chunk, coarse_turns)
        cos_part, sin_part = np.split(np.concatenate([np.cos(fine), np.sin(fine)]) @ S, 2)
        cos_sum = np.einsum("ij,ij->i", np.cos(coarse), cos_part)
        out[lo : lo + block] = cos_sum - np.einsum("ij,ij->i", np.sin(coarse), sin_part)
    return out


def coefficients(params: ClosedFormParams) -> np.ndarray:
    """Optimal half-lattice coefficients ``w_j^-1 / ((Z^2 + lam) * delta_xi)``."""
    return params.inverse_weights() / ((params.z_squared + params.lam) * params.delta_xi)


def reconstruction(params: ClosedFormParams, x) -> np.ndarray:
    """``(2 / (Z^2 + lam)) * sum_j w_j^-1 cos(2*pi*j*x)``, even in ``x``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    series = _cosine_sum(params.inverse_weights(), x)
    return 2.0 / (params.z_squared + params.lam) * series


def assembled_system(params: ClosedFormParams) -> AssembledSystem:
    """The half-lattice problem as a one-row system for the general backends.

    The label at the origin is fixed at 2, as in ``coefficients`` and
    ``reconstruction``.  The constraint row is all ones and the right-hand
    side is ``label / (2 * delta_xi) = 1 / delta_xi``, the scaling of the
    even, zero-DC reduction.
    """
    return AssembledSystem(
        matrix=np.ones((1, params.M), dtype=complex),
        weights=params.mode_weights(),
        lam=params.lam,
        rhs=np.array([1.0 / params.delta_xi]),
    )


def synthesize(phi, delta_xi: float, x) -> np.ndarray:
    """Real part of the even cosine synthesis ``2*delta_xi * sum_j phi_j cos(2*pi*j*x)``.

    The cosines are real, so only ``Re(phi)`` is summed, in real arithmetic.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return 2.0 * delta_xi * _cosine_sum(np.real(np.asarray(phi)), x)
