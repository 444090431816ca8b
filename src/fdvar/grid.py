"""Truncated symmetric frequency lattices.

A grid is the set of frequencies ``delta_xi * J`` for integer multi-indices
``J`` in ``{-M, ..., M}^d``.  ``lattice()`` lists them row-major with axis 0
slowest and each axis ascending from ``-M``, so its first row is
``(-M, ..., -M)`` and its last ``(M, ..., M)``; every per-frequency array
(weights, phase columns, coefficients) follows that flat order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import positive_int, positive_real


@dataclass(frozen=True)
class FrequencyGrid:
    d: int
    M: int
    delta_xi: float

    def __post_init__(self):
        object.__setattr__(self, "d", positive_int("d", self.d))
        object.__setattr__(self, "M", positive_int("M", self.M))
        object.__setattr__(self, "delta_xi", positive_real("delta_xi", self.delta_xi))

    @property
    def axis_points(self) -> int:
        return 2 * self.M + 1

    @property
    def size(self) -> int:
        return self.axis_points**self.d

    def lattice(self) -> np.ndarray:
        """All multi-indices as an ``(size, d)`` integer array in flat order."""
        axes = [np.arange(-self.M, self.M + 1)] * self.d
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def squared_norms(self) -> np.ndarray:
        """``||J * delta_xi||^2`` for every lattice point, in flat order."""
        axis = np.arange(-self.M, self.M + 1, dtype=float) ** 2
        return functools.reduce(np.add.outer, [axis] * self.d).ravel() * self.delta_xi**2

    def axis_phases(self, x) -> np.ndarray:
        """``exp(2*pi*i*delta_xi*j*x)``, one row per entry of ``x``, columns ``j = -M..M``.

        Formed for ``j = 0..M`` and mirrored by conjugation, so column ``-j``
        is exactly ``conj`` of column ``j``.  Each ``j = q*B + r`` with
        ``B = ceil(sqrt(M+1))`` and ``0 <= r < B``, so the entry is the product
        of a coarse exponential (``q*B``) and a fine one (``r``): about
        ``2*sqrt(M+1)`` exponentials per entry of ``x`` instead of ``M+1``.
        The rows ``q`` fill ``B`` columns each; the last row may be partial.
        """
        width = math.isqrt(self.M) + 1
        rows, tail = divmod(self.M + 1, width)
        turn = 2j * np.pi * self.delta_xi
        fine = np.exp(np.multiply.outer(x, turn * np.arange(width)))
        coarse = np.exp(np.multiply.outer(x, turn * width * np.arange(rows + (tail > 0))))
        table = np.empty((len(x), self.axis_points), dtype=complex)
        full = table[:, self.M : self.M + rows * width].reshape(len(x), rows, width)
        np.multiply(coarse[:, :rows, None], fine[:, None, :], out=full)
        if tail:
            np.multiply(coarse[:, rows, None], fine[:, :tail], out=table[:, -tail:])
        np.conj(table[:, : self.M : -1], out=table[:, : self.M])
        return table

    def phases(self, points: np.ndarray) -> np.ndarray:
        """``exp(2*pi*i*delta_xi*J.x)``, one row per point of the n-by-d ``points``.

        Columns follow the flat order of ``J``.  Each row is the Kronecker
        product of the point's ``axis_phases``, so column ``-J`` is exactly
        ``conj`` of column ``J``; only ``solver.assemble`` needs these rows.
        """
        tables = [self.axis_phases(x) for x in np.asarray(points, dtype=float).T]
        return functools.reduce(
            lambda out, table: (out[:, :, None] * table[:, None, :]).reshape(len(out), -1), tables
        )

    def sobolev_weights(self, alpha: float) -> np.ndarray:
        """Spectral weights ``(1 + ||J*delta_xi||^2)^(alpha/2)``."""
        return (1.0 + self.squared_norms()) ** (positive_real("alpha", alpha) / 2.0)

    def negation_permutation(self) -> np.ndarray:
        """Permutation mapping each flat index to the index of ``-J``.

        Every axis ascends from ``-M`` to ``M``, so negation reverses the flat
        order.
        """
        return np.arange(self.size - 1, -1, -1, dtype=np.intp)
