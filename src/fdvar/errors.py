"""Error types shared across the package, and the one rule for each input number.

Plain ``ValueError`` is used for domain errors (bad arguments, malformed
inputs); the classes below mark failures of the numerical machinery itself.
Every input number passes one of the rules at the end, which return it converted
or raise a ``ValueError`` naming the quantity and value; a ``bool`` never passes.
"""

import numbers
import sys


class CapacityError(RuntimeError):
    """A requested grid would exceed the configured memory budget."""


class SolverError(RuntimeError):
    """A linear solve failed or did not meet its accuracy contract."""


class QuadratureError(RuntimeError):
    """Numerical integration did not reach the requested accuracy."""


def _number(name: str, value, rule: str, accept) -> float:
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if real and abs(value) <= sys.float_info.max and accept(float(value)):  # not NaN, inf or huge
        return float(value)
    raise ValueError(f"{name} must be {rule}, got {value!r}")


def positive_int(name: str, value) -> int:
    """The dimension ``d``, the band limit ``M`` or a count: an integral value of at least 1."""
    _number(name, value, "a positive integer", lambda x: x >= 1 and x.is_integer())
    return int(value)  # exact, where a float of a large integer is not


def nonnegative_int(name: str, value) -> int:
    """A seed: an integral value of at least 0."""
    _number(name, value, "a nonnegative integer", lambda x: x >= 0 and x.is_integer())
    return int(value)


def positive_real(name: str, value) -> float:
    """``delta_xi``, ``alpha``, ``sigma``, ``solve_tolerance`` or ``memory_budget_mb``."""
    return _number(name, value, "positive and finite", lambda x: x > 0)


def nonnegative_real(name: str, value) -> float:
    """The penalty ``lambda``, or a model's objective or residual."""
    return _number(name, value, "nonnegative and finite", lambda x: x >= 0)


def finite_real(name: str, value) -> float:
    """A coordinate or a label."""
    return _number(name, value, "a finite number", lambda x: True)
