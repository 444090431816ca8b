"""Band-limited spectral regression with Sobolev-weighted penalties.

The package solves supervised regression in the frequency domain: the
unknown is a coefficient vector on a truncated symmetric lattice, fit by
penalized least squares with weights that grow with frequency, and backed
by a closed-form single-point oracle, shrinking-width norm diagnostics,
and a Gaussian kernel construction whose norm collapses below the critical
exponent.
"""

from .closed_form import ClosedFormParams
from .core import (
    Dataset,
    FittedModel,
    SolveConfig,
    SpectralCoefficients,
    point_evaluations,
    sobolev_objective,
)
from .critical import (
    TrichotomySweep,
    critical_constant,
    gaussian_homogeneous_norm,
    gaussian_radial_moment,
    gaussian_radial_moment_exact,
    gaussian_sobolev_norm,
    sphere_area,
    trichotomy_sweep,
)
from .errors import CapacityError, QuadratureError, SolverError
from .grid import FrequencyGrid
from .solver import AssembledSystem, assemble, fit, solve_direct, solve_dual, solve_svd
from .subcritical import (
    DecaySweep,
    GaussianInterpolant,
    build_interpolant,
    decay_sweep,
    interpolant_sobolev_norm,
)

__version__ = "0.1.0"

__all__ = [
    "AssembledSystem",
    "CapacityError",
    "ClosedFormParams",
    "Dataset",
    "DecaySweep",
    "FittedModel",
    "FrequencyGrid",
    "GaussianInterpolant",
    "QuadratureError",
    "SolveConfig",
    "SolverError",
    "SpectralCoefficients",
    "TrichotomySweep",
    "assemble",
    "build_interpolant",
    "critical_constant",
    "decay_sweep",
    "fit",
    "gaussian_homogeneous_norm",
    "gaussian_radial_moment",
    "gaussian_radial_moment_exact",
    "gaussian_sobolev_norm",
    "interpolant_sobolev_norm",
    "point_evaluations",
    "sobolev_objective",
    "solve_direct",
    "solve_dual",
    "solve_svd",
    "sphere_area",
    "trichotomy_sweep",
]
