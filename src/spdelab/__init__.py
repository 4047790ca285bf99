"""Numerical laboratory for a linear parabolic SPDE with fractional noise.

Simulates a heat-type equation on (0,1) and (0,1)^2 driven by spatially
colored cylindrical Wiener noise (a negative fractional power of I - Lap,
realized by sinc quadrature) scaled by a rough scalar process with no
finite second moment, and measures pathwise convergence rates, truncated
moment inequalities, and trajectory Hölder regularity by Monte Carlo.
"""

from .convergence import (
    ConvergenceReport,
    convergence_study,
    fit_rate,
    relative_error,
    theoretical_rates,
)
from .driver import ScalarDriver, sample_driver
from .fracpow import QuadratureSpec, apply_qgamma, make_spec, scalar_qgamma
from .l0 import (
    ElementaryIntegrand,
    bdg_ratio,
    bdg_sum_ratio,
    dp_metric,
    holder_exponent,
    ito_integral_elementary,
)
from .mesh import (
    DyadicMesh,
    FemOperators,
    assemble,
    build_mesh,
    mass_factor,
    restriction_matrix,
)
from .noise import (
    NoiseStream,
    aggregate_increment,
    fine_increment,
    restrict_increment,
)
from .stepper import PathState, SchemeConfig, evolve, evolve_fast

__version__ = "0.1.0"

__all__ = [
    "ConvergenceReport",
    "DyadicMesh",
    "ElementaryIntegrand",
    "FemOperators",
    "NoiseStream",
    "PathState",
    "QuadratureSpec",
    "ScalarDriver",
    "SchemeConfig",
    "aggregate_increment",
    "apply_qgamma",
    "assemble",
    "bdg_ratio",
    "bdg_sum_ratio",
    "build_mesh",
    "convergence_study",
    "dp_metric",
    "evolve",
    "evolve_fast",
    "fine_increment",
    "fit_rate",
    "holder_exponent",
    "ito_integral_elementary",
    "make_spec",
    "mass_factor",
    "relative_error",
    "restrict_increment",
    "restriction_matrix",
    "sample_driver",
    "scalar_qgamma",
    "theoretical_rates",
]
