"""Natural diagonal lifted structures on cotangent bundles of space forms.

The package builds the almost product tensor P, the lifted metric G and the
fundamental 2-form Omega on T*M over constant-curvature bases, and verifies
their defining identities (P^2 = I, vanishing Nijenhuis tensor, metric
compatibility, closure of Omega) numerically at sampled phase points, with
derivatives exact to rounding by complex step.  The evaluators and oracles
that no check reaches are imported from their own modules: ``P_adapted``
and ``G_adapted`` from :mod:`paralift.lifted`, ``curvature_at`` from
:mod:`paralift.spaceform`, ``nijenhuis_at`` and ``analytic_dOmega`` from
:mod:`paralift.verify`.
"""

__version__ = "0.1.0"

from .coefficients import (
    ScalarFamily,
    StructureSpec,
    affine,
    almost_product_spec,
    constant,
    exponential,
    integrable_spec,
    polynomial,
    rational_spec,
    with_metric,
)
from .errors import (
    ChartDomainError,
    ConfigError,
    ContractError,
    DegenerateCoefficient,
    RangeError,
)
from .lifted import LiftedStructure
from .phase import (
    CotangentPoint,
    energy_density,
    make_point,
)
from .report import CheckReport
from .spaceform import (
    ChartModel,
    SpaceForm,
    conformal_ball,
    flat_space,
    perturbed_conformal,
)
from .verify import (
    DEFAULT_TOLERANCES,
    PhaseSample,
    fd_oracle,
    run_check,
    sample_points,
)

__all__ = [
    "affine", "almost_product_spec", "ChartDomainError", "ChartModel",
    "CheckReport", "ConfigError", "conformal_ball", "constant",
    "ContractError", "CotangentPoint", "DEFAULT_TOLERANCES",
    "DegenerateCoefficient", "energy_density", "exponential", "fd_oracle",
    "flat_space", "integrable_spec", "LiftedStructure", "make_point",
    "perturbed_conformal", "PhaseSample", "polynomial", "RangeError",
    "rational_spec", "run_check", "sample_points", "ScalarFamily",
    "SpaceForm", "StructureSpec", "with_metric",
]
