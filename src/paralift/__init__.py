"""Natural diagonal lifted structures on cotangent bundles of space forms.

The package builds the almost product tensor P, the lifted metric G and the
fundamental 2-form Omega on T*M over constant-curvature bases, and verifies
their defining identities (P^2 = I, vanishing Nijenhuis tensor, metric
compatibility, closure of Omega) numerically at sampled phase points, with
derivatives exact to rounding by complex step.
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
from .lifted import (
    G_adapted,
    LiftedStructure,
    Omega_adapted,
    Omega_coordinate,
    P_adapted,
    P_coordinate_function,
)
from .phase import (
    CotangentPoint,
    energy_density,
    make_point,
)
from .report import CheckReport
from .spaceform import (
    ChartModel,
    SpaceForm,
    christoffel_at,
    conformal_ball,
    curvature_at,
    flat_space,
    perturbed_conformal,
)
from .verify import (
    DEFAULT_TOLERANCES,
    PhaseSample,
    analytic_dOmega,
    check_almost_product,
    check_closure,
    check_closure_agreement,
    check_compatibility,
    check_integrability,
    check_metric_signature,
    check_para_kahler,
    check_space_form,
    exterior_derivative_2form,
    fd_oracle,
    nijenhuis_at,
    run_check,
    sample_points,
)
