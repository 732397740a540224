"""Second-Hankel-determinant machinery for bi-starlike and bi-convex maps.

The package reconstructs the coefficient system behind the closed-form
bounds on |a2 a4 - a3^2| for bi-starlike and bi-convex functions of order
beta, evaluates every bound, profile and critical point in closed form, and
confirms each one against independent oracles: truncated-series algebra,
grid maximization, and seeded sampling of the underlying coefficient class.
"""

from .bounds import (
    BoundResult,
    Branch,
    QuarticProfile,
    Thresholds,
    convex_h22_bound,
    convex_surrogate_terms,
    critical_point,
    fekete_szego_bound,
    h22_bound,
    quartic_profile,
    starlike_h22_bound,
    starlike_surrogate_terms,
    surface,
    surrogate_terms,
    thresholds,
)
from .caratheodory import PCoefficients, coeffs_from_herglotz
from .errors import (
    BihankelError,
    ConstraintViolation,
    DomainError,
    NotNormalized,
    ZeroConstantTerm,
)
from .functionals import (
    BiCoefficients,
    FamilyId,
    Order,
    verify_coefficient_system,
)
from .optimizer import (
    SearchResult,
    empirical_max_h22,
    h22_from_params,
    maximize_1d,
    maximize_surrogate,
)
from .series import (
    TruncatedSeries,
    compose,
    convex_functional,
    divide,
    invert_composition,
    max_coeff_diff,
    multiply,
    starlike_functional,
)
from .verification import CheckResult, all_passed, run_checks

__version__ = "0.1.0"
