"""Second-Hankel-determinant machinery for bi-starlike and bi-convex maps.

The package reconstructs the coefficient system behind the closed-form
bounds on |a2 a4 - a3^2| for bi-starlike and bi-convex functions of order
beta, evaluates every bound, profile and critical point in closed form, and
confirms each one against independent oracles: truncated-series algebra,
grid maximization, and seeded sampling of the underlying coefficient class.

The public names are imported from their submodules on first use (PEP 562),
so `import bihankel` loads no submodule and not numpy: the command line
(`bihankel.cli`) must configure numpy's BLAS before numpy is loaded.
"""

from importlib import import_module

__version__ = "0.1.0"

_SUBMODULE_NAMES = {
    "bounds": (
        "BoundResult",
        "Branch",
        "QuarticProfile",
        "Thresholds",
        "convex_h22_bound",
        "convex_surrogate_terms",
        "critical_point",
        "fekete_szego_bound",
        "h22_bound",
        "quartic_profile",
        "starlike_h22_bound",
        "starlike_surrogate_terms",
        "surface",
        "surrogate_terms",
        "thresholds",
    ),
    "caratheodory": ("PCoefficients", "coeffs_from_herglotz"),
    "errors": (
        "BihankelError",
        "ConstraintViolation",
        "DomainError",
        "NotNormalized",
        "ZeroConstantTerm",
    ),
    "functionals": ("BiCoefficients", "FamilyId", "Order", "verify_coefficient_system"),
    "optimizer": (
        "SearchResult",
        "empirical_max_h22",
        "h22_from_params",
        "maximize_1d",
        "maximize_surrogate",
    ),
    "series": (
        "TruncatedSeries",
        "compose",
        "convex_functional",
        "divide",
        "invert_composition",
        "max_coeff_diff",
        "multiply",
        "starlike_functional",
    ),
    "verification": ("CheckResult", "all_passed", "run_checks"),
}
# public name -> the submodule that defines it
_SUBMODULE_OF = {name: module for module, names in _SUBMODULE_NAMES.items() for name in names}

__all__ = list(_SUBMODULE_OF)


def __getattr__(name: str):
    try:
        module = _SUBMODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
