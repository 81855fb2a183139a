"""Alternating projections onto subspaces of R^n.

Projection algebra on orthonormal-basis subspaces, the driven iteration
x_n = P_{j_n} x_{n-1} with convergence diagnostics, the Kaczmarz hyperplane
solver, Friedrichs-angle rate analysis, and a desk-scale construction of
schedules exhibiting a non-Cauchy checkpoint window.

Importing the package loads no submodule: each name below, and each
submodule, is imported on first access (PEP 562), so a CLI subcommand pays
only for the modules it runs.
"""

import importlib

#: submodule -> the names the package exports from it
_EXPORTS = {
    "linalg": (
        "Subspace", "complement", "contains", "intersect", "operator_norm",
        "orthonormalize", "principal_angles", "project", "projection_matrix",
        "random_subspace", "subspace_sum", "subspaces_equal",
    ),
    "schedules": ("Schedule", "ScheduleExhausted", "parse_schedule", "quasiperiod_bound",
                  "quasiperiod_index"),
    "iteration": ("RunConfig", "Trace", "kakutani_gaps", "reference_limit", "run",
                  "sakai_constant"),
    "analysis": ("RateCurve", "friedrichs_cosine", "rate_curve"),
    "kaczmarz": ("KaczmarzResult", "LinearSystem", "solve", "thirds_demo"),
    "divergence": (
        "BudgetExceeded", "ExponentCapExceeded", "GluedConstruction", "QuarterCircleResult",
        "TripleResult", "build_triple", "glue", "k_of_eps", "quarter_circle",
        "replace_projection", "sakai_blowup",
    ),
    "words": ("Word",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
