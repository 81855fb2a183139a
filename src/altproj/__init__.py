"""Alternating projections onto subspaces of R^n.

Projection algebra on orthonormal-basis subspaces, the driven iteration
x_n = P_{j_n} x_{n-1} with convergence diagnostics, the Kaczmarz hyperplane
solver, Friedrichs-angle rate analysis, and a desk-scale construction of
schedules exhibiting a non-Cauchy checkpoint window.
"""

from . import analysis, divergence, iteration, kaczmarz, linalg, schedules, words
from .linalg import (
    Subspace,
    complement,
    contains,
    intersect,
    operator_norm,
    orthonormalize,
    principal_angles,
    project,
    projection_matrix,
    random_subspace,
    subspace_sum,
    subspaces_equal,
)
from .schedules import Schedule, ScheduleExhausted, parse_schedule, quasiperiod_bound, quasiperiod_index
from .iteration import RunConfig, Trace, kakutani_gaps, reference_limit, run, sakai_constant
from .analysis import RateCurve, friedrichs_cosine, rate_curve
from .kaczmarz import KaczmarzResult, LinearSystem, solve, thirds_demo
from .divergence import (
    BudgetExceeded,
    ExponentCapExceeded,
    GluedConstruction,
    QuarterCircleResult,
    TripleResult,
    build_triple,
    glue,
    k_of_eps,
    quarter_circle,
    replace_projection,
    sakai_blowup,
)
from .words import Word

__version__ = "0.1.0"
