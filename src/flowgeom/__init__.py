"""Connections induced by SDE coefficients, their tensors, and Monte Carlo
checks of the identities they satisfy.

The package takes a stochastic differential equation on a manifold, given
by coefficients (X, A) in charts, builds the induced metric and connection
together with torsion, curvature and Ricci tensors, simulates the flow with
its variational and filtered companions, and estimates/verifies the
resulting probabilistic identities at desk scale.
"""

import os as _os
import sys as _sys

# The package's linear algebra is batched over points and paths on n <= 4
# dimensional matrices, far below the size at which OpenBLAS splits a call
# across threads.  The BLAS pool would only cost: its workers busy-wait for
# about 0.1 s after they start, on cores the first run wants.  So, unless the
# caller chose a count or NumPy is already loaded, OpenBLAS starts with one
# thread.
if "numpy" not in _sys.modules:
    _os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import (
    BadParams,
    ConfigError,
    DegenerateX,
    EvalFailure,
    ExprError,
    FlowgeomError,
    NotApplicable,
    OutOfOverlap,
    TooFewAlivePaths,
    UnknownScenario,
    UsageError,
    ZeroVector,
)
from .geometry import (
    PointData,
    christoffel,
    connection_routes_residual,
    covariant_derivative,
    curvature_from_christoffel,
    curvature_lw_direct,
    defining_property_residual,
    geometry_point,
    levi_civita_christoffel,
    lw_christoffel,
    lw_lc_split_residual,
    metricity_residual,
    moment_form,
    moment_form_extremes,
    one_form_from_spec,
    one_form_generator,
    point_data,
    ricci_bilinear,
    ricci_sharp,
    scalar_from_expr,
    scalar_generator,
    sectional_curvature,
    stratonovich_term,
    torsion_from_christoffel,
    tss_check,
)
from .linalg import DerivOracle
from .model import SdeSystem, build_scenario, scenario_names
from .stochastic import (
    SimResult,
    simulate,
    transport_along,
)
from .estimators import (
    CheckRow,
    McConfig,
    McReport,
    bismut_gradient,
    bochner_decay_check,
    decomposition_check,
    filtered_expectation_check,
    generator_check,
    ito_pathwise_check,
    moment_sandwich,
    one_form_semigroup_check,
    se_scaling_check,
    weak_order_check,
)

__version__ = "0.1.0"

__all__ = [
    "BadParams",
    "CheckRow",
    "McConfig",
    "McReport",
    "bismut_gradient",
    "bochner_decay_check",
    "decomposition_check",
    "filtered_expectation_check",
    "generator_check",
    "ito_pathwise_check",
    "moment_sandwich",
    "one_form_semigroup_check",
    "se_scaling_check",
    "weak_order_check",
    "ConfigError",
    "DegenerateX",
    "DerivOracle",
    "EvalFailure",
    "ExprError",
    "FlowgeomError",
    "NotApplicable",
    "OutOfOverlap",
    "PointData",
    "SdeSystem",
    "SimResult",
    "TooFewAlivePaths",
    "UnknownScenario",
    "UsageError",
    "ZeroVector",
    "build_scenario",
    "christoffel",
    "connection_routes_residual",
    "covariant_derivative",
    "curvature_from_christoffel",
    "curvature_lw_direct",
    "defining_property_residual",
    "geometry_point",
    "levi_civita_christoffel",
    "lw_christoffel",
    "lw_lc_split_residual",
    "metricity_residual",
    "moment_form",
    "moment_form_extremes",
    "one_form_from_spec",
    "one_form_generator",
    "point_data",
    "ricci_bilinear",
    "ricci_sharp",
    "scalar_from_expr",
    "scalar_generator",
    "scenario_names",
    "sectional_curvature",
    "simulate",
    "stratonovich_term",
    "torsion_from_christoffel",
    "transport_along",
    "tss_check",
    "__version__",
]
