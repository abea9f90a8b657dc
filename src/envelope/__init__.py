"""Numerical verification of one-valued primitives on multiply connected
plane domains.

Three equivalent viewpoints are implemented and cross-checked: vanishing
polynomial moments over a homology basis, explicit construction of iterated
primitives, and holomorphic extension to the simply connected envelope.
The boundary module carries the same program over to measures on sampled
rectifiable curves.
"""

__version__ = "0.1.0"

from .boundary import (SampledCurve, analytic_ibp_residual, boundary_moment,
                       cauchy_transform, chord_arc_constant, curve_from_csv,
                       difference_quotient_check, boundary_duality,
                       ibp_residual, nontangential_check, odd_warp,
                       primitive_tower, sample_path, unit_circle_samples)
from .errors import (CurveDataError, EnvelopeError,
                     ExtensionPreconditionError, GeometryError,
                     NonFiniteIntegrandError, ParseError, PoleFindingError,
                     PoleInDomainError, PointOnPathError, PoleProximityError,
                     QuadratureBudgetError, ScaleOverflowError,
                     WindingResidualError)
from .expr import Expr, PoleRecord, evaluate, format_expr, parse, pole_set
from .extension import (CrossVerifyReport, Decomposition, LaurentComponent,
                        cross_verify, decompose, evaluate_extension,
                        laurent_coefficients)
from .geometry import (Arc, DomainSpec, GridDomain, Line, Path, circle,
                       homology_basis, interior_point,
                       path_from_json, path_to_json, polygon, rasterize,
                       rectangle, simply_connected_hull, winding_number)
from .moments import (MomentVector, PrimitiveOrderVerdict, ZeroTolerance,
                      construct_primitive, derivative_check,
                      max_primitive_order, moment, moment_vector,
                      path_independence_check, ring_route)
from .quadrature import QuadratureResult, integrate

__all__ = [
    "__version__",
    "Arc", "CrossVerifyReport", "CurveDataError", "Decomposition",
    "DomainSpec", "EnvelopeError", "Expr", "ExtensionPreconditionError",
    "GeometryError", "GridDomain", "LaurentComponent", "Line",
    "MomentVector", "NonFiniteIntegrandError", "ParseError", "Path",
    "PoleFindingError",
    "PoleInDomainError", "PointOnPathError", "PoleProximityError", "PoleRecord",
    "PrimitiveOrderVerdict", "QuadratureBudgetError", "QuadratureResult",
    "SampledCurve", "ScaleOverflowError", "WindingResidualError",
    "ZeroTolerance",
    "analytic_ibp_residual", "boundary_moment",
    "cauchy_transform", "chord_arc_constant", "circle",
    "construct_primitive", "cross_verify", "curve_from_csv", "decompose",
    "derivative_check", "difference_quotient_check",
    "boundary_duality", "evaluate", "evaluate_extension", "format_expr",
    "homology_basis", "ibp_residual", "integrate",
    "interior_point", "laurent_coefficients",
    "max_primitive_order", "moment", "moment_vector", "nontangential_check",
    "odd_warp", "parse", "path_from_json", "path_independence_check",
    "path_to_json", "pole_set", "polygon", "primitive_tower", "rasterize",
    "rectangle", "ring_route", "sample_path", "simply_connected_hull",
    "unit_circle_samples", "winding_number",
]
