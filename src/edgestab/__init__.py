"""Robust D-stability analysis for matrices of uncertain polynomials.

The package decides whether every member of an uncertain polynomial matrix
family keeps all roots of its determinant inside a chosen region of the
complex plane.  Families combine per-entry polytopes (convex hulls of vertex
polynomials) or interval polynomials; the decision reduces the continuum of
members to finitely many edge configurations, each checked by certified zero
exclusion on the region boundary, and cross-checks itself with a brute-force
sampling oracle.
"""

from .det import ParametricDeterminant, coefficient_box, det_matrix, det_parametric
from .edges import EdgeConfiguration, config_at, count_configs, iter_configs
from .errors import (
    BoundOrderViolation,
    DegreeDropError,
    DimensionMismatch,
    EdgeStabError,
    RegionNotHurwitzError,
    SchemaError,
    ValidationFailure,
    ZeroPolynomialError,
)
from .family import (
    EdgeSegment,
    IntervalEntry,
    MatrixFamily,
    PolytopeEntry,
    kharitonov_edges,
    kharitonov_vertices,
    polytope_edges,
    validate,
)
from .hull import origin_margin
from .oracle import (
    MemberRecord,
    SampleReport,
    find_counterexample_near,
    member_margin,
    sample_family,
)
from .poly import Polynomial, from_roots
from .region import Disk, HurwitzHalfPlane, ShiftedHalfPlane
from .stab import (
    Status,
    Tolerances,
    Verdict,
    Witness,
    analyze_family,
    analyze_family_detailed,
    analyze_interval,
    analyze_interval_detailed,
    box_stable,
    point_stable,
    segment_stable,
)

__version__ = "0.1.0"

__all__ = [
    "BoundOrderViolation",
    "DegreeDropError",
    "DimensionMismatch",
    "Disk",
    "EdgeConfiguration",
    "EdgeSegment",
    "EdgeStabError",
    "HurwitzHalfPlane",
    "IntervalEntry",
    "MatrixFamily",
    "MemberRecord",
    "ParametricDeterminant",
    "Polynomial",
    "PolytopeEntry",
    "RegionNotHurwitzError",
    "SampleReport",
    "SchemaError",
    "ShiftedHalfPlane",
    "Status",
    "Tolerances",
    "ValidationFailure",
    "Verdict",
    "Witness",
    "ZeroPolynomialError",
    "analyze_family",
    "analyze_family_detailed",
    "analyze_interval",
    "analyze_interval_detailed",
    "box_stable",
    "coefficient_box",
    "config_at",
    "count_configs",
    "det_matrix",
    "det_parametric",
    "find_counterexample_near",
    "from_roots",
    "iter_configs",
    "kharitonov_edges",
    "kharitonov_vertices",
    "member_margin",
    "origin_margin",
    "point_stable",
    "polytope_edges",
    "sample_family",
    "segment_stable",
    "validate",
]
