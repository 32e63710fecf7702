"""Exact computer algebra for the dynamics of left polynomials over
quaternion and octonion algebras.

Core surface: exact scalars (`FieldSpec`, `Scalar`), the algebras
(`QuatSpec`/`Quaternion`, `OctSpec`/`Octonion`), left polynomials (`Poly`,
over an algebra or over the ground field), the companion-polynomial root
solver (`roots` and friends), and the dynamics layer (`fixed_points`,
`orbit`, `certify_periodic` and its r = 1 case `octonion_fixed_check`).
Scalars, quaternions and octonions share one integer structure-constant
kernel.  Only `Poly.compose_iterate` builds composites, within the fixed
`DEGREE_CAP` and a budget on their column height and work; the dynamics layer
is bounded by a budget on steps and bit height instead.
"""

__version__ = "0.1.0"

from .errors import (
    AlgebraError,
    ClassSearchIncompleteError,
    ConvergenceError,
    DegreeCapError,
    FieldMismatchError,
    NoRealEmbeddingError,
    ParseError,
    SpecMismatchError,
    SplitAlgebraError,
    UnsupportedAlgebraError,
    UsageError,
    ZeroPolynomialError,
)
from .scalars import QQ, FieldSpec, Scalar
from .quaternions import QuatSpec, Quaternion
from .octonions import OctSpec, Octonion
from .polynomials import DEGREE_CAP, Poly
from .solver import (
    DEFAULT_PRECISION,
    DEFAULT_TOLERANCE,
    ClassSolution,
    ConjClass,
    companion,
    extract_classes,
    roots,
    solve_in_class,
)
from .dynamics import (
    OctFixedReport,
    OrbitReport,
    PeriodicVerdict,
    certify_periodic,
    fixed_points,
    octonion_fixed_check,
    orbit,
)
from .parsing import parse_element, parse_poly, parse_scalar

__all__ = [
    "__version__",
    "AlgebraError",
    "ClassSearchIncompleteError",
    "ConvergenceError",
    "DegreeCapError",
    "FieldMismatchError",
    "NoRealEmbeddingError",
    "ParseError",
    "SpecMismatchError",
    "SplitAlgebraError",
    "UnsupportedAlgebraError",
    "UsageError",
    "ZeroPolynomialError",
    "QQ",
    "FieldSpec",
    "Scalar",
    "QuatSpec",
    "Quaternion",
    "OctSpec",
    "Octonion",
    "DEGREE_CAP",
    "Poly",
    "DEFAULT_PRECISION",
    "DEFAULT_TOLERANCE",
    "ClassSolution",
    "ConjClass",
    "companion",
    "extract_classes",
    "roots",
    "solve_in_class",
    "OctFixedReport",
    "OrbitReport",
    "PeriodicVerdict",
    "certify_periodic",
    "fixed_points",
    "octonion_fixed_check",
    "orbit",
    "parse_element",
    "parse_poly",
    "parse_scalar",
]
