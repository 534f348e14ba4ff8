"""K(pi,1) classification of marked smooth projective curves over finite fields.

The package decides, for a curve X over F_q with disjoint finite sets S
(punctures) and T (marked closed points) and a prime p, whether the marked
curve (X - S, T) has the K(pi,1)-property for p, and computes the arithmetic
invariants the decision rests on: genus, closed points, the L-polynomial,
the class number h = L(1), p-torsion of the Picard group, and exact Ihara
sums in Q(sqrt q).

Importing the package loads every module a ``classify`` call uses and no
more.  The G-module harness (``GModule``, ``coinvariants`` and the other
``gmodule`` exports, with ``snf`` below them) loads on first access to one
of its names, through the module-level ``__getattr__``.
"""

from .classify import (
    CASE_TAGS,
    ClassificationReport,
    MarkedInstance,
    VERDICT_FALSE,
    VERDICT_TRUE,
    VERDICT_UNDETERMINED,
    classify,
    euler_bookkeeping,
    fundamental_group_case,
    mu_p_in_field,
    resolve_point_degrees,
)
from .counting import affine_count, backend_name
from .curve import (
    ClosedPoint,
    Curve,
    DoubleCover,
    ProjectiveLine,
    census,
    closed_point_counts,
    closed_points,
    count_points,
    curve_to_json,
    field_from_json,
    field_to_json,
    irreducibles,
    model_from_json,
    model_to_json,
    validate,
)
from .errors import (
    BudgetExceeded,
    CharacteristicClash,
    CurveClassError,
    GeometricallyReducible,
    InconsistentInput,
    NonPrimeCharacteristic,
    NotFinite,
    NotInvertible,
    OracleUnsupportedModel,
    ReducibleModulus,
    SingularModel,
    UnknownClosedPoint,
    UnsupportedCase,
    UnsupportedModel,
    ZeroPolynomial,
)
from .gf import (
    NEG_INF,
    Field,
    Poly,
    field_create,
    necklace_count,
    poly_gcd,
)
from .ihara import IharaResult, QSqrtValue, degree_term, ihara_sum, ihara_sum_exceeds
from .jacobian import AbelianGroupStructure, jacobian_group
from .zeta import LPolynomial, class_number, l_polynomial, pic_p_nontrivial

__all__ = [
    "AbelianGroupStructure",
    "BudgetExceeded",
    "CASE_TAGS",
    "CharacteristicClash",
    "ClassificationReport",
    "ClosedPoint",
    "Coinvariants",
    "Curve",
    "CurveClassError",
    "DoubleCover",
    "Field",
    "GModule",
    "GeometricallyReducible",
    "IharaResult",
    "InconsistentInput",
    "LPolynomial",
    "MarkedInstance",
    "NEG_INF",
    "NonPrimeCharacteristic",
    "NotFinite",
    "NotInvertible",
    "OracleUnsupportedModel",
    "Poly",
    "ProjectiveLine",
    "QSqrtValue",
    "ReducibleModulus",
    "SingularModel",
    "UnknownClosedPoint",
    "UnsupportedCase",
    "UnsupportedModel",
    "VERDICT_FALSE",
    "VERDICT_TRUE",
    "VERDICT_UNDETERMINED",
    "ZeroPolynomial",
    "affine_count",
    "backend_name",
    "census",
    "class_number",
    "classify",
    "closed_point_counts",
    "closed_points",
    "closure",
    "coinvariants",
    "count_points",
    "curve_to_json",
    "degree_term",
    "euler_bookkeeping",
    "field_create",
    "field_from_json",
    "field_to_json",
    "fundamental_group_case",
    "harness_lines",
    "ihara_sum",
    "ihara_sum_exceeds",
    "invariants_rank",
    "invcoinv_dims",
    "irreducibles",
    "jacobian_group",
    "l_polynomial",
    "lemma51_check",
    "model_from_json",
    "model_to_json",
    "mu_p_in_field",
    "necklace_count",
    "pic_p_nontrivial",
    "poly_gcd",
    "random_gmodule",
    "resolve_point_degrees",
    "sign_module",
    "validate",
]

__version__ = "0.1.0"

_GMODULE_EXPORTS = {
    "Coinvariants",
    "GModule",
    "closure",
    "coinvariants",
    "harness_lines",
    "invariants_rank",
    "invcoinv_dims",
    "lemma51_check",
    "random_gmodule",
    "sign_module",
}


def __getattr__(name):
    if name in _GMODULE_EXPORTS:
        from . import gmodule

        return getattr(gmodule, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
