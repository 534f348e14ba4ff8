"""Exception types shared across the package."""


class CurveClassError(Exception):
    """Base class for all package-specific errors."""


class NonPrimeCharacteristic(CurveClassError):
    """Field constructor was given a composite or non-positive p."""


class ReducibleModulus(CurveClassError):
    """Supplied field modulus is not irreducible over F_p."""


class ZeroPolynomial(CurveClassError):
    """Operation (leading coefficient, normalization, squarefree test) rejects the zero polynomial."""


class SingularModel(CurveClassError):
    """Curve model has a singular point and is rejected outright."""


class GeometricallyReducible(CurveClassError):
    """Model does not define a geometrically irreducible curve."""


class UnsupportedModel(CurveClassError):
    """Model shape outside the supported families (e.g. h != 0 in odd characteristic)."""


class BudgetExceeded(CurveClassError):
    """Requested enumeration would exceed the configured budget."""


class OracleUnsupportedModel(CurveClassError):
    """Divisor-class oracle only handles the projective line and odd-characteristic imaginary models."""


class NotFinite(CurveClassError):
    """Matrix group closure exceeded the cap without closing."""


class NotInvertible(CurveClassError):
    """Generator matrix is not invertible over the integers (determinant not +-1)."""


class InconsistentInput(CurveClassError):
    """Numeric inputs violate a structural constraint (e.g. h1 > 1 + s)."""


class CharacteristicClash(CurveClassError):
    """Root-of-unity test asked with p equal to the field characteristic."""


class UnsupportedCase(CurveClassError):
    """Marked-curve classification outside the decided territory (char != p with marks)."""


class UnknownClosedPoint(CurveClassError):
    """A closed-point id does not resolve on the given curve."""
