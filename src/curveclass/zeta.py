"""L-polynomial, class number and p-part of the divisor class group.

The numerator L(u) of the zeta function is recovered from the point counts
N_1, ..., N_g by Newton's identities, and the top half of its coefficients by
the functional equation a_{2g-i} = q^{g-i} a_i.  Every constructed polynomial
is checked against the coefficient form of the Riemann hypothesis for curves
(|a_i| <= C(2g, i) q^{i/2}, verified exactly by squaring) and, budget
permitting, against a directly counted N_{g+1} it must predict.  The budget
is checked for q^g before N_1 is counted, so a curve past it builds no field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .budget import check_budget
from .errors import CurveClassError
from .curve import Curve, count_points


@dataclass(frozen=True)
class LPolynomial:
    """Integer polynomial a_0 + a_1 u + ... + a_{2g} u^{2g} with a_0 = 1."""

    q: int
    genus: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        g, q = self.genus, self.q
        a = self.coeffs
        if len(a) != 2 * g + 1:
            raise CurveClassError("L-polynomial must have degree exactly 2g")
        if a[0] != 1:
            raise CurveClassError("L-polynomial must have constant term 1")
        for i in range(g + 1):
            if a[2 * g - i] != q ** (g - i) * a[i]:
                raise CurveClassError("functional equation fails")
        for i in range(2 * g + 1):
            if a[i] ** 2 > math.comb(2 * g, i) ** 2 * q**i:
                raise CurveClassError(f"coefficient a_{i} breaks the Weil bound")
        if self.class_number < 1:
            raise CurveClassError("class number must be positive")

    def evaluate(self, u):
        acc: Fraction | int = 0
        for c in reversed(self.coeffs):
            acc = acc * u + c
        return acc

    @property
    def class_number(self) -> int:
        # h = L(1)
        return sum(self.coeffs)

    def power_sum(self, n: int) -> int:
        """Sum of n-th powers of the inverse roots of L."""
        if n < 1:
            raise CurveClassError("power sum index must be >= 1")
        a = self.coeffs
        ps: list[int] = []
        for k in range(1, n + 1):
            s = k * a[k] if k < len(a) else 0
            for i in range(1, k):
                if i < len(a):
                    s += a[i] * ps[k - i - 1]
            ps.append(-s)
        return ps[n - 1]

    def predicted_count(self, n: int) -> int:
        return self.q**n + 1 - self.power_sum(n)

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "genus": self.genus,
            "coefficients": list(self.coeffs),
            "class_number": self.class_number,
        }


def l_polynomial(curve: Curve, budget: int | None = None) -> LPolynomial:
    """Compute L(u) for a validated curve from the counts N_1 .. N_g."""
    g = curve.genus
    q = curve.field.q
    cap = check_budget(q, g, budget)
    counts = [count_points(curve, n, cap) for n in range(1, g + 1)]
    psums = [q**n + 1 - counts[n - 1] for n in range(1, g + 1)]
    a = [1] + [0] * (2 * g)
    for k in range(1, g + 1):
        s = 0
        for n in range(1, k + 1):
            s += psums[n - 1] * a[k - n]
        if s % k:
            raise CurveClassError("internal: Newton recursion must divide exactly")
        a[k] = -s // k
    for i in range(g):
        a[2 * g - i] = q ** (g - i) * a[i]
    lp = LPolynomial(q=q, genus=g, coeffs=tuple(a))
    # cross-check one count past the ones consumed, when affordable
    if q ** (g + 1) <= cap:
        direct = count_points(curve, g + 1, cap)
        if direct != lp.predicted_count(g + 1):
            raise CurveClassError(
                "internal: L-polynomial fails to predict the next point count"
            )
    return lp


def class_number(curve: Curve, budget: int | None = None) -> int:
    return l_polynomial(curve, budget).class_number


def pic_p_nontrivial(lp: LPolynomial, p: int) -> bool:
    """Whether the degree-zero divisor class group has a point of order p."""
    if p < 2:
        raise CurveClassError("p must be a prime")
    return lp.class_number % p == 0
