"""Exact arithmetic in finite fields F_q and in F_q[x].

Conventions used throughout the package:

* A field F_q, q = p^m, is F_p[t]/(modulus).  The modulus is stored as a
  coefficient tuple over F_p, low degree first, monic.  When no modulus is
  supplied the canonical one is chosen: the monic irreducible of degree m
  whose coefficient tuple (c_0, ..., c_{m-1}) is smallest in lexicographic
  order (compared componentwise, low degree first).  One search finds it
  and the primitive modulus of the extension fields alike, once per (p, m)
  in a process, into one record of proven moduli that Field does not
  test again.  field_create is the way to a field: it builds each
  description once in a process and returns that one object after.  For
  m = 1 every modulus x + c describes F_p with the same indices, so an
  explicit one is checked and stored as x.
* A field element is a plain int, its index 0..q-1, sum(c_i * p^i) over its
  digits; the index doubles as the canonical element order.  There is no
  element type: arithmetic goes through Field.add_idx, mul_idx, inv_idx,
  sqrt_idx and the other *_idx methods, and Field.element_from_json is the
  one place where outside values become indices.  The constant k < p has
  index k for every m.
* Field arithmetic runs on O(q) tables over a primitive element g: exp and
  log, plus Zech logarithms zech[k] = log(1 + g^k) for addition.  Fields
  with q <= 128 build them at construction; larger ones on the first call
  to Field.tables(), which count_points makes for the extension it counts
  over, and sqrt_idx makes in odd characteristic.  Point counts also
  read Field.count_tables(), built on the first count: zech tiled three
  times and, for p = 2, the trace of each g^-j.  For m > 1 the powers
  of t are read off an index table of x -> t*x built a block of p^(m-1)
  indices at a time.  When t generates, g is t; otherwise t generates a
  subgroup, and the same table walks each of its cosets from a leader
  g^j.  Untabulated fields do everything but square roots without
  tables: a prime field on plain ints mod p, F_{p^m} with m > 1 on its
  _FpRing, the one F_p[t]/(modulus) product, with sums and negatives
  taken digit by digit.
* det_rank is the one Gaussian elimination over a field, for Hasse–Witt and
  for the G-module harness over F_p.
* Residue fields F_q[x]/(pi) are not a type of their own, and each
  extension lives on its base field: Field.extension(n) is the field's one
  Extension of degree n, built on first use and kept in the field.  It is
  F_{q^n} on its tables, over the primitive modulus of F_{p^(mn)} from
  field_create (so F_{p^k} reached from two base fields is one object),
  plus the embedding of F_q, and it stands in for F_q[x]/(pi) for every
  monic irreducible pi of degree n: x goes to a root
  of pi, taken from a table built on the Frobenius orbits on logs.  The
  keys of that table are all the monic irreducibles of degree n, so no
  separate search for irreducible polynomials exists.  The same orbit
  table (Extension.orbits) lets point counts over F_{q^n} evaluate once
  per orbit.
* Polynomials over F_q store a tuple of element indices, low degree first,
  with no trailing zeros.  The zero polynomial has an empty tuple and its
  degree is the NEG_INF sentinel, never a number.  F_p[x] has one product:
  packed lanes and one int product (Kronecker substitution), for Poly over
  a prime field and for _FpRing; Poly over F_{p^m}, m > 1, multiplies
  schoolbook.  Irreducibility has one test, Ben-Or's on _FpRing, for
  moduli; the irreducibles over F_q are the keys of Extension.roots.
* Deterministic order on polynomials: by degree, then by the coefficient
  tuple compared low degree first.  All enumeration uses this order.  No
  polynomial is factored: a product is built from its factors instead.
"""

from __future__ import annotations

import itertools
import operator
import sys
from array import array
from collections.abc import Iterable, Iterator

from .errors import (
    BudgetExceeded,
    CurveClassError,
    NonPrimeCharacteristic,
    ReducibleModulus,
    ZeroPolynomial,
)

_TABLE_LIMIT = 128


class _NegInf:
    """Degree of the zero polynomial.  Compares below every integer."""

    __slots__ = ()

    def __lt__(self, other):
        return other is not self

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return other is self

    def __repr__(self):
        return "-inf"


NEG_INF = _NegInf()


# the first 13 primes: Miller-Rabin to these bases is exact below _MR_LIMIT
# (Sorenson and Webster, 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; BudgetExceeded past the proven range."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= _MR_LIMIT:
        raise BudgetExceeded(f"is_prime({n}): Miller-Rabin is only proven below 3.3e24")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def mobius(n: int) -> int:
    """The Moebius function: 0 when a square r^2 > 1 divides n, else (-1)^k
    for the k distinct primes of n."""
    primes = prime_factors(n)
    if any(n % (r * r) == 0 for r in primes):
        return 0
    return (-1) ** len(primes)


def necklace_count(q: int, d: int) -> int:
    """Number of monic irreducible polynomials of degree d over F_q."""
    total = 0
    for e in range(1, d + 1):
        if d % e == 0:
            total += mobius(d // e) * q**e
    if total % d:
        raise CurveClassError("internal: necklace sum not divisible by the degree")
    return total // d


# ---------------------------------------------------------------------------
# F_p[x] on packed ints, used to find moduli and to multiply without tables
#
# A polynomial over F_p packs into one int, one lane per coefficient, so a
# product is one int product (Kronecker substitution).  Poly over a prime
# field multiplies this way; _FpRing is F_p[x]/(f) on such ints, and F_{p^m}
# multiplies on it until its tables are built.
# The modulus search rests on two facts:
# * Ben-Or (1981): f of degree m is irreducible iff gcd(x^(p^k) - x, f) = 1
#   for k = 1 .. m // 2; most reducible f fail within a few steps.
# * Over an irreducible f, x^(p^m - 1) = 1 holds by itself, and for a prime
#   r | p - 1, x^((p^m - 1)/r) = N(x)^((p-1)/r) != 1 whenever the norm
#   N(x) = (-1)^m f(0) generates F_p^*.

# byte width -> array type code on little-endian hosts; other widths use int.to_bytes
_LANE_CODES = {array(c).itemsize: c for c in "BHIQ"} if sys.byteorder == "little" else {}


def lane_width(bound: int) -> int:
    """Bytes per lane for lane values up to bound: 1, 2, 4 or 8, else as many as it takes."""
    w = (bound.bit_length() + 7) // 8
    return (1, 1, 2, 4, 4, 8, 8, 8, 8)[w] if w <= 8 else w


def pack_lanes(coeffs, width: int) -> int:
    """The int whose lanes of width bytes, lowest first, hold coeffs (each >= 0)."""
    code = _LANE_CODES.get(width)
    if not code:
        return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in coeffs), "little")
    return int.from_bytes(array(code, coeffs), "little")


def unpack_lanes(value: int, width: int, count: int) -> list[int]:
    """The count lanes of width bytes of value, lowest first."""
    raw = value.to_bytes(width * count, "little")
    code = _LANE_CODES.get(width)
    if not code:
        return [int.from_bytes(raw[k : k + width], "little") for k in range(0, len(raw), width)]
    return array(code, raw).tolist()


def _fp_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _fp_rem(a: list[int], b: list[int], p: int) -> list[int]:
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    inv = pow(lb, p - 2, p)
    while len(a) - 1 >= db and a:
        shift = len(a) - 1 - db
        factor = (a[-1] * inv) % p
        for i in range(db + 1):
            a[shift + i] = (a[shift + i] - factor * b[i]) % p
        _fp_trim(a)
    return a


def _fp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """A gcd of a and b, up to a unit."""
    while b:
        a, b = b, _fp_rem(a, b, p)
    return a


class _FpRing:
    """F_p[x]/(f) for a monic f of degree m over F_p; the arithmetic needs m >= 2.

    A residue is one int, its m coefficients in lanes below p.  A product
    holds up to m(p-1)^2 in a lane, and folding each high lane c_j (mod p)
    back in as c_j * (x^(m+j) mod f) adds up to (m-1)(p-1)^2 more.
    """

    __slots__ = ("p", "m", "f", "width", "lane", "low", "rows", "x")

    def __init__(self, f: list[int], p: int):
        m = len(f) - 1
        self.p, self.m, self.f = p, m, f
        self.width = lane_width(2 * m * (p - 1) ** 2)
        self.lane = 8 * self.width
        self.low = (1 << self.lane * m) - 1
        self.x = 1 << self.lane
        self.rows = [pack_lanes([-c % p for c in f[:m]], self.width)]

    def reduction_rows(self) -> list[int]:
        """x^(m+j) mod f for 0 <= j <= max(m - 2, 0), packed, built on first use."""
        rows = self.rows
        while len(rows) < self.m - 1:
            rows.append(self.times_x(rows[-1]))
        return rows

    def reduce(self, c: int) -> list[int]:
        """The m coefficients of c mod f, lowest first, for c of at most 2m - 1
        lanes within the bound above, such as a product of two residues."""
        low = c & self.low
        p = self.p
        if c > low:
            high = unpack_lanes(c >> self.lane * self.m, self.width, self.m - 1)
            for h, row in zip(high, self.reduction_rows()):
                low += h % p * row
        return [v % p for v in unpack_lanes(low, self.width, self.m)]

    def times_x(self, a: int) -> int:
        top = a >> self.lane * (self.m - 1)
        a = (a << self.lane) & self.low
        return pack_lanes(self.reduce(a + top * self.rows[0]), self.width) if top else a

    def mul(self, a: int, b: int) -> int:
        return pack_lanes(self.reduce(a * b), self.width)

    def pow(self, a: int, e: int) -> int:
        """a^e for e >= 1, left to right."""
        r = a
        for bit in bin(e)[3:]:
            r = self.mul(r, r)
            if bit == "1":
                r = self.times_x(r) if a == self.x else self.mul(r, a)
        return r

    def has_small_factor(self) -> bool:
        """Whether f has a factor of degree 1 .. m // 2 (Ben-Or's test)."""
        p, u = self.p, self.x
        for _ in range(self.m // 2):
            u = self.pow(u, p)
            diff = unpack_lanes(u, self.width, self.m)
            diff[1] = (diff[1] - 1) % p
            if len(_fp_gcd(self.f, _fp_trim(diff), p)) != 1:
                return True
        return False


def _fp_is_irreducible(coeffs: list[int], p: int) -> bool:
    """Whether the monic coeffs, reduced mod p, are irreducible over F_p."""
    d = len(coeffs) - 1
    return d == 1 or (d > 1 and not _FpRing(coeffs, p).has_small_factor())


def _monic_candidates(constants: Iterable[int], p: int, m: int) -> Iterator[list[int]]:
    """Monic [c_0, ..., c_{m-1}, 1] with c_0 from constants and the rest in 0..p-1.

    The order is that of itertools.product(constants, *[range(p)] * (m - 1)),
    c_{m-1} running fastest, but no range is materialised, so the first
    candidates come at once for any p.  Each list is fresh.
    """
    for c0 in constants:
        rest = [0] * (m - 1)
        while True:
            yield [c0, *rest, 1]
            i = m - 2
            while i >= 0 and rest[i] == p - 1:
                rest[i] = 0
                i -= 1
            if i < 0:
                break
            rest[i] += 1


# (p, m, primitive) -> the modulus _least_modulus found: proven irreducible,
# and t a generator when primitive, so Field tests neither again
_PROVEN_MODULI: dict = {}


def _least_modulus(p: int, m: int, primitive: bool) -> tuple[int, ...]:
    """The lex-least monic irreducible of degree m over F_p, in the canonical
    modulus order; with primitive, the lex-least one whose root t generates
    F_{p^m}^* (m >= 2).  Searched once per (p, m, primitive) in a process.

    A zero constant term makes x a factor, so c_0 runs over 1..p-1 only.
    Each candidate must pass Ben-Or's test.  A primitive search tries only
    the constant terms with (-1)^m f(0) a generator of F_p^*: that is the
    norm of t, which a generator maps onto.  Ben-Or's first gcd(x^p - x, f)
    catches every root in F_p, and then x generates iff x^(n/r) != 1 for
    the primes r | n = p^m - 1 that do not divide p - 1: x^n = 1 holds over
    an irreducible f, and the norm covers r | p - 1 (see above).
    """
    key = (p, m, primitive)
    mod = _PROVEN_MODULI.get(key)
    if mod is not None:
        return mod
    constants, cofactors = range(1, p), []
    if primitive:
        n = p**m - 1
        cofactors = [n // r for r in prime_factors(n) if (p - 1) % r]
        units = [(p - 1) // r for r in prime_factors(p - 1)]
        # c_0 ascending where (-1)^m c_0 generates, lazily: the search nearly
        # always stops at one of the first few
        constants = (c for c in constants if all(pow((-1) ** m * c, e, p) != 1 for e in units))
    for cand in _monic_candidates(constants, p, m):
        ring = _FpRing(cand, p)
        if not ring.has_small_factor() and all(ring.pow(ring.x, e) != 1 for e in cofactors):
            mod = _PROVEN_MODULI[key] = tuple(cand)
            return mod
    raise CurveClassError("no irreducible modulus found")  # unreachable


def primitive_modulus(p: int, m: int) -> tuple[int, ...]:
    """The lex-least monic modulus of degree m >= 2 whose root t generates F_{p^m}^*."""
    return _least_modulus(p, m, True)


def is_json_int(value) -> bool:
    """An integer as JSON writes it: an int, and not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


# ---------------------------------------------------------------------------


class Field:
    """F_q with exact index-based arithmetic: on exp/log/Zech tables once
    they are built; before, on plain ints mod p when m = 1 and on the
    packed ring F_p[t]/(modulus) when m > 1."""

    __slots__ = ("p", "m", "q", "modulus", "_ring", "_pw", "_exp", "_log", "_zech", "_mask", "_tiles",
                 "_extensions")

    def __init__(self, p: int, m: int, modulus: Iterable[int] | None = None):
        if not isinstance(p, int) or not is_prime(p):
            raise NonPrimeCharacteristic(f"p = {p!r} is not prime")
        if not is_json_int(m) or m < 1:
            raise CurveClassError(f"extension degree m = {m!r} must be a positive integer")
        self.p = p
        self.m = m
        self.q = p**m
        if modulus is None:
            mod = (0, 1) if m == 1 else _least_modulus(p, m, False)
        else:
            mod = tuple(modulus)
            if not all(map(is_json_int, mod)):
                raise CurveClassError(f"modulus {list(mod)!r} must be a list of integers")
            mod = tuple(c % p for c in mod)
            if len(mod) != m + 1 or mod[-1] != 1:
                raise ReducibleModulus(f"modulus must be monic of degree {m}")
            if m == 1:
                # F_p[t]/(t + c) is F_p with the same indices for every c
                mod = (0, 1)
            # a modulus that a search returned is proven irreducible
            proven = mod in (_PROVEN_MODULI.get((p, m, False)), _PROVEN_MODULI.get((p, m, True)))
            if not proven and not _fp_is_irreducible(list(mod), p):
                raise ReducibleModulus(f"modulus {list(mod)} is reducible over F_{p}")
        self.modulus = mod
        self._pw = [p**i for i in range(m + 1)]
        # the untabled product for m > 1; a prime field multiplies ints mod p
        self._ring = _FpRing(list(mod), p) if m > 1 else None
        self._exp = self._log = self._zech = self._mask = self._tiles = None
        self._extensions = {}  # n -> the one Extension of degree n
        if self.q <= _TABLE_LIMIT:
            self.tables()

    def extension(self, n: int) -> "Extension":
        """F_{q^n} over this field, with the embedding of F_q: one Extension
        per degree n, built on first use and kept with the field."""
        ext = self._extensions.get(n)
        if ext is None:
            ext = self._extensions[n] = Extension(self, n)
        return ext

    # -- index/digit plumbing ------------------------------------------------

    def digits(self, idx: int) -> tuple[int, ...]:
        p = self.p
        out = []
        for _ in range(self.m):
            out.append(idx % p)
            idx //= p
        return tuple(out)

    def index_of(self, digits: Iterable[int]) -> int:
        """The index of the element with these digits, constant first, each below p."""
        return sum(map(operator.mul, digits, self._pw))

    def _pack(self, idx: int) -> int:
        """The residue of the index idx in the field's ring."""
        return pack_lanes(self.digits(idx), self._ring.width)

    def tables(self):
        """(exp, log, zech) over a primitive element g, built on first use.

        exp[k] is the index of g^k for 0 <= k < 2(q-1), the cycle stored
        twice so a sum of two logs needs no reduction; log[a] is the k < q-1
        with g^k = a (log[0] is unused); zech[k] is log(1 + g^k), or -1
        where 1 + g^k = 0.  Each is an array of 4-byte ints, 16 bytes per
        element in all.  A prime field steps x -> x*g on ints mod p.  For
        m > 1 the powers of t are read off ``_mul_t``, a table of x -> t*x
        on every index built a block at a time.  When t is not primitive it
        has order d = (q-1)/c, and F_q^* is the c cosets g^j <t>: one
        product gives each leader g^j, and a walk on ``_mul_t`` from it
        gives the rest of its coset.
        """
        if self._exp is None:
            p, n = self.p, self.q - 1
            g = self._primitive_element()
            exp = array("i", [0]) * (2 * n)
            x = 1
            if self.m == 1:
                for k in range(n):
                    exp[k] = x
                    x = x * g % p
            else:
                mul_t = self._mul_t()
                for k in range(n):
                    exp[k] = x
                    x = mul_t[x]
                    if x == 1:
                        break
                if g != p and x == 1:
                    # t has order d = k + 1 and generates the subgroup of
                    # index c, which holds g^c = t^i0: so t = g^e, and the
                    # walk from each coset leader g^j fills g^(j + e*i)
                    d = k + 1
                    if n % d:
                        raise CurveClassError("internal: the order of t must divide q - 1")
                    c = n // d
                    try:
                        e = c * pow(exp.index(self.pow_idx(g, c), 0, d), -1, d)
                    except ValueError:
                        raise CurveClassError("internal: g^c must generate the powers of t") from None
                    offsets = [e * i % n for i in range(d)]
                    leader = 1
                    for j in range(c):
                        y = leader
                        for off in offsets:
                            exp[j + off] = y
                            y = mul_t[y]
                        leader = self.mul_idx(leader, g)
                del mul_t
            # g = t may come untested from primitive_modulus: check its order
            if x != 1 or (g == p and k != n - 1):
                raise CurveClassError("internal: powers of g must first return to 1 at step q - 1")
            exp[n:] = exp[:n]
            log = array("i", [0]) * self.q
            for k, x in enumerate(exp[:n]):
                log[x] = k
            # 1 + x raises digit 0 of x by one, wrapping p - 1 round to 0, so
            # log_after[x] = log[1 + x] is log shifted down by one index,
            # less p where digit 0 of x is p - 1
            log_after = log[1:] + log[:1]
            log_after[p - 1 :: p] = log[::p]
            zech = array("i", [log_after[x] for x in exp[:n]])
            # x = p - 1 is -1, the one place where 1 + x vanishes
            zech[log[p - 1]] = -1
            self._exp, self._log, self._zech = exp, log, zech
        return self._exp, self._log, self._zech

    def count_tables(self):
        """(zt, tr): the tables of the block point count
        (``counting.affine_count``), built on first use and kept.

        zt is a memoryview of zech tiled three times, so that
        zt[o + a + k] = zech[(o + a + k) mod n] for o, a, k < n = q - 1
        with no reduction.  The entry where 1 + g^k = 0 is Z = 3n in place
        of -1, and zeros follow the tiles through index 5n, so that
        zt[o + Z + k] = 0 for o, k < n: a zero value read through it gives
        the log of the next coefficient.  It takes 20 bytes per element.
        For p = 2, tr[j] is the absolute trace of g^(-j) for j < 3n, one
        byte each; for odd p, tr is None.
        """
        if self._tiles is None:
            exp, log, zech = self.tables()
            n = self.q - 1
            zt = zech * 3
            j = log[self.p - 1]  # 1 + g^j = 0 where g^j = -1
            zt[j] = zt[j + n] = zt[j + 2 * n] = 3 * n
            zt.extend(array("i", [0]) * (2 * n + 1))
            tr = None
            if self.p == 2:
                # par[x] is the trace of the element of index x, the parity
                # of x & mask, built up one digit of x at a time
                mask, par = self.trace_mask(), b"\0"
                flip = bytes.maketrans(b"\0\1", b"\1\0")
                for i in range(self.m):
                    par += par.translate(flip) if mask >> i & 1 else par
                tr = bytes(map(par.__getitem__, exp[n:0:-1])) * 3
            self._tiles = memoryview(zt), tr
        return self._tiles

    def _primitive_element(self) -> int:
        """The least index of a generator of F_q^*.  For m > 1 the search
        starts at p, the index of t: an element of F_p has order dividing
        p - 1, so it never generates.  Over a modulus that
        primitive_modulus returned, t is the answer and is not tested."""
        if _PROVEN_MODULI.get((self.p, self.m, True)) == self.modulus:
            return self.p
        n = self.q - 1
        cofactors = [n // r for r in prime_factors(n)]
        return next(
            a
            for a in range(self.p if self.m > 1 else 1, self.q)
            if all(self.pow_idx(a, e) != 1 for e in cofactors)
        )

    def _mul_t(self) -> list[int]:
        """mul_t[x] is the index of t*x, for every index x.

        With x = c*p^(m-1) + low, t*x shifts the digits of low up one place
        and adds c*red0, where t^m = red0 = -(c_0 + ... + c_{m-1} t^(m-1)).
        So the block of top digit c takes digit 0 from c*red0 alone and
        digit i from digit i - 1 of low plus c*red0[i]: the block is the
        sum over digits of the values e*p^i, rotated by c*red0[i].
        """
        p, m, pw, ring = self.p, self.m, self._pw, self._ring
        red0 = unpack_lanes(ring.rows[0], ring.width, m)
        values = [[e * pw[i] for e in range(p)] for i in range(m)]
        mul_t = []
        for c in range(p):
            block = [c * red0[0] % p]
            for i in range(1, m):
                s = c * red0[i] % p
                rotated = values[i][s:] + values[i][:s]
                block = [a + b for b in rotated for a in block]
            mul_t += block
        return mul_t

    # -- index-level ops -----------------------------------------------------

    def add_idx(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b  # digit-wise addition mod 2
        if self._exp is None:
            p = self.p
            if self.m == 1:
                return (a + b) % p
            return self.index_of((x + y) % p for x, y in zip(self.digits(a), self.digits(b)))
        if not a:
            return b
        if not b:
            return a
        # g^i + g^j = g^i * (1 + g^(j-i)); a negative j - i wraps around zech
        log = self._log
        la = log[a]
        z = self._zech[log[b] - la]
        return self._exp[la + z] if z >= 0 else 0

    def neg_idx(self, a: int) -> int:
        if self.p == 2 or not a:
            return a
        if self._exp is None:
            p = self.p
            if self.m == 1:
                return p - a
            return self.index_of((p - c) % p for c in self.digits(a))
        # -1 = g^((q-1)/2)
        return self._exp[self._log[a] + self.q // 2]

    def sub_idx(self, a: int, b: int) -> int:
        return self.add_idx(a, self.neg_idx(b))

    def mul_idx(self, a: int, b: int) -> int:
        if self._exp is None:
            if self.m == 1:
                return a * b % self.p
            return self.index_of(self._ring.reduce(self._pack(a) * self._pack(b)))
        if a and b:
            log = self._log
            return self._exp[log[a] + log[b]]
        return 0

    def inv_idx(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        if self._exp is not None:
            return self._exp[self.q - 1 - self._log[a]]
        return self.pow_idx(a, self.q - 2)

    def pow_idx(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow_idx(self.inv_idx(a), -e)
        if self._exp is not None and a:
            return self._exp[self._log[a] * e % (self.q - 1)]
        if self.m == 1:
            return pow(a, e, self.p)
        if not e:
            return 1
        ring = self._ring
        return self.index_of(unpack_lanes(ring.pow(self._pack(a), e), ring.width, self.m))

    def trace_to_prime_idx(self, a: int) -> int:
        """Absolute trace to F_p, returned as an integer in [0, p)."""
        acc = 0
        cur = a
        for _ in range(self.m):
            acc = self.add_idx(acc, cur)
            cur = self.pow_idx(cur, self.p)
        digs = self.digits(acc)
        if any(digs[1:]):
            raise CurveClassError("internal: trace did not land in the prime field")
        return digs[0]

    def trace_mask(self) -> int:
        """For p = 2: bit i is the trace of t^i, so the trace of a is the
        parity of a & mask, the trace being F_2-linear in the digits."""
        if self._mask is None:
            self._mask = sum(1 << i for i in range(self.m) if self.trace_to_prime_idx(1 << i))
        return self._mask

    def is_square_idx(self, a: int) -> bool:
        if a == 0 or self.p == 2:
            return True
        return self.pow_idx(a, (self.q - 1) // 2) == 1

    def sqrt_idx(self, a: int) -> int | None:
        """A square root of a, or None.  Returns min(r, -r) for determinism.

        In odd characteristic the squares are the even logs, so this reads
        the tables, building them on first use (16 bytes per element).
        """
        if a == 0:
            return 0
        if self.p == 2:
            return self.pow_idx(a, self.q // 2)
        if self._exp is None:
            self.tables()
        k = self._log[a]
        if k & 1:
            return None
        r = self._exp[k // 2]
        return min(r, self.neg_idx(r))

    def element_to_json(self, idx: int):
        if self.m == 1:
            return idx
        return list(self.digits(idx))

    def element_from_json(self, data) -> int:
        """The index of a wire-format element: an integer, or for m > 1 a
        list of at most m integer digits, constant first."""
        if is_json_int(data):
            if self.m == 1:
                return data % self.p
            if not 0 <= data < self.q:
                raise CurveClassError(f"element index {data} out of range")
            return data
        if self.m > 1 and isinstance(data, list) and all(map(is_json_int, data)):
            if len(data) > self.m:
                raise CurveClassError("element digit list longer than extension degree")
            return self.index_of([c % self.p for c in data])
        kind = "an integer or a list of integer digits" if self.m > 1 else "an integer"
        raise CurveClassError(f"field element must be {kind}, got {data!r}")

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.m == other.m
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __reduce__(self):
        # the tables are caches, so a pickle or copy holds the description
        return field_create, (self.p, self.m, self.modulus)

    def __repr__(self):
        return f"Field(p={self.p}, m={self.m})"


# (p, m, modulus) -> the one Field of that description in a process, under
# the modulus as given (None for the canonical one) and as reduced
_FIELDS: dict = {}


def field_create(p: int, m: int, modulus: Iterable[int] | None = None) -> Field:
    """F_{p^m}, under the canonical modulus when none is given.

    Each description is built once in a process: equal descriptions, and
    any two that give the same modulus, return the same object.  Only a
    description of JSON integers is looked up, so p = 7.0 or a modulus
    (1.0, 0, 1) never finds the field built from 7 or (1, 0, 1), and
    ``Field`` refuses it as before.
    """
    mod = None if modulus is None else tuple(modulus)
    key = (p, m, mod)
    field = _FIELDS.get(key) if all(map(is_json_int, (p, m, *(mod or ())))) else None
    if field is None:
        field = Field(p, m, mod)
        field = _FIELDS[key] = _FIELDS.setdefault((p, m, field.modulus), field)
    return field


def det_rank(rows: list[list[int]], field: Field) -> tuple[int, int]:
    """(det, rank) of a square matrix of indices, by Gaussian elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    det, rank = 1, 0
    for col in range(n):
        piv = next((r for r in range(rank, n) if m[r][col]), None)
        if piv is None:
            det = 0
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            det = field.neg_idx(det)
        top = m[rank]
        det = field.mul_idx(det, top[col])
        inv = field.inv_idx(top[col])
        for r in range(rank + 1, n):
            if m[r][col]:
                k = field.mul_idx(m[r][col], inv)
                m[r] = [field.sub_idx(x, field.mul_idx(k, y)) for x, y in zip(m[r], top)]
        rank += 1
    return det, rank


# ---------------------------------------------------------------------------


class Poly:
    """Polynomial over a Field; immutable, coefficients stored as indices."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Iterable[int] = ()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.field = field
        self.coeffs = tuple(c)

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def leading(self) -> int:
        """The index of the leading coefficient."""
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: "Poly") -> "Poly":
        F = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = F.add_idx(out[i], c)
        return Poly(F, out)

    def __neg__(self) -> "Poly":
        F = self.field
        return Poly(F, [F.neg_idx(c) for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        F = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly(F, ())
        n = len(a) + len(b) - 1
        if F.m == 1:
            # an F_p element's index is its value: one packed int product, in
            # lanes that hold a sum of min(len) products below p^2
            p = F.p
            width = lane_width(min(len(a), len(b)) * (p - 1) ** 2)
            prod = pack_lanes(a, width) * pack_lanes(b, width)
            return Poly(F, [c % p for c in unpack_lanes(prod, width, n)])
        out = [0] * n
        mul, add = F.mul_idx, F.add_idx
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] = add(out[i + j], mul(ai, bj))
        return Poly(F, out)

    def scale(self, ci: int) -> "Poly":
        """Multiply every coefficient by the element with index ci."""
        F = self.field
        return Poly(F, [F.mul_idx(ci, a) for a in self.coeffs])

    def __divmod__(self, other: "Poly"):
        F = self.field
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        a = list(self.coeffs)
        b = other.coeffs
        db = len(b) - 1
        inv_lb = F.inv_idx(b[-1])
        if len(a) - 1 < db:
            return Poly(F, ()), self
        quot = [0] * (len(a) - db)
        mul, sub = F.mul_idx, F.sub_idx
        for shift in range(len(a) - 1 - db, -1, -1):
            top = a[shift + db]
            if top:
                factor = mul(top, inv_lb)
                quot[shift] = factor
                for i in range(db + 1):
                    if b[i]:
                        a[shift + i] = sub(a[shift + i], mul(factor, b[i]))
        return Poly(F, quot), Poly(F, a[: db] if db else [])

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __pow__(self, e: int) -> "Poly":
        """self**e by square-and-multiply."""
        result, base = Poly(self.field, (1,)), self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def monic(self) -> "Poly":
        if self.is_zero:
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        if self.is_monic:
            return self
        return self.scale(self.field.inv_idx(self.coeffs[-1]))

    def derivative(self) -> "Poly":
        F = self.field
        p = F.p
        # the constant i mod p has index i mod p
        return Poly(F, [F.mul_idx(i % p, c) for i, c in enumerate(self.coeffs[1:], 1)])

    def sort_key(self):
        return (len(self.coeffs), self.coeffs)

    def to_json(self) -> list:
        return [self.field.element_to_json(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, field: Field, data) -> "Poly":
        if not isinstance(data, list):
            raise CurveClassError(f"polynomial must be a list of coefficients, got {data!r}")
        return cls(field, [field.element_from_json(v) for v in data])

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.coeffs == other.coeffs
            and self.field == other.field
        )

    def __hash__(self):
        return hash((self.field.p, self.field.m, self.coeffs))

    def __repr__(self):
        if self.is_zero:
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*x^{i}" if i else f"{c}")
        return "Poly(" + " + ".join(terms) + f" over q={self.field.q})"


def x_poly(field: Field) -> Poly:
    return Poly(field, (0, 1))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    while not b.is_zero:
        a, b = b, a % b
    if a.is_zero:
        return a
    return a.monic()


def poly_extgcd(a: Poly, b: Poly):
    """Return (g, s, t) with g = s*a + t*b, g monic (or zero)."""
    F = a.field
    r0, r1 = a, b
    s0, s1 = Poly(F, (1,)), Poly(F, ())
    t0, t1 = Poly(F, ()), Poly(F, (1,))
    while not r1.is_zero:
        qt, rm = divmod(r0, r1)
        r0, r1 = r1, rm
        s0, s1 = s1, s0 - qt * s1
        t0, t1 = t1, t0 - qt * t1
    if r0.is_zero:
        return r0, s0, t0
    lc_inv = F.inv_idx(r0.coeffs[-1])
    return r0.scale(lc_inv), s0.scale(lc_inv), t0.scale(lc_inv)


def squarefree(f: Poly) -> bool:
    if f.is_zero:
        raise ZeroPolynomial("squarefree test on the zero polynomial")
    if f.degree == 0:
        return True
    d = f.derivative()
    if d.is_zero:
        return False
    return poly_gcd(f, d).degree == 0


def monic_polys(field: Field, d: int) -> Iterator[Poly]:
    """Monic degree-d polynomials in lexicographic order of (c_0, ..., c_{d-1})."""
    if d == 0:
        yield Poly(field, (1,))
        return
    for tail in itertools.product(range(field.q), repeat=d):
        yield Poly(field, tail + (1,))


# ---------------------------------------------------------------------------


class Extension:
    """F_{q^n} over the base field F_q, as a tabulated Field ``big`` plus the
    embedding of F_q element indices.  It is an attribute of its base field:
    ``Field.extension(n)`` builds it once and keeps it.

    ``big`` is the base field itself for n = 1.  For n > 1 it is
    F_{p^(mn)} over its primitive modulus, from ``field_create``, so t
    generates and the tables walk x -> t*x; a count does not depend on
    which model of F_{q^n} it runs in, and F_{2^8} over F_4 and over F_16
    is one field.

    ``orbits`` is its one table of the orbits of Frobenius x -> x^q on
    logs, two compact arrays built on first use.  Point counts weight one
    evaluation per orbit by its length, and the root table below is built
    on the orbits of length n.

    It also serves as F_q[x]/(pi) for every monic irreducible pi of degree
    n: x maps to a root alpha of pi (``root``), a residue goes in by
    Horner's rule at alpha (``evaluate``) and comes back by interpolating at
    the conjugates alpha^(q^i) (``residue``).  In between, every operation
    is a table lookup.
    """

    __slots__ = ("base", "n", "big", "_rho", "_emb", "_unemb", "_orbits", "_roots")

    def __init__(self, base: Field, n: int):
        deg = base.m * n
        big = base if n == 1 else field_create(base.p, deg, primitive_modulus(base.p, deg))
        self.base, self.n, self.big = base, n, big
        big.tables()
        self._emb = {}  # base index -> its image, filled as emb is asked
        self._unemb = self._orbits = self._roots = None
        # the image of the base field's t: prime-field constants need none
        self._rho = None
        if n > 1 and base.m > 1:
            # the roots of the base modulus lie in the subfield F_q, whose
            # nonzero elements are the powers of g^((Q - 1)/(q - 1)); a
            # prime-field digit k < p has index k in both fields
            subfield = big.tables()[0][: big.q - 1 : (big.q - 1) // (base.q - 1)]
            roots = [r for r in subfield if self._horner(base.modulus, r) == 0]
            if len(roots) != base.m:
                raise CurveClassError("internal: base modulus must split in the extension")
            self._rho = min(roots)

    def emb(self, idx: int) -> int:
        """The index in F_{q^n} of the base element ``idx``."""
        if self._rho is None:
            return idx
        img = self._emb.get(idx)
        if img is None:
            img = self._emb[idx] = self._horner(self.base.digits(idx), self._rho)
        return img

    def _base_index(self, idx: int) -> int:
        """The inverse of ``emb``: -1 outside the image of the base field."""
        if self._rho is None:
            return idx if idx < self.base.q else -1
        if self._unemb is None:
            self._unemb = {self.emb(c): c for c in range(self.base.q)}
        return self._unemb.get(idx, -1)

    def orbits(self) -> tuple[array, array]:
        """(ks, lens): the orbits of Frobenius x -> x^q on F_{q^n}^*, built
        on first use.

        Frobenius acts on logs as k -> k*q mod (q^n - 1), which rotates the
        n base-q digits of k, so the orbits are the necklaces of n digits.
        ks[i] is the least log of the i-th orbit, in increasing order, and
        lens[i] its length, a divisor of n; n < 31, since the logs fit an
        array('i').  An orbit of length e < n lies in the subfield F_{q^e}.

        The walk is the Fredricksen-Kessler-Maiorana algorithm.  Without its
        trailing digits q - 1, k is a word w of i digits; adding one to w
        and repeating the word through n digits, (w + 1) * q^n // (q^i - 1),
        gives the next prenecklace, a necklace of period i exactly when i
        divides n.  The last one, n digits q - 1, is the log q^n - 1 = 0
        again (the formula gives q^n) and ends the walk.
        """
        if self._orbits is None:
            n, q, Q = self.n, self.base.q, self.big.q
            N = Q - 1
            dens = [q**i - 1 for i in range(n + 1)]
            # the word 0...0 is log 0, the element 1, an orbit of its own
            ks, lens = array("i", [0]), array("B", [1])
            k = 0
            while True:
                w, i = k, n
                while w % q == q - 1:
                    w //= q
                    i -= 1
                k = (w + 1) * Q // dens[i]
                if k >= N:
                    break
                if i == n:
                    # raising the last digit gives necklaces of period n up
                    # to the last digit q - 1: take that run in one step
                    end = min(k - k % q + q, N)
                    ks.extend(range(k, end))
                    lens.extend(itertools.repeat(n, end - k))
                    k = end - 1
                elif n % i == 0:
                    ks.append(k)
                    lens.append(i)
            if sum(lens) != N:
                raise CurveClassError("internal: Frobenius orbit lengths do not sum to q^n - 1")
            self._orbits = ks, lens
        return self._orbits

    def roots(self) -> dict[tuple[int, ...], int]:
        """{coefficients of pi: a root of pi} over every monic irreducible pi
        of degree n, built on first use.

        The roots of pi form one orbit of length n in ``orbits``; pi is the
        product of x - g^k over it.
        """
        if self._roots is None:
            big, n, q = self.big, self.n, self.base.q
            exp = big.tables()[0]
            N = big.q - 1
            mul, add = big.mul_idx, big.add_idx
            # 0 is the one root without a log; it is rational, so only x has it
            table = {(0, 1): 0} if n == 1 else {}
            for k, length in zip(*self.orbits()):
                if length < n:
                    continue  # k lies in a proper subfield
                coeffs = [1]  # times x - r for each conjugate r, low degree first
                j = k
                for _ in range(n):
                    r = big.neg_idx(exp[j])
                    j = j * q % N
                    coeffs = [mul(r, coeffs[0])] + [
                        add(coeffs[i - 1], mul(r, coeffs[i])) for i in range(1, len(coeffs))
                    ] + [1]
                key = tuple(self._base_index(c) for c in coeffs)
                if -1 in key:
                    raise CurveClassError("internal: minimal polynomial left the base field")
                table[key] = exp[k]
            if len(table) != necklace_count(q, n):
                raise CurveClassError("internal: root table does not match the necklace formula")
            self._roots = table
        return self._roots

    def root(self, pi: Poly) -> int:
        """A root of pi in F_{q^n}; pi must be monic irreducible of degree n."""
        alpha = self.roots().get(pi.coeffs)
        if alpha is None:
            raise ReducibleModulus(f"{pi!r} is not a monic irreducible of degree {self.n}")
        return alpha

    def evaluate(self, f: Poly, alpha: int) -> int:
        """f(alpha) in F_{q^n}: the residue of f modulo alpha's minimal polynomial."""
        return self._horner([self.emb(c) for c in f.coeffs], alpha)

    def _horner(self, coeffs, alpha: int) -> int:
        big, acc = self.big, 0
        for c in reversed(coeffs):
            acc = big.add_idx(big.mul_idx(acc, alpha), c)
        return acc

    def residue(self, beta: int, alpha: int, pi: Poly) -> Poly:
        """The r over F_q with deg r < n and r(alpha) = beta; pi is alpha's
        minimal polynomial.

        Lagrange interpolation at the conjugates alpha_i = alpha^(q^i), with
        values beta^(q^i), collapses to traces: with b = pi / (x - alpha),
        whose value at alpha is pi'(alpha), r_k = Tr(beta * b_k / pi'(alpha)).
        """
        big, n, q = self.big, self.n, self.base.q
        mul, add = big.mul_idx, big.add_idx
        b = [1] * n  # synthetic division of pi by x - alpha, from the top
        for i in range(n - 1, 0, -1):
            b[i - 1] = add(self.emb(pi.coeffs[i]), mul(alpha, b[i]))
        w = mul(beta, big.inv_idx(self._horner(b, alpha)))
        out = []
        for bk in b:
            z, tr = mul(w, bk), 0
            for i in range(n):
                tr = add(tr, big.pow_idx(z, q**i))
            out.append(self._base_index(tr))
        if -1 in out:
            raise CurveClassError("internal: trace left the base field")
        return Poly(self.base, out)

    def artin_schreier(self, u: int) -> int | None:
        """A z with z^2 + z = u in F_{2^M}, or None when Tr(u) != 0.

        Tr(u) comes from ``Field.trace_mask``.  With Tr(delta) = 1 and
        S_k = u + u^2 + ... + u^(2^(k-1)), z = sum_{0<k<M} S_k delta^(2^k).
        """
        big = self.big
        mask = big.trace_mask()
        if (u & mask).bit_count() & 1:
            return None
        mul = big.mul_idx
        # the lowest set bit of mask is a t^i of trace 1
        z, s, uk, dk = 0, 0, u, mask & -mask
        for _ in range(1, big.m):
            s ^= uk
            uk, dk = mul(uk, uk), mul(dk, dk)
            z ^= mul(s, dk)
        if mul(z, z) ^ z != u:
            raise CurveClassError("internal: Artin-Schreier solution fails z^2 + z = u")
        return z
