"""Finite integer-matrix groups acting on Z^m: closure and (co)invariants.

A GModule is a free Z-module of rank m with an action of a finite group G
given by generating matrices.  The torsion and free rank of the coinvariant
quotient Z^m / <(g - 1)v> come from an exact Smith normal form; the fixed
submodule rank comes from a fraction-free kernel computation.  Both feed
``lemma51_check``, which compares "the coinvariants are infinite" with "the
coinvariants are nonzero mod p" (the two agree whenever p does not divide
the group order).  ``invcoinv_dims`` is the matching mod-p engine: for any
square phi over F_p it computes dim ker(1 - phi) and dim coker(1 - phi) by
two separate eliminations with gf.det_rank, one on the transpose.
"""

from __future__ import annotations

import json
import random

from .errors import CurveClassError, NotFinite, NotInvertible
from .gf import det_rank, field_create, is_prime
from .jacobian import AbelianGroupStructure
from .record import Record
from .snf import (
    column_lattice_basis,
    diagonal_of,
    identity_matrix,
    mat_det,
    mat_mul,
    mat_rank,
    smith_normal_form,
)

RANK_CAP = 16
# largest group ``closure`` enumerates
CLOSURE_CAP = 10**4

Matrix = tuple[tuple[int, ...], ...]


def _freeze(rows) -> Matrix:
    return tuple(tuple(int(x) for x in row) for row in rows)


def _check_square(mat: Matrix, m: int) -> None:
    if len(mat) != m or any(len(row) != m for row in mat):
        raise CurveClassError(f"generator is not a {m}x{m} matrix")


def closure(generators: list) -> list[Matrix]:
    """All elements of the group the matrices generate; BFS up to CLOSURE_CAP."""
    if not generators:
        raise CurveClassError("closure needs at least one generator")
    m = len(generators[0])
    gens = []
    for g in generators:
        mat = _freeze(g)
        _check_square(mat, m)
        if mat_det([list(r) for r in mat]) not in (1, -1):
            raise NotInvertible("generator determinant is not +-1")
        gens.append(mat)
    ident = _freeze(identity_matrix(m))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = _freeze(mat_mul([list(r) for r in a], [list(r) for r in g]))
                if b not in seen:
                    if len(seen) >= CLOSURE_CAP:
                        raise NotFinite(
                            f"closure exceeded the cap of {CLOSURE_CAP} elements"
                        )
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return sorted(seen)


class GModule:
    """Z^m with a finite group of integer matrices acting on it."""

    def __init__(self, rank: int, generators, label: str = ""):
        if not isinstance(rank, int) or rank < 1:
            raise CurveClassError("rank must be a positive integer")
        if rank > RANK_CAP:
            raise CurveClassError(f"rank {rank} exceeds the cap {RANK_CAP}")
        gens = [_freeze(g) for g in generators]
        for g in gens:
            _check_square(g, rank)
        self.rank = rank
        self.generators = tuple(gens)
        self.label = label
        self._elements: list[Matrix] | None = None

    @property
    def elements(self) -> list[Matrix]:
        if self._elements is None:
            if self.generators:
                self._elements = closure(list(self.generators))
            else:
                self._elements = [_freeze(identity_matrix(self.rank))]
        return self._elements

    @property
    def group_order(self) -> int:
        return len(self.elements)

    @classmethod
    def from_json(cls, data) -> "GModule":
        if not isinstance(data, dict):
            raise CurveClassError("GModule description must be an object")
        try:
            rank = int(data["rank"])
            gens = data.get("generators", [])
        except (KeyError, TypeError, ValueError) as exc:
            raise CurveClassError(f"bad GModule description: {exc}") from exc
        return cls(rank, gens, label=str(data.get("label", "")))

    @classmethod
    def from_file(cls, path: str) -> "GModule":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "generators": [[list(row) for row in g] for g in self.generators],
            "label": self.label,
        }


class Coinvariants(Record):
    """Z^free_rank (int) plus torsion (AbelianGroupStructure)."""

    __slots__ = ("free_rank", "torsion")

    def to_json(self) -> dict:
        return {"free_rank": self.free_rank, "torsion": self.torsion.to_json()}


def coinvariants(module: GModule) -> Coinvariants:
    """Structure of Z^m modulo the sublattice spanned by all (g - 1)v."""
    m = module.rank
    cols: list[list[int]] = []
    for g in module.elements:
        for j in range(m):
            col = [g[i][j] - (1 if i == j else 0) for i in range(m)]
            if any(col):
                cols.append(col)
    if not cols:
        return Coinvariants(m, AbelianGroupStructure(1, ()))
    rel = [[col[i] for col in cols] for i in range(m)]
    basis = column_lattice_basis(rel)
    _, D, _ = smith_normal_form(basis)
    diag = [d for d in diagonal_of(D) if d != 0]
    torsion = tuple(d for d in diag if d > 1)
    order = 1
    for d in torsion:
        order *= d
    return Coinvariants(m - len(diag), AbelianGroupStructure(order, torsion))


def invariants_rank(module: GModule) -> int:
    """Rank of the fixed submodule: m minus the rank of the stacked (g - 1)."""
    m = module.rank
    stacked: list[list[int]] = []
    for g in module.elements:
        for i in range(m):
            row = [g[i][j] - (1 if i == j else 0) for j in range(m)]
            if any(row):
                stacked.append(row)
    if not stacked:
        return m
    return m - mat_rank(stacked)


def lemma51_check(module: GModule, p: int) -> dict:
    """Compare infinitude of the coinvariants with nonvanishing mod p."""
    if not is_prime(p):
        raise CurveClassError("p must be prime")
    co = coinvariants(module)
    lhs = co.free_rank > 0
    rhs = co.free_rank > 0 or any(
        d % p == 0 for d in co.torsion.invariant_factors
    )
    return {
        "lhs": lhs,
        "rhs": rhs,
        "equal": lhs == rhs,
        "p_divides_order": module.group_order % p == 0,
    }


# ---------------------------------------------------------------------------
# mod-p engine


def invcoinv_dims(phi, p: int) -> tuple[int, int]:
    """dim ker(1 - phi) and dim coker(1 - phi) over F_p, phi square.

    The kernel dimension comes from eliminating (1 - phi) and the cokernel
    dimension from separately eliminating its transpose, so the equality of
    the two numbers is measured, not assumed.
    """
    if not is_prime(p):
        raise CurveClassError("p must be prime")
    mat = _freeze(phi)
    m = len(mat)
    _check_square(mat, m)
    field = field_create(p, 1)
    a = [[((1 if i == j else 0) - mat[i][j]) % p for j in range(m)] for i in range(m)]
    at = [[a[j][i] for j in range(m)] for i in range(m)]
    return m - det_rank(a, field)[1], m - det_rank(at, field)[1]


# ---------------------------------------------------------------------------
# seeded instance generator


def _perm_matrix(perm: tuple[int, ...], sign: int = 1) -> list[list[int]]:
    n = len(perm)
    return [[sign if perm[j] == i else 0 for j in range(n)] for i in range(n)]


def _perm_sign(perm: tuple[int, ...]) -> int:
    n = len(perm)
    seen = [False] * n
    sign = 1
    for i in range(n):
        if seen[i]:
            continue
        ln = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            ln += 1
        if ln % 2 == 0:
            sign = -sign
    return sign


# (label, degree, generating permutations) for subgroups of S_n, n <= 5
_CATALOG: list[tuple[str, int, tuple[tuple[int, ...], ...]]] = [
    ("triv", 1, ((0,),)),
    ("C2", 2, ((1, 0),)),
    ("C3", 3, ((1, 2, 0),)),
    ("S3", 3, ((1, 2, 0), (1, 0, 2))),
    ("C4", 4, ((1, 2, 3, 0),)),
    ("V4", 4, ((1, 0, 3, 2), (2, 3, 0, 1))),
    ("D4", 4, ((1, 2, 3, 0), (3, 2, 1, 0))),
    ("A4", 4, ((1, 0, 3, 2), (1, 2, 0, 3))),
    ("S4", 4, ((1, 2, 3, 0), (1, 0, 2, 3))),
    ("C5", 5, ((1, 2, 3, 4, 0),)),
    ("D5", 5, ((1, 2, 3, 4, 0), (0, 4, 3, 2, 1))),
    ("C6", 5, ((1, 2, 0, 4, 3),)),
    ("A5", 5, ((1, 2, 3, 4, 0), (1, 2, 0, 3, 4))),
    ("S5", 5, ((1, 2, 3, 4, 0), (1, 0, 2, 3, 4))),
]


def random_gmodule(rng: random.Random) -> GModule:
    """One seeded instance: copies of a permutation module, sign-twisted or not.

    Every block carries the same underlying group element, so the matrix
    group stays isomorphic to (a quotient of) the chosen subgroup and its
    order never exceeds 120; the total rank stays <= 8.
    """
    label, deg, perms = _CATALOG[rng.randrange(len(_CATALOG))]
    copies = rng.randint(1, 8 // deg)
    twists = tuple(rng.random() < 0.35 for _ in range(copies))
    rank = deg * copies
    gens = []
    for perm in perms:
        sgn = _perm_sign(perm)
        block = [[0] * rank for _ in range(rank)]
        for b in range(copies):
            cell = _perm_matrix(perm, sgn if twists[b] else 1)
            off = b * deg
            for i in range(deg):
                for j in range(deg):
                    block[off + i][off + j] = cell[i][j]
        gens.append(block)
    tag = f"{label}x{copies}" + ("t" if any(twists) else "")
    return GModule(rank, gens, label=tag)


def sign_module() -> GModule:
    """The pinned hypothesis-violation example: -1 acting on Z."""
    return GModule(1, [[[-1]]], label="sign")


def harness_lines(modules, p: int) -> list[dict]:
    """lemma51_check over a batch; one report dict per module."""
    out = []
    for mod in modules:
        res = lemma51_check(mod, p)
        out.append(
            {
                "label": mod.label,
                "p": p,
                "lhs": res["lhs"],
                "rhs": res["rhs"],
                "equal": res["equal"],
                "group_order": mod.group_order,
            }
        )
    return out
