"""Integer Smith normal form with unimodular transforms.

smith_normal_form(A) returns (U, D, V) with U*A*V = D, U and V unimodular,
D diagonal with d_1 | d_2 | ... | d_r, all nonnegative.  The identity
U*A*V = D and det(U), det(V) in {+1, -1} are recomputed exactly on every
call; a failure raises, it is never silently ignored.

Matrices are lists of lists of Python ints, so nothing overflows.
"""

from __future__ import annotations

from .errors import CurveClassError


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A: list[list[int]], B: list[list[int]]) -> list[list[int]]:
    n, k = len(A), len(B)
    m = len(B[0]) if B else 0
    Bt = list(zip(*B)) if B else []
    return [[sum(A[i][t] * Bt[j][t] for t in range(k)) for j in range(m)] for i in range(n)]


def mat_det(A: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    n = len(A)
    if n == 0:
        return 1
    M = [row[:] for row in A]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if M[r][k] != 0), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def mat_rank(A: list[list[int]]) -> int:
    """Rank over Q, by fraction-free elimination."""
    if not A or not A[0]:
        return 0
    M = [row[:] for row in A]
    n, m = len(M), len(M[0])
    rank = 0
    row = 0
    for col in range(m):
        if row >= n:
            break
        sel = next((r for r in range(row, n) if M[r][col] != 0), None)
        if sel is None:
            continue
        M[row], M[sel] = M[sel], M[row]
        piv = M[row][col]
        for r in range(row + 1, n):
            if M[r][col]:
                f = M[r][col]
                M[r] = [M[r][j] * piv - f * M[row][j] for j in range(m)]
        rank += 1
        row += 1
    return rank


def _min_nonzero_pos(M, start, n, m):
    best = None
    for i in range(start, n):
        for j in range(start, m):
            v = M[i][j]
            if v and (best is None or abs(v) < best[0]):
                best = (abs(v), i, j)
    return best


def smith_normal_form(A: list[list[int]]):
    """Return (U, D, V) with U*A*V = D in Smith normal form; verified exactly."""
    n = len(A)
    m = len(A[0]) if n else 0
    M = [row[:] for row in A]
    U = identity_matrix(n)
    V = identity_matrix(m)

    def row_op(i, j, c):  # row_i += c * row_j
        M[i] = [a + c * b for a, b in zip(M[i], M[j])]
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]

    def col_op(i, j, c):  # col_i += c * col_j
        for r in range(n):
            M[r][i] += c * M[r][j]
        for r in range(m):
            V[r][i] += c * V[r][j]

    def row_swap(i, j):
        M[i], M[j] = M[j], M[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        for r in range(n):
            M[r][i], M[r][j] = M[r][j], M[r][i]
        for r in range(m):
            V[r][i], V[r][j] = V[r][j], V[r][i]

    t = 0
    while True:
        pick = _min_nonzero_pos(M, t, n, m)
        if pick is None:
            break
        _, pi, pj = pick
        row_swap(t, pi)
        col_swap(t, pj)
        # clear row and column t, restarting when a smaller remainder appears
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, n):
                if M[i][t]:
                    q = M[i][t] // M[t][t]
                    row_op(i, t, -q)
                    if M[i][t]:
                        row_swap(t, i)
                        dirty = True
            for j in range(t + 1, m):
                if M[t][j]:
                    q = M[t][j] // M[t][t]
                    col_op(j, t, -q)
                    if M[t][j]:
                        col_swap(t, j)
                        dirty = True
        # pivot must divide every remaining entry; otherwise fold one in and redo
        piv = M[t][t]
        offender = None
        for i in range(t + 1, n):
            for j in range(t + 1, m):
                if M[i][j] % piv:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(t, offender, 1)
            continue
        t += 1
        if t >= min(n, m):
            break

    # normalize signs
    for i in range(min(n, m)):
        if M[i][i] < 0:
            for j in range(m):
                M[i][j] = -M[i][j]
            for j in range(n):
                U[i][j] = -U[i][j]

    _verify_snf(A, U, M, V)
    return U, M, V


def _verify_snf(A, U, D, V):
    n = len(A)
    m = len(A[0]) if n else 0
    if mat_mul(mat_mul(U, A), V) != D:
        raise CurveClassError("SNF self-check failed: U*A*V != D")
    if n and abs(mat_det(U)) != 1:
        raise CurveClassError("SNF self-check failed: U not unimodular")
    if m and abs(mat_det(V)) != 1:
        raise CurveClassError("SNF self-check failed: V not unimodular")
    prev = None
    for i in range(min(n, m)):
        for j in range(m):
            if i != j and D[i][j] != 0:
                raise CurveClassError("SNF self-check failed: D not diagonal")
        d = D[i][i]
        if prev is not None and prev != 0 and d % prev != 0 and d != 0:
            raise CurveClassError("SNF self-check failed: divisibility chain broken")
        if prev == 0 and d != 0:
            raise CurveClassError("SNF self-check failed: zero before nonzero diagonal")
        prev = d


def diagonal_of(D: list[list[int]]) -> list[int]:
    k = min(len(D), len(D[0]) if D else 0)
    return [D[i][i] for i in range(k)]


def column_lattice_basis(A: list[list[int]]) -> list[list[int]]:
    """A small generating set of the column lattice of A (n x m, m possibly huge).

    Sweeps rows top to bottom; within a row, pairs of columns are combined by
    the unimodular gcd step [[x, -b/g], [y, a/g]] until one pivot remains, so
    the column lattice never changes.  Returns an n x k matrix, k <= n,
    generating the same lattice, which keeps the later SNF small.
    """
    n = len(A)
    if n == 0:
        return []
    cols = [list(col) for col in zip(*A) if any(col)]
    basis: list[list[int]] = []
    for row in range(n):
        if not cols:
            break
        pivot = None
        survivors = []
        for c in cols:
            if c[row] == 0:
                survivors.append(c)
                continue
            if pivot is None:
                pivot = c
                continue
            a, b = pivot[row], c[row]
            g, x, y = _xgcd(a, b)
            new_pivot = [x * u + y * v for u, v in zip(pivot, c)]
            reduced = [(a // g) * v - (b // g) * u for u, v in zip(pivot, c)]
            pivot = new_pivot
            if any(reduced):
                survivors.append(reduced)
        if pivot is not None:
            basis.append(pivot)
        cols = survivors
    return [list(row) for row in zip(*basis)] if basis else [[] for _ in range(n)]


def _xgcd(a: int, b: int):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0
