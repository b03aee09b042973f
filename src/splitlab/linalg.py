"""Exact linear algebra over rationals and integers.

Everything works on plain tuples of ``fractions.Fraction`` or ``int``.
Rational routines use Gaussian elimination; integer routines use a
column-style Hermite reduction driven by the extended Euclid step, so
solvability of integer linear systems is decided exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Sequence

Vector = tuple[Fraction, ...]
IntVector = tuple[int, ...]


def dot(a: Sequence, b: Sequence):
    return sum(x * y for x, y in zip(a, b))


def vec_gcd(values: Iterable[int]) -> int:
    g = 0
    for v in values:
        g = gcd(g, abs(v))
    return g


def scale_primitive(vec: Sequence) -> IntVector:
    """Scale a nonzero rational vector to a coprime integer vector.

    Direction (including sign) is preserved.
    """
    fracs = [Fraction(x) for x in vec]
    mult = 1
    for f in fracs:
        d = f.denominator
        mult = mult * d // gcd(mult, d)
    ints = [int(f * mult) for f in fracs]
    g = vec_gcd(ints)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(v // g for v in ints)


def _echelon(rows: Sequence[Sequence], ncols: int):
    """Reduced row echelon form over the rationals; returns (rows, pivot column list)."""
    work = [[Fraction(x) for x in r] for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(work)):
            if work[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        pv = work[r][c]
        work[r] = [x / pv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def rank(rows: Sequence[Sequence], ncols: Optional[int] = None) -> int:
    if not rows:
        return 0
    if ncols is None:
        ncols = len(rows[0])
    return len(_echelon(rows, ncols)[1])


def nullspace(rows: Sequence[Sequence], n: int) -> list[Vector]:
    """Basis of {x : row·x = 0 for every row}, as Fraction tuples."""
    if not rows:
        return [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    ech, pivots = _echelon(rows, n)
    pivot_set = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * n
        vec[free] = Fraction(1)
        for prow, pcol in zip(ech, pivots):
            vec[pcol] = -prow[free]
        basis.append(tuple(vec))
    return basis


def solve(rows: Sequence[Sequence], rhs: Sequence) -> Optional[Vector]:
    """One rational solution of row·x = rhs_i, or None if inconsistent.

    Free variables are set to zero.
    """
    if not rows:
        return None
    n = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    ech, pivots = _echelon(aug, n + 1)
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    # rows are in reduced form, so each pivot variable reads off directly
    for prow, pcol in zip(ech, pivots):
        x[pcol] = prow[n] - sum(prow[j] * x[j] for j in range(n) if j != pcol)
    return tuple(x)


def det(rows: Sequence[Sequence]) -> Fraction:
    n = len(rows)
    work = [[Fraction(x) for x in r] for r in rows]
    sign = 1
    result = Fraction(1)
    for c in range(n):
        pr = None
        for i in range(c, n):
            if work[i][c] != 0:
                pr = i
                break
        if pr is None:
            return Fraction(0)
        if pr != c:
            work[c], work[pr] = work[pr], work[c]
            sign = -sign
        pv = work[c][c]
        result *= pv
        for i in range(c + 1, n):
            if work[i][c] != 0:
                f = work[i][c] / pv
                work[i] = [x - f * y for x, y in zip(work[i], work[c])]
    return sign * result


def _column_echelon(matrix: list[list[int]], m: int):
    """Column Hermite reduction.

    Returns (H, U, pivots) with ``matrix @ U == H`` for a unimodular U.
    Row i of H has its pivot at pivots[i] (or None) and zeros to the
    right of the pivot.
    """
    n = len(matrix)
    H = [list(row) for row in matrix]
    U = [[int(i == j) for j in range(m)] for i in range(m)]

    def colop_sub(dst, src, q):
        # column dst -= q * column src
        for i in range(n):
            H[i][dst] -= q * H[i][src]
        for i in range(m):
            U[i][dst] -= q * U[i][src]

    def colswap(a, b):
        for i in range(n):
            H[i][a], H[i][b] = H[i][b], H[i][a]
        for i in range(m):
            U[i][a], U[i][b] = U[i][b], U[i][a]

    def colneg(a):
        for i in range(n):
            H[i][a] = -H[i][a]
        for i in range(m):
            U[i][a] = -U[i][a]

    pivots: list[Optional[int]] = []
    col = 0
    for row in range(n):
        if col >= m:
            pivots.append(None)
            continue
        j0 = None
        for j in range(col, m):
            if H[row][j] != 0:
                j0 = j
                break
        if j0 is None:
            pivots.append(None)
            continue
        if j0 != col:
            colswap(col, j0)
        for j in range(col + 1, m):
            # Euclid on (H[row][col], H[row][j]) via column operations
            while H[row][j] != 0:
                q = H[row][j] // H[row][col]
                colop_sub(j, col, q)
                if H[row][j] != 0:
                    colswap(col, j)
        if H[row][col] < 0:
            colneg(col)
        pivots.append(col)
        col += 1
    return H, U, pivots


def integer_solve_rows(rows: Sequence[tuple[Sequence[int], int]]) -> Optional[IntVector]:
    """An integer solution of {a_i·x = b_i}, or None when none exists."""
    if not rows:
        return None
    m = len(rows[0][0])
    A = [list(a) for a, _ in rows]
    b = [bi for _, bi in rows]
    H, U, pivots = _column_echelon(A, m)
    y = [0] * m
    for i in range(len(rows)):
        s = b[i] - sum(H[i][j] * y[j] for j in range(m))
        pc = pivots[i]
        if pc is None:
            if s != 0:
                return None
        else:
            pv = H[i][pc]
            if s % pv != 0:
                return None
            y[pc] = s // pv
    return tuple(sum(U[i][j] * y[j] for j in range(m)) for i in range(m))


def integer_kernel(rows: Sequence[Sequence[int]], m: int) -> list[IntVector]:
    """Lattice basis of {x in Z^m : row·x = 0 for every row}."""
    if not rows:
        return [tuple(int(i == j) for j in range(m)) for i in range(m)]
    A = [list(r) for r in rows]
    H, U, _ = _column_echelon(A, m)
    basis = []
    for j in range(m):
        if all(H[i][j] == 0 for i in range(len(A))):
            basis.append(tuple(U[i][j] for i in range(m)))
    return basis
