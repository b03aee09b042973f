"""Exact linear algebra over rationals and integers.

Everything works on plain tuples of ``fractions.Fraction`` or ``int``.
Rational routines scale each row to integers and run one fraction-free
(Bareiss) Gauss-Jordan elimination, so ``Fraction`` appears only in the
results; integer routines use a column-style Hermite reduction driven by
the extended Euclid step, so solvability of integer linear systems is
decided exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul
from typing import Iterable, Optional, Sequence

IntVector = tuple[int, ...]


def dot(a: Sequence, b: Sequence):
    return sum(map(mul, a, b))


def vec_gcd(values: Iterable[int]) -> int:
    g = 0
    for v in values:
        g = gcd(g, abs(v))
    return g


def _row_scale(row: Sequence) -> int:
    return lcm(*(x.denominator for x in row))


def _integer_rows(rows: Sequence[Sequence]) -> list[list[int]]:
    """Each row times the lcm of its denominators.

    The row space stays the same, and so does the solution set of
    augmented rows.
    """
    out = []
    for r in rows:
        m = _row_scale(r)
        out.append([x.numerator * (m // x.denominator) for x in r])
    return out


def scale_primitive(vec: Sequence) -> IntVector:
    """Scale a nonzero rational vector to a coprime integer vector.

    Direction (including sign) is preserved.
    """
    ints = _integer_rows([vec])[0]
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(v // g for v in ints)


def _echelon(rows: Sequence[Sequence], ncols: int):
    """Fraction-free (Bareiss) Gauss-Jordan form of the integer-scaled rows.

    Returns (rows, pivot column list, D, sign).  Every returned row holds
    D at its own pivot and 0 at every other pivot column, so the reduced
    row echelon form is rows / D; D is the determinant of the pivot block
    of the scaled, row-swapped input and sign the parity of the swaps.
    """
    work = _integer_rows(rows)
    pivots: list[int] = []
    prev, sign, r = 1, 1, 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            work[r], work[pr] = work[pr], work[r]
            sign = -sign
        prow = work[r]
        pv = prow[c]
        for i, row in enumerate(work):
            if i != r:
                # Sylvester's identity makes this division exact
                f = row[c]
                work[i] = [(pv * x - f * y) // prev for x, y in zip(row, prow)]
        prev = pv
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots, prev, sign


def rank(rows: Sequence[Sequence], ncols: Optional[int] = None) -> int:
    if not rows:
        return 0
    if ncols is None:
        ncols = len(rows[0])
    return len(_echelon(rows, ncols)[1])


def det(rows: Sequence[Sequence]) -> Fraction:
    n = len(rows)
    _, pivots, D, sign = _echelon(rows, n)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * D, prod(map(_row_scale, rows)))


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

