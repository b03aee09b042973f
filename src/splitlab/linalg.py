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
from typing import Optional, Sequence

IntVector = tuple[int, ...]


def dot(a: Sequence, b: Sequence):
    return sum(map(mul, a, b))


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
    """Scale a nonzero rational vector to the coprime integer vector of its
    direction.  Each caller's vector is nonzero: a row of ``_homog_rows``
    (a ≠ 0 or b < 0), a ray that ``from_generators`` or ``CornerModel.make``
    took, an image (U·n + shift·t, t) in ``apply_unimodular`` (t ≥ 1, or
    n ≠ 0 and U invertible), or two distinct endpoints' difference in
    ``sweep_sequence_2d``."""
    ints = _integer_rows([vec])[0]
    g = gcd(*ints)
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


def _column_echelon(matrix: Sequence[Sequence[int]], m: int):
    """Column Hermite reduction.

    Returns (H, U, pivots) with ``matrix @ U == H`` for a unimodular U.
    Row i of H has its pivot at pivots[i] (or None) and zeros to the
    right of the pivot.  Each column of [matrix; I] is one list, so a
    column operation on H and U together is one list operation.
    """
    n = len(matrix)
    cols = [[*col, *(int(i == j) for i in range(m))] for j, col in enumerate(zip(*matrix))]
    pivots: list[Optional[int]] = []
    c = 0
    for row in range(n):
        j0 = next((j for j in range(c, m) if cols[j][row]), None)
        if j0 is None:
            pivots.append(None)
            continue
        cols[c], cols[j0] = cols[j0], cols[c]
        for j in range(c + 1, m):
            # Euclid on (cols[c][row], cols[j][row]) via column operations
            while cols[j][row]:
                f = cols[j][row] // cols[c][row]
                cols[j] = [x - f * y for x, y in zip(cols[j], cols[c])]
                if cols[j][row]:
                    cols[c], cols[j] = cols[j], cols[c]
        if cols[c][row] < 0:
            cols[c] = [-x for x in cols[c]]
        pivots.append(c)
        c += 1
    H = [list(r) for r in zip(*cols)]
    return H[:n], H[n:], pivots


def integer_solve_rows(rows: Sequence[tuple[Sequence[int], int]]) -> Optional[IntVector]:
    """An integer solution of {a_i·x = b_i}, one row or more, or None when none exists."""
    m = len(rows[0][0])
    H, U, pivots = _column_echelon([a for a, _ in rows], m)
    y = [0] * m
    for (_, b), h, pc in zip(rows, H, pivots):
        s = b - dot(h, y)
        if pc is None:
            if s != 0:
                return None
        else:
            if s % h[pc] != 0:
                return None
            y[pc] = s // h[pc]
    return tuple(dot(u, y) for u in U)

