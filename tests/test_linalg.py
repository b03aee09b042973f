"""Exact linear algebra: echelon forms and integer systems."""

from fractions import Fraction
from itertools import product

from splitlab.linalg import (
    _column_echelon,
    det,
    dot,
    integer_solve_rows,
    rank,
    scale_primitive,
)

from conftest import _reference_echelon, make_rng


def test_dot_and_gcd():
    assert dot((1, 2, 3), (4, 5, 6)) == 32
    assert scale_primitive((Fraction(2, 3), Fraction(-4, 3))) == (1, -2)
    assert scale_primitive((Fraction(-1, 2), Fraction(0))) == (-1, 0)


def test_rank_and_det():
    assert rank([(1, 0), (0, 1)]) == 2
    assert rank([(1, 2), (2, 4)]) == 1
    assert rank([]) == 0
    assert det([[2, 0], [0, 3]]) == 6
    assert det([[1, 2], [2, 4]]) == 0


def test_integer_solve_rows():
    assert integer_solve_rows([((2,), 1)]) is None  # parity obstruction
    sol = integer_solve_rows([((1, 1), 1)])
    assert sol is not None and sol[0] + sol[1] == 1
    sol = integer_solve_rows([((2, 3), 1)])
    assert sol is not None and 2 * sol[0] + 3 * sol[1] == 1


def test_integer_solve_vs_brute_force():
    # 200 random systems, solutions cross-checked against a window scan
    rng = make_rng()
    for _ in range(200):
        m = rng.randint(1, 3)
        k = rng.randint(1, 2)
        rows = []
        for _ in range(k):
            a = tuple(rng.randint(-3, 3) for _ in range(m))
            b = rng.randint(-4, 4)
            rows.append((a, b))
        sol = integer_solve_rows(rows)
        brute = None
        for cand in product(range(-12, 13), repeat=m):
            if all(dot(a, cand) == b for a, b in rows):
                brute = cand
                break
        if sol is not None:
            assert all(dot(a, sol) == b for a, b in rows)
        if brute is not None:
            # solvable over the window => the solver must find something
            assert sol is not None


def _reference_column_echelon(matrix, m):
    """The column Hermite reduction with H and U kept as row lists, each
    column operation one loop over H's rows and one over U's."""
    n = len(matrix)
    H = [list(row) for row in matrix]
    U = [[int(i == j) for j in range(m)] for i in range(m)]

    def colop_sub(dst, src, q):
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

    pivots = []
    col = 0
    for row in range(n):
        if col >= m:
            pivots.append(None)
            continue
        j0 = next((j for j in range(col, m) if H[row][j] != 0), None)
        if j0 is None:
            pivots.append(None)
            continue
        if j0 != col:
            colswap(col, j0)
        for j in range(col + 1, m):
            while H[row][j] != 0:
                colop_sub(j, col, H[row][j] // H[row][col])
                if H[row][j] != 0:
                    colswap(col, j)
        if H[row][col] < 0:
            colneg(col)
        pivots.append(col)
        col += 1
    return H, U, pivots


def test_column_echelon_matches_reference(rng):
    # n 1-8 rows, m 1-5 columns, about a third of the entries zero, and
    # sometimes a repeated or zero row
    for case in range(2000):
        n, m = rng.randint(1, 8), rng.randint(1, 5)
        matrix = [
            [0 if rng.random() < 0.35 else rng.randint(-9, 9) for _ in range(m)]
            for _ in range(n)
        ]
        if case % 5 == 1:
            matrix.append(list(rng.choice(matrix)))
        if case % 5 == 2:
            matrix.insert(rng.randint(0, n), [0] * m)
        H, U, pivots = _column_echelon(matrix, m)
        assert (H, U, pivots) == _reference_column_echelon(matrix, m), matrix
        assert [[dot(row, col) for col in zip(*U)] for row in matrix] == H
        assert abs(det(U)) == 1


def _reference_det(rows):
    """Product of the pivots of a rational elimination, with the swap sign."""
    work = [[Fraction(x) for x in r] for r in rows]
    result = Fraction(1)
    for c in range(len(work)):
        pr = next((i for i in range(c, len(work)) if work[i][c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            work[c], work[pr] = work[pr], work[c]
            result = -result
        result *= work[c][c]
        for i in range(c + 1, len(work)):
            f = work[i][c] / work[c][c]
            work[i] = [x - f * y for x, y in zip(work[i], work[c])]
    return result


def test_fraction_free_kernel_matches_rational_reference(rng):
    # tall, wide and square shapes with Fraction entries, zero rows and
    # dependent rows, against the rational Gauss-Jordan of conftest
    def entry():
        u = rng.random()
        if u < 0.3:
            return 0
        if u < 0.65:
            return rng.randint(-6, 6)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 8))

    for case in range(600):
        d = rng.randint(1, 6)
        m = rng.randint(1, 2 * d)
        rows = [[entry() for _ in range(d)] for _ in range(m)]
        if case % 4 == 1:
            rows.append([0] * d)
        if case % 4 == 2:
            rows.append([Fraction(rng.randint(-3, 3), 2) * x for x in rng.choice(rows)])
        if case % 4 == 3:
            rows = [[sum(x) for x in zip(r, rows[0])] for r in rows] + [rows[-1]]
        assert rank(rows, d) == len(_reference_echelon(rows, d)[1])
        square = [[entry() for _ in range(d)] for _ in range(d)]
        if case % 3 == 0:
            square[-1] = [2 * x for x in square[0]]
        value = det(square)
        assert type(value) is Fraction and value == _reference_det(square)
