"""Exact linear algebra: echelon forms, integer systems, lattice kernels."""

from fractions import Fraction
from itertools import product

from splitlab.linalg import (
    det,
    dot,
    integer_kernel,
    integer_solve_rows,
    nullspace,
    rank,
    scale_primitive,
    solve,
    vec_gcd,
)

from conftest import make_rng


def test_dot_and_gcd():
    assert dot((1, 2, 3), (4, 5, 6)) == 32
    assert vec_gcd((4, -6, 8)) == 2
    assert vec_gcd((0, 0, 5)) == 5
    assert scale_primitive((Fraction(2, 3), Fraction(-4, 3))) == (1, -2)
    assert scale_primitive((Fraction(-1, 2), Fraction(0))) == (-1, 0)


def test_rank_and_det():
    assert rank([(1, 0), (0, 1)]) == 2
    assert rank([(1, 2), (2, 4)]) == 1
    assert rank([]) == 0
    assert det([[2, 0], [0, 3]]) == 6
    assert det([[1, 2], [2, 4]]) == 0


def test_nullspace():
    ns = nullspace([(1, 1, 0)], 3)
    assert len(ns) == 2
    for v in ns:
        assert dot((1, 1, 0), v) == 0
    assert nullspace([(1, 0), (0, 1)], 2) == []


def test_solve():
    assert solve([[1, 1], [1, -1]], [2, 0]) == (1, 1)
    assert solve([[1, 1], [2, 2]], [1, 3]) is None
    # underdetermined: free variables pinned to zero
    sol = solve([[1, 1, 1]], [3])
    assert sol is not None and sum(sol) == 3


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


def test_integer_kernel():
    ker = integer_kernel([(1, 1, 0)], 3)
    assert len(ker) == 2
    for v in ker:
        assert dot((1, 1, 0), v) == 0
        assert vec_gcd(v) >= 1
    # kernel vectors generate the full lattice slice: (1,-1,0) and e3 reachable
    assert rank(list(ker)) == 2
