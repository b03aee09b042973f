import os
import random
from fractions import Fraction

import pytest

import splitlab.geometry
from splitlab.certify import _faces
from splitlab.geometry import GeometryError, _iter_lattice_points, _over_denominator
from splitlab.linalg import dot

DEFAULT_SEED = 1729


def _seed() -> int:
    return int(os.environ.get("SPLITLAB_SEED", DEFAULT_SEED))


def make_rng() -> random.Random:
    """Seeded generator for the randomized suites, SPLITLAB_SEED overrides."""
    return random.Random(_seed())


def pytest_report_header(config):
    """The seed in the header, so a failing randomized run can be repeated."""
    return f"splitlab seed: {_seed()} (SPLITLAB_SEED, default {DEFAULT_SEED})"


@pytest.fixture
def rng() -> random.Random:
    return make_rng()


@pytest.fixture
def lattice_scans(monkeypatch) -> list[int]:
    """Counts the lattice enumerations: one entry per scan started, the
    number of points that scan yielded so far."""
    scans: list[int] = []

    def counting(p):
        scans.append(0)
        for q in _iter_lattice_points(p):
            scans[-1] += 1
            yield q

    monkeypatch.setattr(splitlab.geometry, "_iter_lattice_points", counting)
    return scans


def contains(p, point) -> bool:
    """Membership of a point in the polyhedron p, in integers: the point
    n/d over its common denominator satisfies every row of p (the empty
    set's t <= 0 fails)."""
    n, d = _over_denominator(point)
    if len(n) != p.dim:
        raise GeometryError("point dimension mismatch")
    h = (*n, d)
    return all(dot(r, h) <= 0 for r in p.rows[:-1])


def intersect(p, other):
    """p cut by other's rows (``Polyhedron._cut``); the empty other's row
    t <= 0 cuts every vertex."""
    if p.dim != other.dim:
        raise GeometryError("dimension mismatch in intersection")
    return p._cut(other.rows)


def all_faces(p):
    """Every nonempty face record of a polytope p, p itself included: the
    faces ``certify._faces`` reads off p's lattice points together with its
    generators off the lattice (t > 1)."""
    pts = [q + (1,) for q in _iter_lattice_points(p)]
    return [f for f, _ in _faces(p, pts + [g for g in p.gens if g[-1] > 1])]


def _reference_echelon(rows, ncols):
    """Rational Gauss-Jordan reduced row echelon form: (rows, pivot columns)."""
    work = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        work[r] = [x / work[r][c] for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return work[:r], pivots


def _reference_nullspace(rows, n):
    """Basis of {x : row·x = 0 for every row}: for each free column, the
    vector that is 1 there and 0 on the other free columns."""
    ech, pivots = _reference_echelon(rows, n)
    basis = []
    for free in (j for j in range(n) if j not in pivots):
        vec = [Fraction(int(j == free)) for j in range(n)]
        for prow, pcol in zip(ech, pivots):
            vec[pcol] = -prow[free]
        basis.append(tuple(vec))
    return basis
