"""Exact polyhedra: double description, hulls, lattice points, lattice-freeness."""

from fractions import Fraction
from itertools import combinations, product
from math import ceil, floor

import pytest

from splitlab.geometry import (
    GeometryError,
    Hyperplane,
    LinealityError,
    NotLatticeFreeError,
    Polyhedron,
    affine_hull,
    apply_unimodular,
    cone_rays,
    convex_hull,
    interior_integer_point,
    lattice_points,
    require_lattice_free,
)
from splitlab.linalg import dot, nullspace, rank, scale_primitive

from conftest import make_rng

F = Fraction

TYPE1_T = convex_hull([(0, 0), (2, 0), (0, 2)])


def brute_lattice_points(p: Polyhedron):
    """Oracle: scan the integer box and filter by membership."""
    box = p.bounding_box()
    ranges = [range(ceil(lo), floor(hi) + 1) for lo, hi in box]
    return sorted(q for q in product(*ranges) if p.contains(q))


def test_hull_triangle():
    assert TYPE1_T.dim == 2
    assert set(TYPE1_T.vertices) == {(0, 0), (2, 0), (0, 2)}
    assert len(TYPE1_T.facet_inequalities()) == 3
    assert TYPE1_T.contains((F(1, 2), F(1, 2)))
    assert not TYPE1_T.contains((2, 2))


def test_hull_drops_interior_points():
    p = convex_hull([(0, 0), (1, 0), (0, 1), (F(1, 4), F(1, 4))])
    assert set(p.vertices) == {(0, 0), (1, 0), (0, 1)}


def test_unit_cube():
    cube = convex_hull(list(product((0, 1), repeat=3)))
    assert len(cube.vertices) == 8
    assert len(cube.facet_inequalities()) == 6


def test_h_to_v_round_trip():
    p = Polyhedron.from_inequalities(
        [((1, 0), F(1)), ((-1, 0), F(0)), ((0, 1), F(1)), ((0, -1), F(0))], 2
    )
    assert set(p.vertices) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    q = Polyhedron.from_generators(p.vertices, p.rays)
    assert q == p


def test_cone_and_recession():
    c = Polyhedron.from_generators([(0, 0)], [(1, 0), (1, 1)])
    assert not c.is_bounded
    assert c.contains((5, 3))
    assert not c.contains((-1, 0))
    assert len(c.rays) == 2


def test_empty():
    e = Polyhedron.from_inequalities([((1,), F(0)), ((-1,), F(-1))], 1)
    assert e.is_empty
    assert e == Polyhedron.empty(1)


def test_affine_hull_segment():
    seg = convex_hull([(0, 0, 1), (0, 1, 1)])
    d, planes = affine_hull(seg)
    assert d == 1
    normals = {h.normal for h in planes}
    assert len(planes) == 2
    # the two planes are x1 = 0 and x3 = 1 up to sign conventions
    assert all(h.has_integer_point() for h in planes)
    assert (1, 0, 0) in normals
    assert (0, 0, 1) in normals


def test_lattice_points_triangle():
    assert len(lattice_points(TYPE1_T)) == 6
    assert lattice_points(TYPE1_T) == brute_lattice_points(TYPE1_T)


def test_lattice_points_vs_box_scan_randomized():
    rng = make_rng()
    trials = 0
    while trials < 110:
        dim = rng.choice((2, 2, 3))
        pts = [
            tuple(F(rng.randint(-8, 8), rng.choice((1, 2, 3, 4))) for _ in range(dim))
            for _ in range(dim + rng.randint(1, 3))
        ]
        p = convex_hull(pts)
        assert lattice_points(p) == brute_lattice_points(p)
        trials += 1


def test_hull_round_trip_randomized():
    rng = make_rng()
    checked = 0
    for case in range(120):
        dim = rng.randint(1, 4)
        base = tuple(F(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(dim))
        rays = []
        if case % 3 == 1:
            # lower-dimensional: integer combinations along 1-2 directions
            dirs = [
                tuple(rng.randint(-3, 3) for _ in range(dim))
                for _ in range(rng.randint(1, 2))
            ]
            pts = [
                tuple(c + sum(rng.randint(-2, 2) * w[i] for w in dirs) for i, c in enumerate(base))
                for _ in range(rng.randint(1, 5))
            ]
        else:
            pts = [
                tuple(F(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(dim))
                for _ in range(dim + rng.randint(1, 4))
            ]
        if case % 3 == 2:
            # unbounded: 1-2 random rays
            rays = [
                tuple(rng.randint(-2, 2) for _ in range(dim))
                for _ in range(rng.randint(1, 2))
            ]
            rays = [r for r in rays if any(r)]
        if len(rays) == 2 and rank(rays, dim) == 1 and dot(*rays) < 0:
            # opposite rays span a line, which the kernel refuses
            with pytest.raises(LinealityError):
                convex_hull(pts, rays)
            continue
        p = convex_hull(pts, rays)
        checked += 1
        q = Polyhedron.from_inequalities(p.inequalities, dim)
        assert q == p
        r = Polyhedron.from_generators(p.vertices, p.rays)
        assert r == p
        for x in pts:
            assert p.contains(x)
    assert checked >= 100


def _brute_cone_rays(rows, d):
    """Oracle: extreme rays of a pointed cone from every (d-1)-row subset."""
    out = set()
    for sub in combinations(rows, d - 1):
        if rank(list(sub), d) != d - 1:
            continue
        (v,) = nullspace(list(sub), d)
        for w in (v, tuple(-x for x in v)):
            if all(dot(r, w) <= 0 for r in rows):
                out.add(scale_primitive(w))
    return out


def test_cone_rays_randomized(rng):
    assert cone_rays([], 3) == ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], [])
    assert cone_rays([(0, 0)], 2) == ([(1, 0), (0, 1)], [])
    pointed = 0
    for _ in range(240):
        d = rng.randint(1, 4)
        # rows from a random subspace of dimension < d, so dependent rows
        # come early, then (unless the set stays rank-deficient) free rows
        basis = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(rng.randint(0, d - 1))]
        rows = [
            tuple(sum(rng.randint(-2, 2) * b[i] for b in basis) for i in range(d))
            for _ in range(rng.randint(0, 5))
        ]
        if rng.random() < 0.6:
            rows += [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(1, 5))]
        if rows and rng.random() < 0.3:
            rows.append(rng.choice(rows))
        if rows and rng.random() < 0.3:
            rows.append(tuple(-x for x in rng.choice(rows)))
        lines, rays = cone_rays(rows, d)
        assert len(set(rays)) == len(rays)
        if rank(rows, d) == d:
            pointed += 1
            assert lines == []
            assert set(rays) == _brute_cone_rays(rows, d)
            continue
        assert lines == [scale_primitive(v) for v in nullspace(rows, d)]
        for ray in rays:
            assert all(dot(r, ray) <= 0 for r in rows)
            assert all(dot(l, ray) == 0 for l in lines)
            tight = [r for r in rows if dot(r, ray) == 0]
            assert rank(tight + lines, d) == d - 1
    assert 60 <= pointed <= 180


def test_lattice_free():
    require_lattice_free(TYPE1_T)  # boundary integer points are allowed
    fat = convex_hull([(0, 0), (3, 0), (0, 3)])
    with pytest.raises(NotLatticeFreeError) as err:
        require_lattice_free(fat)
    w = err.value.witness
    assert fat.interior_contains(w)
    assert all(c.denominator == 1 for c in w)


def test_interior_integer_point():
    assert interior_integer_point(TYPE1_T) is None
    fat = convex_hull([(0, 0), (3, 0), (0, 3)])
    w = interior_integer_point(fat)
    assert w is not None and fat.interior_contains(w)


def test_tetrahedron_lattice_points():
    lp = convex_hull(
        [
            (F(1, 4), F(1, 4), F(3, 2)),
            (F(-1, 2), F(-1, 2), 0),
            (F(5, 2), F(-1, 2), 0),
            (F(-1, 2), F(5, 2), 0),
        ]
    )
    pts = lattice_points(lp)
    assert len(pts) == 9
    require_lattice_free(lp)


def test_apply_unimodular():
    u = ((1, 1), (0, 1))
    shift = (0, 0)
    image = apply_unimodular(TYPE1_T, u, shift)
    assert len(lattice_points(image)) == len(lattice_points(TYPE1_T))
    with pytest.raises(GeometryError):
        apply_unimodular(TYPE1_T, ((2, 0), (0, 1)), shift)


def test_apply_unimodular_preserves_lattice_counts_randomized():
    rng = make_rng()
    for _ in range(100):
        pts = [
            (F(rng.randint(-4, 4), 2), F(rng.randint(-4, 4), 2)) for _ in range(4)
        ]
        p = convex_hull(pts)
        a = rng.randint(-2, 2)
        u = ((1, a), (0, 1)) if rng.random() < 0.5 else ((1, 0), (a, 1))
        shift = (rng.randint(-3, 3), rng.randint(-3, 3))
        image = apply_unimodular(p, u, shift)
        assert len(lattice_points(image)) == len(lattice_points(p))


def test_hyperplane_integer_points():
    assert Hyperplane.make((2, 2), F(2)).has_integer_point()
    assert not Hyperplane.make((2, 2), F(1)).has_integer_point()
    assert not Hyperplane.make((2, 0), F(1)).has_integer_point()
