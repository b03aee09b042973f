"""Gauge evaluation and intersection cut coefficients."""

from fractions import Fraction

import pytest

from splitlab.cuts import (
    CornerModel,
    boundary_hull,
    boundary_point,
    gauge,
    intersection_cut,
)
from splitlab.geometry import (
    GeometryError,
    NotLatticeFreeError,
    Polyhedron,
    cone_rays,
    convex_hull,
    interior_integer_point,
)
from splitlab.linalg import dot, scale_primitive

from conftest import make_rng

F = Fraction

TYPE1_T = convex_hull([(0, 0), (2, 0), (0, 2)])
TYPE1_MODEL = CornerModel.make(
    (F(1, 2), F(1, 2)),
    [(F(-1, 2), F(-1, 2)), (F(3, 2), F(-1, 2)), (F(-1, 2), F(3, 2))],
)


def test_model_validation():
    with pytest.raises(GeometryError):
        CornerModel.make((1, 1), [(1, 0)])  # integer corner point
    with pytest.raises(GeometryError):
        CornerModel.make((F(1, 2), 0), [(0, 0)])  # zero ray


def test_gauge_triangle():
    f = (F(1, 2), F(1, 2))
    assert gauge(TYPE1_T, f, (F(-1, 2), F(-1, 2))) == 1
    assert gauge(TYPE1_T, f, (F(3, 2), F(-1, 2))) == 1
    # doubling the ray doubles the coefficient (positive homogeneity)
    assert gauge(TYPE1_T, f, (-1, -1)) == 2


def test_gauge_slab():
    slab = convex_hull([(0, -1), (0, 2), (1, -1), (1, 2)])
    f = (F(1, 2), F(1, 2))
    assert gauge(slab, f, (1, 0)) == 2
    assert gauge(slab, f, (-1, 0)) == 2


def test_gauge_errors():
    f = (F(1, 2), F(1, 2))
    interior = "reference point must lie in the interior"
    with pytest.raises(GeometryError, match=interior):
        gauge(TYPE1_T, (5, 5), (1, 0))  # outside
    with pytest.raises(GeometryError, match=interior):
        gauge(TYPE1_T, (1, 1), (1, 0))  # on the boundary
    with pytest.raises(GeometryError, match=interior):
        boundary_point(convex_hull([(0, 0), (2, 0)]), (1, 0), (1, 0))  # relative interior
    with pytest.raises(GeometryError, match="gauge of the zero ray is undefined"):
        gauge(TYPE1_T, f, (0, F(0, 3)))
    cone = Polyhedron.from_generators([(0, 0)], [(1, 0), (0, 1)])
    with pytest.raises(GeometryError, match="gauge requires a bounded set"):
        gauge(cone, f, (1, 1))


def test_intersection_cut_type1():
    cut = intersection_cut(TYPE1_MODEL, TYPE1_T)
    assert cut.psi == (1, 1, 1)


def test_intersection_cut_requires_lattice_free():
    fat = convex_hull([(0, 0), (3, 0), (0, 3)])
    with pytest.raises(NotLatticeFreeError):
        intersection_cut(TYPE1_MODEL, fat)


def test_boundary_points_and_corners():
    f = (F(1, 2), F(1, 2))
    assert boundary_point(TYPE1_T, f, (F(-1, 2), F(-1, 2))) == (0, 0)
    assert boundary_hull(TYPE1_MODEL, TYPE1_T) is TYPE1_T
    # dropping the ray to a corner loses the corner-hitting property
    partial = CornerModel.make(
        (F(1, 2), F(1, 2)), [(F(3, 2), F(-1, 2)), (F(-1, 2), F(3, 2))]
    )
    hull = boundary_hull(partial, TYPE1_T)
    assert hull is not TYPE1_T
    assert hull == convex_hull([(0, 2), (2, 0)])


def test_gauge_homogeneity_and_sublinearity_randomized():
    # 110 random bodies: psi(t r) = t psi(r), psi(r+r') <= psi(r) + psi(r')
    rng = make_rng()
    done = 0
    while done < 110:
        pts = [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(5)]
        body = convex_hull(pts)
        f = (F(1, 2), F(1, 2))
        if not body.interior_contains(f):
            continue
        r1 = (rng.randint(-3, 3), rng.randint(-3, 3))
        r2 = (rng.randint(-3, 3), rng.randint(-3, 3))
        if not any(r1) or not any(r2) or not any(x + y for x, y in zip(r1, r2)):
            continue
        t = F(rng.randint(1, 9), rng.randint(1, 9))
        assert gauge(body, f, tuple(t * x for x in r1)) == t * gauge(body, f, r1)
        s = tuple(x + y for x, y in zip(r1, r2))
        assert gauge(body, f, s) <= gauge(body, f, r1) + gauge(body, f, r2)
        done += 1


def _ref_gauge(l, f, r):
    """psi on the Fraction view: the least exit step over the inequalities
    a·x <= b that r moves toward, inverted."""
    steps = [(b - dot(a, f)) / dot(a, r) for a, b in l.inequalities if dot(a, r) > 0]
    return 1 / min(steps)


def _fraction(rng, den, reach):
    return F(rng.randint(-reach * den, reach * den), den)


def test_gauge_on_integer_rows_matches_fraction_reference():
    """gauge, boundary_point and intersection_cut against the Fraction
    computation over l.inequalities, in dimensions 1-3, with f and the
    rays on different denominators (ints among them)."""
    rng = make_rng()
    done = cuts = 0
    while done < 300:
        dim = 1 + done % 3
        den, reach = rng.choice((1, 2, 3, 5)), rng.choice((1, 2, 6))
        l = convex_hull([[_fraction(rng, den, reach) for _ in range(dim)] for _ in range(dim + 2)])
        if l.affine_dim() < dim:
            continue
        # a point strictly inside: the centroid, nudged on a fresh denominator
        c = [sum(v[i] for v in l.vertices) / len(l.vertices) for i in range(dim)]
        f = tuple(x + F(rng.randint(-1, 1), 7 * rng.randint(5, 9)) for x in c)
        if not l.interior_contains(f):
            continue
        rays = []
        while len(rays) < 3:
            e = rng.choice((1, 4, 6, 11))
            r = tuple(F(rng.randint(-5, 5), e) if e > 1 else rng.randint(-5, 5) for _ in range(dim))
            if any(r):
                rays.append(r)
        for r in rays:
            psi = gauge(l, f, r)
            assert type(psi) is F and psi == _ref_gauge(l, f, r), (l, f, r)
            lam = 1 / _ref_gauge(l, f, r)
            assert boundary_point(l, f, r) == tuple(x + lam * y for x, y in zip(f, r))
        if any(x.denominator > 1 for x in f) and interior_integer_point(l) is None:
            model = CornerModel.make(f, rays)
            assert intersection_cut(model, l).psi == tuple(_ref_gauge(l, f, r) for r in rays)
            cuts += 1
        done += 1
    assert cuts >= 20



def test_boundary_hull_corners_are_hit_by_the_rays():
    """On seeded 2D models whose rays positively span the plane, the rays
    hit every corner of the boundary hull, and the hull is l itself, the
    same object, exactly when they hit every corner of l.  Half the models
    are planted with a ray to each corner of l, the other half with rays
    that miss some corner, so both outcomes are covered for any seed."""
    rng = make_rng()
    done = same = 0
    while done < 200:
        den = rng.choice((1, 2, 3))
        k = rng.randint(3, 6)
        l = convex_hull([[_fraction(rng, den, 3) for _ in range(2)] for _ in range(k)])
        if l.affine_dim() < 2:
            continue
        c = [sum(v[i] for v in l.vertices) / len(l.vertices) for i in range(2)]
        f = tuple(x + F(rng.randint(-1, 1), 7 * rng.randint(5, 9)) for x in c)
        if not l.interior_contains(f) or all(x.denominator == 1 for x in f):
            continue
        corners = [tuple(x - y for x, y in zip(v, f)) for v in l.vertices]
        # one ray to each corner, or to a random proper subset of them
        rays = corners[:] if done % 2 == 0 else rng.sample(corners, rng.randrange(len(corners)))
        missed = [c for c in corners if c not in rays]
        while len(rays) < 3 or rng.random() < 0.3:
            r = (rng.randint(-4, 4), rng.randint(-4, 4))
            # r hits the corner c iff it is a positive multiple of c
            if any(r) and not any(r[0] * c[1] == r[1] * c[0] and dot(r, c) > 0 for c in missed):
                rays.append(r)
        if cone_rays([scale_primitive(r) for r in rays], 2) != ([], []):
            continue
        model = CornerModel.make(f, rays)
        hull = boundary_hull(model, l)
        assert boundary_hull(model, hull) is hull, (l, model)
        assert (hull is l) == (not missed), (l, model)
        assert hull == convex_hull([boundary_point(l, f, r) for r in rays])
        same += hull is l
        done += 1
    assert 50 <= same <= 150, same
