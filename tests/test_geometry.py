"""Exact polyhedra: double description, hulls, lattice points, lattice-freeness."""

from fractions import Fraction
from itertools import combinations, product
from math import ceil, floor, gcd

import pytest

from splitlab.geometry import (
    GeometryError,
    LinealityError,
    NotLatticeFreeError,
    Polyhedron,
    _adjacent,
    _canonical,
    _combine,
    _homog_rows,
    _iter_lattice_points,
    _over_denominator,
    _pointed_cone_rays,
    _row_ineq,
    apply_unimodular,
    as_point,
    cone_rays,
    convex_hull,
    interior_integer_point,
    lattice_points,
    require_lattice_free,
)
from splitlab.linalg import dot, integer_solve_rows, rank, scale_primitive

from conftest import _reference_nullspace, contains, intersect, make_rng

F = Fraction

TYPE1_T = convex_hull([(0, 0), (2, 0), (0, 2)])


def brute_lattice_points(p: Polyhedron):
    """Oracle: scan the integer box and filter by membership."""
    box = p.bounding_box()
    ranges = [range(ceil(lo), floor(hi) + 1) for lo, hi in box]
    return sorted(q for q in product(*ranges) if contains(p, q))


def test_hull_triangle():
    assert TYPE1_T.dim == 2
    assert set(TYPE1_T.vertices) == {(0, 0), (2, 0), (0, 2)}
    assert len(TYPE1_T.facet_inequalities()) == 3
    assert contains(TYPE1_T, (F(1, 2), F(1, 2)))
    assert not contains(TYPE1_T, (2, 2))


def test_hull_drops_interior_points():
    p = convex_hull([(0, 0), (1, 0), (0, 1), (F(1, 4), F(1, 4))])
    assert set(p.vertices) == {(0, 0), (1, 0), (0, 1)}


def test_unit_cube():
    cube = convex_hull(list(product((0, 1), repeat=3)))
    assert len(cube.vertices) == 8
    assert len(cube.facet_inequalities()) == 6
    with pytest.raises(GeometryError):
        cube.contains_polyhedron(TYPE1_T)
    with pytest.raises(GeometryError):
        TYPE1_T.contains_polyhedron(cube)
    with pytest.raises(GeometryError):
        TYPE1_T.contains_polyhedron(Polyhedron.empty(3))


def test_point_hull_rows_are_tight(rng):
    """Every row of a point's hull is tight on the point: a row tight on no
    generator is not a facet."""
    assert convex_hull([(1,)]).inequalities == (((-1,), -1), ((1,), 1))
    for dim in range(1, 5):
        for _ in range(20):
            pt = tuple(F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(dim))
            p = convex_hull([pt])
            assert len(p.inequalities) == 2 * dim, pt
            assert all(dot(a, pt) == b for a, b in p.inequalities), pt


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
    assert contains(c, (5, 3))
    assert not contains(c, (-1, 0))
    assert len(c.rays) == 2
    with pytest.raises(GeometryError, match="ray must be nonzero"):
        convex_hull([(0, 0)], [(0, 0)])


def test_empty():
    e = Polyhedron.from_inequalities([((1,), F(0)), ((-1,), F(-1))], 1)
    assert e.is_empty
    assert e == Polyhedron.empty(1)
    # an infeasible 0·x <= b is the empty set's row t <= 0; a trivial one gives no row
    assert _homog_rows([((0, 0), F(-1))], 2) == [(0, 0, 1), (0, 0, -1)]
    assert _homog_rows([((0, 0), F(1)), ((1, 0), F(2))], 2) == [(1, 0, -2), (0, 0, -1)]
    for d in (1, 2, 3):
        empty = Polyhedron.empty(d)
        cube = convex_hull(list(product((0, 1), repeat=d)))
        unit = [tuple(int(i == j) for j in range(d)) for i in range(d)]
        box = [(u, F(1)) for u in unit] + [(tuple(-x for x in u), F(0)) for u in unit]
        assert intersect(cube, empty) == empty
        assert intersect(empty, cube) == empty
        assert Polyhedron.from_generators([], unit) == empty
        assert apply_unimodular(empty, unit, (1,) * d) == empty
        assert Polyhedron.from_inequalities([*box, ((0,) * d, F(-1))], d) == empty
        assert empty._cut(cube.rows) is empty


def test_intersection_dimensions_must_agree():
    tri = convex_hull([(0, 0), (2, 0), (0, 2)])
    for a in ((1,), (1, 0, 0)):
        with pytest.raises(GeometryError, match="dimension mismatch"):
            tri.intersect_halfspace(a, F(0))
    with pytest.raises(GeometryError, match="dimension mismatch"):
        intersect(tri, Polyhedron.empty(3))


def test_inequality_rows_must_fit_the_dimension():
    # a 3-entry row among 2-entry ones, and a 1-entry row
    square = [((1, 0, 0), 1), ((-1, 0), 0), ((0, -1), 0), ((1, 1), 2)]
    short = [((1,), 1), ((-1, 0), 0), ((0, -1), 0)]
    for rows in (square, short):
        with pytest.raises(GeometryError, match="^inequality dimension mismatch$"):
            Polyhedron.from_inequalities(rows, 2)


def test_affine_hull_segment():
    seg = convex_hull([(0, 0, 1), (0, 1, 1)])
    rows = set(seg.inequalities)
    # each equality is kept as a pair of opposite rows, and they are the non-facets
    paired = [(a, b) for a, b in seg.inequalities if (tuple(-x for x in a), -b) in rows]
    assert set(paired) == rows - set(seg.facet_inequalities())
    # each plane once, its normal's leading nonzero entry positive
    planes = {
        (a, b) if next(x for x in a if x) > 0 else (tuple(-x for x in a), -b) for a, b in paired
    }
    assert seg.affine_dim() == 1
    normals = {a for a, _ in planes}
    assert len(paired) == 4
    assert len(planes) == 2
    # the two planes are x1 = 0 and x3 = 1 up to sign conventions
    assert all(b.denominator == 1 for _, b in planes)
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


def reference_relint(p: Polyhedron, q) -> bool:
    """Oracle: on the equalities, which come as opposite pairs of
    inequalities, and strictly inside the rest."""
    facets = set(p.facet_inequalities())
    return all(
        dot(a, q) < b if (a, b) in facets else dot(a, q) == b for a, b in p.inequalities
    )


def test_lattice_points_and_interior_point_vs_box_scan():
    """Enumeration and the interior point against the box scan, in dims
    1-4: full-dimensional bodies, points, segments and triangles, bodies
    inside one open unit box, negative vertices with denominators 1-4."""
    rng = make_rng()
    kinds = {"full": 0, "point": 0, "segment": 0, "triangle": 0, "no box point": 0}
    with_interior = 0
    for case in range(160):
        dim = case % 4 + 1
        reach = (8, 8, 6, 3)[dim - 1]
        den = rng.choice((1, 2, 3, 4))

        def coord():
            return F(rng.randint(-reach * den, reach * den), den)

        kind = rng.choice(["full", "point", "segment", "triangle"][: dim + 1])
        if case % 5 == 4:
            # every coordinate strictly between two consecutive integers
            kind, den = "no box point", rng.choice((2, 3, 4))
            cell = [rng.randint(-reach, reach - 1) for _ in range(dim)]
            pts = [
                tuple(c + F(rng.randint(1, den - 1), den) for c in cell) for _ in range(dim + 1)
            ]
        elif kind == "full":
            pts = [tuple(coord() for _ in range(dim)) for _ in range(dim + rng.randint(1, 3))]
        else:
            # an affine image of the unit point, segment or triangle
            k = ["point", "segment", "triangle"].index(kind)
            base = tuple(coord() for _ in range(dim))
            dirs = [tuple(F(rng.randint(-3, 3), den) for _ in range(dim)) for _ in range(k)]
            pts = [base] + [tuple(b + d for b, d in zip(base, v)) for v in dirs]
        p = convex_hull(pts)
        kinds[kind] += 1
        expected = brute_lattice_points(p)
        assert lattice_points(p) == expected, pts
        if kind == "no box point":
            assert expected == [], pts
        first = next((q for q in expected if reference_relint(p, q)), None)
        assert interior_integer_point(p) == first, pts
        with_interior += first is not None
        centroid = tuple(sum(c) / len(p.vertices) for c in zip(*p.vertices))
        for q in expected + list(p.vertices) + [centroid]:
            assert p.relint_contains(q) == reference_relint(p, q), (pts, q)
    assert min(kinds.values()) >= 5, kinds
    assert with_interior >= 10


def test_relint_contains_in_integers_matches_reference(rng):
    """relint_contains on integer rows against the Fraction oracle, on
    full- and lower-dimensional polytopes in dimensions 1-4, at points on
    other denominators than the body's: vertices, midpoints of vertex
    pairs and the centroid moved a little, as ints or Fractions."""
    lower = inside = 0
    for case in range(200):
        dim = case % 4 + 1
        den = rng.choice((1, 2, 3))
        k = rng.randint(1, dim + 2)
        base = [F(rng.randint(-4 * den, 4 * den), den) for _ in range(dim)]
        pts = [
            tuple(b + F(rng.randint(-3, 3), den) for b in base) for _ in range(k)
        ]
        p = convex_hull(pts)
        lower += p.affine_dim() < dim
        vs = p.vertices
        centroid = tuple(sum(c) / len(vs) for c in zip(*vs))
        probes = list(vs) + [centroid]
        probes += [tuple((x + y) / 2 for x, y in zip(u, v)) for u in vs for v in vs]
        probes += [
            tuple(c + F(rng.randint(-1, 1), rng.choice((5, 7, 11))) for c in centroid)
            for _ in range(4)
        ]
        for q in probes:
            if all(c.denominator == 1 for c in q) and case % 2:
                q = tuple(int(c) for c in q)
            assert p.relint_contains(q) == reference_relint(p, q), (pts, q)
            inside += p.relint_contains(q)
    assert lower >= 30 and inside >= 200
    with pytest.raises(GeometryError, match="point dimension mismatch"):
        TYPE1_T.relint_contains((F(1, 2),))
    assert not Polyhedron.empty(2).relint_contains((0, 0))
    assert convex_hull([(0, 0), (2, 0)]).relint_contains(("1/2", 0))


def test_facet_rows_and_contains_match_fraction_reference(rng):
    """The facet list and the integer membership test against the
    Fraction views they replace, on full- and lower-dimensional polytopes
    in dimensions 1-4 and on the empty set: the facets are the
    inequalities whose negation is not one too, and a point is in p iff it
    satisfies every inequality."""
    lower = inside = 0
    for case in range(200):
        dim = case % 4 + 1
        den = rng.choice((1, 2, 3))
        base = [F(rng.randint(-4 * den, 4 * den), den) for _ in range(dim)]
        pts = [
            tuple(b + F(rng.randint(-3, 3), den) for b in base)
            for _ in range(rng.randint(1, dim + 2))
        ]
        p = convex_hull(pts)
        lower += p.affine_dim() < dim
        seen = set(p.inequalities)
        want = [(a, b) for a, b in p.inequalities if (tuple(-x for x in a), -b) not in seen]
        assert p.facet_inequalities() == want, pts
        assert sorted(map(_row_ineq, p._facet_rows)) == want, pts
        vs = p.vertices
        probes = list(vs) + [tuple((x + y) / 2 for x, y in zip(u, v)) for u in vs for v in vs]
        probes += [
            tuple(c + F(rng.randint(-1, 1), rng.choice((2, 5, 7))) for c in vs[0])
            for _ in range(4)
        ]
        for q in probes:
            got = contains(p, q)
            assert got == all(dot(a, q) <= b for a, b in p.inequalities), (pts, q)
            inside += got
    assert lower >= 30 and inside >= 200
    for dim in range(1, 5):
        empty = Polyhedron.empty(dim)
        assert empty.facet_inequalities() == list(empty.inequalities) == [((0,) * dim, -1)]
        assert not contains(empty, (0,) * dim)
    with pytest.raises(GeometryError, match="point dimension mismatch"):
        contains(TYPE1_T, (F(1, 2),))


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
            assert contains(p, x)
        # the stored generators are primitive, sorted, and the views read them
        assert list(p.gens) == sorted(p.gens)
        for g in p.gens:
            assert g[-1] >= 0 and gcd(*g) == 1
        assert p.vertices == tuple(sorted(tuple(F(c, g[-1]) for c in g[:-1]) for g in p.gens if g[-1]))
        assert p.rays == tuple(g[:-1] for g in p.gens if not g[-1])
        # integer containment against the rational vertex and ray tests
        shift = tuple((case + i) % 3 - 1 for i in range(dim))
        moved = convex_hull([tuple(c + s for c, s in zip(v, shift)) for v in p.vertices], p.rays)
        for outer, inner in ((p, moved), (moved, p), (p, p)):
            expect = all(contains(outer, v) for v in inner.vertices) and all(
                dot(a, r) <= 0 for r in inner.rays for a, _ in outer.inequalities
            )
            assert outer.contains_polyhedron(inner) == expect
    assert checked >= 100


def _brute_cone_rays(rows, d):
    """Oracle: extreme rays of a pointed cone from every (d-1)-row subset."""
    out = set()
    for sub in combinations(rows, d - 1):
        if rank(list(sub), d) != d - 1:
            continue
        (v,) = _reference_nullspace(list(sub), d)
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
        assert lines == [scale_primitive(v) for v in _reference_nullspace(rows, d)]
        for ray in rays:
            assert all(dot(r, ray) <= 0 for r in rows)
            assert all(dot(l, ray) == 0 for l in lines)
            tight = [r for r in rows if dot(r, ray) == 0]
            assert rank(tight + lines, d) == d - 1
    assert 60 <= pointed <= 180


def _old_adjacent(masks, i, j, common):
    """The adjacency test as a scan for a third generator tight on every
    row of ``common``."""
    return not any(k != i and k != j and common & masks[k] == common for k in range(len(masks)))


def test_adjacent_counts_like_the_scan(rng):
    seen = {True: 0, False: 0}
    for _ in range(600):
        masks = [rng.getrandbits(rng.randint(1, 8)) for _ in range(rng.randint(2, 12))]
        if rng.random() < 0.2:
            masks.append(rng.choice(masks))
        i, j = rng.sample(range(len(masks)), 2)
        common = masks[i] & masks[j]
        got = _adjacent(masks, common)
        assert got == _old_adjacent(masks, i, j, common), (masks, i, j)
        seen[got] += 1
    assert min(seen.values()) >= 20, seen


def _check_dd(rows, lines, rays, masks):
    """Lines on every row's hyperplane; each ray on the feasible side of
    every row, with bit k of its mask set iff rows[k] is tight on it."""
    assert len(masks) == len(rays)
    for l in lines:
        assert all(dot(r, l) == 0 for r in rows)
    for ray, m in zip(rays, masks):
        assert all(dot(r, ray) <= 0 for r in rows), (rows, ray)
        assert m == sum(1 << k for k, r in enumerate(rows) if dot(r, ray) == 0), (rows, ray)


def test_dd_masks_and_rows_that_cut_no_ray(rng, monkeypatch):
    """_pointed_cone_rays on seeded row sets in d = 2-5: every mask is the
    tight set by dot products and every ray satisfies every row, also
    after a seeded pass over a row that is tight on some rays but cuts
    none (a positive combination of two rows tight on a common ray); such
    a row only marks its tight rays and runs no DD step: no pair is tested
    for adjacency and no ray is combined."""
    import splitlab.geometry as geometry

    steps = []
    for name in ("_adjacent", "_combine"):
        fn = getattr(geometry, name)
        monkeypatch.setattr(geometry, name, lambda *args, fn=fn: steps.append(args) or fn(*args))
    no_cut = 0
    for case in range(240):
        d = 2 + case % 4
        rows = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(d, d + 5))]
        lines, rays, masks = _pointed_cone_rays(rows, d)
        _check_dd(rows, lines, rays, masks)
        if lines or not rays:
            continue
        k = rng.randrange(len(rays))
        tight = [i for i in range(len(rows)) if masks[k] >> i & 1]
        if len(tight) < 2:
            continue
        i, j = rng.sample(tight, 2)
        c, e = rng.randint(1, 3), rng.randint(1, 3)
        extra = tuple(c * x + e * y for x, y in zip(rows[i], rows[j]))
        if not any(extra) or extra in rows:
            continue
        steps.clear()
        _, out, out_masks = _pointed_cone_rays([extra], d, (len(rows), rays, masks))
        assert steps == [] and out == rays
        _check_dd([*rows, extra], [], out, out_masks)
        assert out_masks[k] >> len(rows) & 1
        no_cut += 1
    assert no_cut >= 20, no_cut


def test_seeded_pass_takes_only_the_rows_left(rng):
    """A pass seeded with p's double description takes only the new rows,
    numbered after p's, and gives the same rays and masks as the unseeded
    pass over p's rows and then the new ones, and the same polyhedron
    after ``_canonical``: seeded 2D-4D polyhedra, with rays or
    lower-dimensional among them, cut by one to three fresh rows."""
    seen = dict.fromkeys(("rays", "lower", "cut", "kept", "empty"), 0)
    for case in range(300):
        dim = 2 + case % 3
        pts = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(rng.randint(2, dim + 3))]
        if case % 4 == 1:
            pts = [p[:-1] + (p[0],) for p in pts]  # on the plane x_dim = x_1
        rays = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(case % 4 == 2)]
        try:
            p = Polyhedron.from_generators(pts, [r for r in rays if any(r)])
        except LinealityError:
            continue
        new, count = [], rng.randint(1, 3)
        while len(new) < count:
            if case % 5 == 0:
                # a positive combination of two of p's rows cuts no generator
                (r, e), c, k = rng.sample(p.rows, 2), rng.randint(1, 3), rng.randint(1, 3)
                row = tuple(c * x + k * y for x, y in zip(r, e))
            else:
                row = tuple(rng.randint(-3, 3) for _ in range(dim + 1))
            if any(row[:-1]) and (row := scale_primitive(row)) not in (*p.rows, *new):
                new.append(row)
        rows = [*p.rows, *new]
        lines, want, want_masks = _pointed_cone_rays(rows, dim + 1)
        _, got, got_masks = _pointed_cone_rays(new, dim + 1, (len(p.rows), p.gens, p.masks))
        assert lines == [] and sorted(zip(got, got_masks)) == sorted(zip(want, want_masks))
        q, ref = _canonical(dim, rows, got, got_masks), _canonical(dim, rows, want, want_masks)
        assert (q.gens, q.rows, q.masks) == (ref.gens, ref.rows, ref.masks), (pts, rays, new)
        seen["rays"] += bool(p.rays)
        seen["lower"] += p.affine_dim() < dim
        seen["empty"] += q.is_empty
        seen["cut" if tuple(got) != p.gens else "kept"] += 1
    assert min(seen.values()) >= 20, seen


def _three_pass_cone_rays(rows, d, seed=None):
    """Reference copy of ``_pointed_cone_rays`` whose DD step reads the
    rays in three passes: the positive indices, then the negative ones,
    then the kept rays with their marked masks."""
    if seed is None:
        start, rays, masks = 0, [], []
        lines = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    else:
        (start, rays, masks), lines = seed, []
    for idx, a in enumerate(rows, start):
        bit = 1 << idx
        if lines:
            lvals = [dot(a, l) for l in lines]
            cut = next((i for i, v in enumerate(lvals) if v != 0), None)
            if cut is not None:
                l, al = lines.pop(cut), lvals.pop(cut)
                sgn = 1 if al > 0 else -1
                lines = [_combine(al, m, am, l) for m, am in zip(lines, lvals)]
                rays = [_combine(abs(al), r, sgn * dot(a, r), l) for r in rays]
                rays.append(tuple(-sgn * y for y in l))
                masks = [m | bit for m in masks] + [bit - 1]
                continue
        vals = [dot(a, r) for r in rays]
        pos = [i for i, v in enumerate(vals) if v > 0]
        if not pos:
            masks = [m | bit if v == 0 else m for m, v in zip(masks, vals)]
            continue
        need = d - len(lines) - 2
        neg = [j for j, v in enumerate(vals) if v < 0]
        out = [r for r, v in zip(rays, vals) if v <= 0]
        out_masks = [m | bit if v == 0 else m for m, v in zip(masks, vals) if v <= 0]
        for i in pos:
            for j in neg:
                common = masks[i] & masks[j]
                if common.bit_count() >= need and _adjacent(masks, common):
                    out.append(_combine(vals[i], rays[j], vals[j], rays[i]))
                    out_masks.append(common | bit)
        rays, masks = out, out_masks
    return lines, rays, masks


def test_dd_step_matches_the_three_pass_reference(rng):
    """_pointed_cone_rays gives the same (lines, rays, masks), order
    included, as the three-pass reference: unseeded on seeded row sets in
    d = 2-5, and seeded with a pointed prefix's state on the rows left,
    among them rows that cut no ray (a positive combination of two rows)."""
    seen = dict.fromkeys(("lines", "pointed", "seeded", "no_cut"), 0)
    for case in range(400):
        d = 2 + case % 4
        rows = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(2, d + 5))]
        want = _three_pass_cone_rays(rows, d)
        assert _pointed_cone_rays(rows, d) == want, rows
        seen["lines" if want[0] else "pointed"] += 1
        k = rng.randint(1, len(rows) - 1)
        head, tail = rows[:k], rows[k:]
        lines, rays, masks = _three_pass_cone_rays(head, d)
        if lines:
            continue
        if case % 2 == 0:
            (r, e), c, f = rng.sample(head, 2), rng.randint(1, 3), rng.randint(1, 3)
            tail = [tuple(c * x + f * y for x, y in zip(r, e)), *tail]
            seen["no_cut"] += 1
        seed = (k, rays, masks)
        assert _pointed_cone_rays(tail, d, seed) == _three_pass_cone_rays(tail, d, seed), rows
        seen["seeded"] += 1
    assert min(seen.values()) >= 40, seen


def test_point_generator_over_its_denominator(rng):
    """A point's homogeneous generator (*n, t), with (n, t) from
    ``_over_denominator``, is scale_primitive(p + (1,)) and coprime, on
    seeded points in 1D-4D with negative, zero, integral and mixed
    denominators; as_point gives each int, str and Fraction coordinate as
    the Fraction of its value."""
    seen = dict.fromkeys(("integral", "common", "mixed", "zero", "negative"), 0)
    for case in range(400):
        dim = 1 + case % 4
        p = tuple(F(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 6))) for _ in range(dim))
        n, t = _over_denominator(p)
        assert (*n, t) == scale_primitive(p + (1,)), p
        assert gcd(*n, t) == 1 and t >= 1
        dens = {x.denominator for x in p}
        seen["integral" if dens == {1} else "mixed" if len(dens) > 1 else "common"] += 1
        seen["zero"] += 0 in p
        seen["negative"] += any(x < 0 for x in p)
        forms = [p, tuple(map(str, p)), tuple(f"{2 * x.numerator}/{2 * x.denominator}" for x in p)]
        if dens == {1}:
            forms.append(tuple(x.numerator for x in p))
        for q in forms:
            got = as_point(q)
            assert got == p and all(type(x) is Fraction for x in got), q
    assert min(seen.values()) >= 20, seen


def test_lattice_free():
    require_lattice_free(TYPE1_T)  # boundary integer points are allowed
    fat = convex_hull([(0, 0), (3, 0), (0, 3)])
    with pytest.raises(NotLatticeFreeError) as err:
        require_lattice_free(fat)
    w = err.value.witness
    assert fat.interior_contains(w)
    assert all(c.denominator == 1 for c in w)
    # the message renders the witness as the reports render rationals
    message = "body is not lattice-free; interior integer point (1, 1/2)"
    assert str(NotLatticeFreeError((F(1), F(1, 2)))) == message


def test_interior_integer_point():
    assert interior_integer_point(TYPE1_T) is None
    fat = convex_hull([(0, 0), (3, 0), (0, 3)])
    w = interior_integer_point(fat)
    assert w is not None and fat.interior_contains(w)


def test_refusal_stops_early_and_keeps_no_partial_scan(lattice_scans):
    """A refusal stops at its first interior point, and that partial scan
    is not cached: the points come from a second, full scan."""
    side = 60
    tri = convex_hull([(0, 0), (side, 0), (0, side)])
    full = [(x, y) for x in range(side + 1) for y in range(side + 1 - x)]
    with pytest.raises(NotLatticeFreeError):
        require_lattice_free(tri)
    assert len(lattice_scans) == 1 and lattice_scans[0] < len(full)
    assert lattice_points(tri) == [tuple(map(F, q)) for q in full]
    assert lattice_scans[1:] == [len(full)]
    # the full scan is kept now: the refusal reads it
    with pytest.raises(NotLatticeFreeError):
        require_lattice_free(tri)
    assert len(lattice_scans) == 2


def test_lattice_free_scan_is_cached_once(lattice_scans):
    """A scan that finds no interior point is the body's cached scan, and
    lattice_points then reads it without scanning again."""
    lp = convex_hull([(F(1, 4), F(1, 4), F(3, 2)), (F(-1, 2), F(-1, 2), 0),
                      (F(5, 2), F(-1, 2), 0), (F(-1, 2), F(5, 2), 0)])
    require_lattice_free(lp)
    assert interior_integer_point(lp) is None
    assert len(lattice_points(lp)) == 9
    assert lattice_scans == [9]


def test_cached_scan_matches_a_fresh_enumeration():
    """On seeded bodies in dimensions 1-4, lower-dimensional ones included:
    after the lattice-free test, a body has a cached scan iff it has no
    interior integer point, and the scan equals a fresh enumeration."""
    rng = make_rng()
    cached = lower = 0
    for case in range(120):
        dim = case % 4 + 1
        reach = (6, 4, 3, 2)[dim - 1]
        den = rng.choice((1, 2, 3))
        k = rng.randint(1, dim + 2)
        pts = [
            tuple(F(rng.randint(-reach * den, reach * den), den) for _ in range(dim))
            for _ in range(k)
        ]
        p = convex_hull(pts)
        fresh = tuple(_iter_lattice_points(p))
        witness = interior_integer_point(p)
        assert ("_lattice_points" in p.__dict__) == (witness is None), pts
        cached += witness is None
        lower += p.affine_dim() < dim
        assert p._lattice_points == fresh, pts
        assert lattice_points(p) == [tuple(map(F, q)) for q in fresh]
    assert 20 <= cached <= 100 and lower >= 20, (cached, lower)


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
    # a shift of the wrong length, short or long
    with pytest.raises(GeometryError, match="shift dimension mismatch"):
        apply_unimodular(TYPE1_T, u, (1,))
    with pytest.raises(GeometryError, match="shift dimension mismatch"):
        apply_unimodular(TYPE1_T, u, (1, 2, 3))
    # a non-integral entry is refused, not truncated; integral Fractions pass
    with pytest.raises(GeometryError, match="not an integer"):
        apply_unimodular(TYPE1_T, ((1, F(3, 2)), (0, 1)), shift)
    with pytest.raises(GeometryError, match="not an integer"):
        apply_unimodular(TYPE1_T, ((1, 1.5), (0, 1)), shift)
    assert apply_unimodular(TYPE1_T, ((F(1), F(2, 2)), (0, 1)), shift) == image


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
        assert image == convex_hull([tuple(dot(r, v) + c for r, c in zip(u, shift)) for v in p.vertices])


def test_hyperplane_integer_points():
    """Every row of a body has a coprime integer normal, so by Bezout its
    plane a·x = b holds an integer point iff b is an integer: the facet
    repair tests read that as ``b.denominator == 1``."""
    square = Polyhedron.from_inequalities(
        [((2, 2), F(2)), ((2, 0), F(1)), ((-2, 0), F(1)), ((0, -2), F(1))], 2
    )
    assert square.facet_inequalities() == [
        ((-1, 0), F(1, 2)), ((0, -1), F(1, 2)), ((1, 0), F(1, 2)), ((1, 1), F(1))
    ]
    rng, seen = make_rng(), set()
    for _ in range(60):
        dim = rng.randint(1, 3)
        body = convex_hull(
            [tuple(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(dim))
             for _ in range(dim + 2)]
        )
        for a, b in body.inequalities:
            assert gcd(*a) == 1
            point = integer_solve_rows([(tuple(b.denominator * x for x in a), b.numerator)])
            assert (point is not None) == (b.denominator == 1), (a, b)
            seen.add(point is not None)
    assert seen == {True, False}
