"""Integer hulls, 2-partitionability, the 2-hyperplane property, 2D classes."""

from fractions import Fraction
from itertools import combinations, product

import pytest

import splitlab.certify
import splitlab.cuts
import splitlab.geometry
from splitlab.certify import (
    PartitionCertificate,
    _faces,
    classify_2d,
    has_2hyperplane_property,
    infinite_rank_2d,
    is_2partitionable,
)
from splitlab.cuts import CornerModel
from splitlab.geometry import (
    GeometryError,
    Polyhedron,
    _from_homogeneous,
    _integer,
    apply_unimodular,
    as_point,
    convex_hull,
    lattice_points,
)
from splitlab.linalg import _echelon, dot, integer_solve_rows, rank
from splitlab.splits import Split

from conftest import all_faces, make_rng

F = Fraction

TYPE1_T = convex_hull([(0, 0), (2, 0), (0, 2)])
TYPE1_MODEL = CornerModel.make(
    (F(1, 2), F(1, 2)),
    [(F(-1, 2), F(-1, 2)), (F(3, 2), F(-1, 2)), (F(-1, 2), F(3, 2))],
)

T1_POINTS = [(0, 0, 1), (1, 0, 1), (0, 1, 1)]
T0_POINTS = [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (1, 1, 0), (0, 2, 0)]

# 0 <= 7x + 11y <= 1, |x| <= 200: lattice-free, 73 integer points
STRIP = Polyhedron.from_inequalities(
    [((7, 11), 1), ((-7, -11), 0), ((1, 0), 200), ((-1, 0), 200)], 2
)

# tetrahedron over the big triangle with apex p = (1/4, 1/4, 3/2)
L_P = convex_hull(
    [
        (F(1, 4), F(1, 4), F(3, 2)),
        (F(-1, 2), F(-1, 2), 0),
        (F(5, 2), F(-1, 2), 0),
        (F(-1, 2), F(5, 2), 0),
    ]
)
# frustum variant without the 2-hyperplane property
L_PRIME = convex_hull(
    [
        (0, 0, F(-1, 2)),
        (F(5, 2), 0, F(-1, 2)),
        (0, F(5, 2), F(-1, 2)),
        (0, 0, F(3, 2)),
        (F(1, 2), 0, F(3, 2)),
        (0, F(1, 2), F(3, 2)),
    ]
)

# the 3D bodies of the ROADMAP: T3 holds one lattice point, N3 lacks the property
T3 = convex_hull([(0, F(3, 2), F(1, 2)), (1, 2, 0), (F(3, 2), F(5, 2), -1), (3, 0, F(-3, 2))])
N3 = convex_hull([(F(-1, 2), F(-3, 2), 2), (4, 0, 3), (4, F(5, 2), F(1, 2)), (4, 3, -1)])


def partition_oracle(points, bound=3):
    """Exhaustive witness search over splits with max-norm <= bound."""
    pts = [tuple(int(c) for c in p) for p in points]
    if len(pts) <= 1:
        return True
    m = len(pts[0])
    for pi in product(range(-bound, bound + 1), repeat=m):
        if not any(pi):
            continue
        vals = {dot(pi, p) for p in pts}
        if len(vals) == 2 and max(vals) - min(vals) == 1:
            return True
    return False


def _scan_reference(points):
    """The 2^n bipartition scan of the set of points: by size of the first
    class, then lexicographic."""
    pts = sorted({as_point(q) for q in points})
    if len(pts) <= 1:
        return PartitionCertificate("trivially_partitionable", None, tuple(pts), ())
    n, m = len(pts), len(pts[0])
    ints = [tuple(int(c) for c in q) for q in pts]
    for size in range(1, n):
        for combo in combinations(range(n), size):
            rows = [(q + (-1,), 0 if i in combo else 1) for i, q in enumerate(ints)]
            sol = integer_solve_rows(rows)
            if sol is not None:
                s1 = tuple(pts[i] for i in combo)
                s2 = tuple(pts[i] for i in range(n) if i not in combo)
                return PartitionCertificate("partitionable", Split.make(sol[:m], sol[m]), s1, s2)
    return PartitionCertificate("not_partitionable", None, (), ())


def _unimodular(rng, m):
    """A random unimodular integer matrix: shears, swaps and sign flips of I."""
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    for _ in range(rng.randint(0, 3 * m)):
        i, j = rng.randrange(m), rng.randrange(m)
        op = rng.random()
        if i != j and op < 0.6:
            k = rng.choice((-2, -1, 1, 2))
            u[i] = [a + k * b for a, b in zip(u[i], u[j])]
        elif op < 0.8:
            u[i], u[j] = u[j], u[i]
        else:
            u[i] = [-a for a in u[i]]
    return u


def _partition_case(rng):
    """A small integer point set; planted, lower-dimensional or with repeats."""
    m = rng.randint(1, 4)
    n = rng.randint(2, 10)
    kind = rng.choice(("random", "planted", "width2", "lowdim", "repeats"))
    if kind == "lowdim" and m > 1:
        gens = [tuple(rng.randint(-2, 2) for _ in range(m)) for _ in range(rng.randint(1, m - 1))]
        pts = [
            tuple(sum(rng.randint(-1, 1) * g[k] for g in gens) for k in range(m))
            for _ in range(n)
        ]
    else:
        top = {"planted": 1, "width2": 2}.get(kind, 2)
        pts = [
            (rng.randint(0, top),) + tuple(rng.randint(-2, 2) for _ in range(m - 1))
            for _ in range(n)
        ]
    if kind == "repeats":
        pts = [rng.choice(pts) for _ in range(n)]
    u = _unimodular(rng, m)
    shift = [rng.randint(-3, 3) for _ in range(m)]
    return [tuple(dot(r, q) + t for r, t in zip(u, shift)) for q in pts], kind


def test_labeling_matches_scan_reference(rng):
    kinds = {}
    for _ in range(520):
        pts, kind = _partition_case(rng)
        got = is_2partitionable(pts)
        assert got == _scan_reference(pts), (kind, pts)
        kinds.setdefault(kind, set()).add(got.outcome)
    # every family shows up, and both verdicts occur
    assert len(kinds) == 5
    assert {"partitionable", "not_partitionable"} <= set().union(*kinds.values())


def _full_labeling_reference(points):
    """The labeling search over all 2^(r+1) {0,1} labelings of the affine
    basis q0 and the pivot points, q0's label included, with every
    coordinate read through a Fraction."""
    if any(F(c).denominator != 1 for q in points for c in q):
        raise GeometryError("2-partitionability is defined for integer points")
    ints = sorted({tuple(int(c) for c in q) for q in points})
    if len({len(q) for q in ints}) > 1:
        raise GeometryError("points have mismatched dimensions")
    pts = [as_point(q) for q in ints]
    if len(pts) <= 1:
        return PartitionCertificate("trivially_partitionable", None, tuple(pts), ())
    n, m = len(ints), len(ints[0])
    ech, pivots, D, _ = _echelon([[q[k] - ints[0][k] for q in ints] for k in range(m)], n)
    candidates = []
    for l0, *labels in product((0, 1), repeat=len(pivots) + 1):
        vals = [l0 * D + sum(row[i] * (l - l0) for row, l in zip(ech, labels)) for i in range(n)]
        if set(vals) == {0, D}:
            candidates.append(tuple(i for i, v in enumerate(vals) if v == 0))
    for combo in sorted(candidates, key=lambda c: (len(c), c)):
        rows = [(q + (-1,), 0 if i in combo else 1) for i, q in enumerate(ints)]
        sol = integer_solve_rows(rows)
        if sol is not None:
            s1 = tuple(pts[i] for i in combo)
            s2 = tuple(pts[i] for i in range(n) if i not in combo)
            return PartitionCertificate("partitionable", Split.make(sol[:m], sol[m]), s1, s2)
    return PartitionCertificate("not_partitionable", None, (), ())


def test_half_the_labelings_match_the_full_labeling_reference(rng):
    """Fixing q0's label and taking each labeling's complement finds the
    candidates, and so the certificate, of the full scan: seeded sets in
    dimensions 1-4 as ints and as integral Fractions, with repeats, one or
    two points, two planes and lattice width 2; refusals keep their text."""
    seen = {}
    for case in range(600):
        kind = ("planted", "width2", "random", "tiny", "repeats", "lowdim")[case % 6]
        if kind == "tiny":
            m = rng.randint(1, 4)
            pts = [tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(rng.randint(1, 2))]
        else:
            pts, _ = _partition_case(rng)
            if kind == "planted":
                pts = [(rng.randint(0, 1),) + q[1:] for q in pts]
            elif kind == "width2":
                pts = [q[:-1] + (rng.randint(0, 2),) for q in pts]
            elif kind == "repeats":
                pts = pts + pts[: rng.randint(1, len(pts))]
        if case % 2:
            pts = [tuple(F(c) for c in q) for q in pts]
        want = _full_labeling_reference(pts)
        assert repr(is_2partitionable(pts)) == repr(want), (kind, pts)
        seen.setdefault(want.outcome, set()).add(kind)
    # both verdicts on the multi-point families, and the trivial one on tiny sets
    assert seen["partitionable"] >= {"planted", "width2", "random", "repeats", "lowdim"}
    assert "not_partitionable" in seen and "tiny" in seen["trivially_partitionable"]
    for bad, message in (
        ([(F(1, 2), 0), (1, 1)], "^2-partitionability is defined for integer points$"),
        ([(0, 0), (True, F(5, 3))], "^2-partitionability is defined for integer points$"),
        ([(0, 0), (1,)], "^points have mismatched dimensions$"),
    ):
        for search in (is_2partitionable, _full_labeling_reference):
            with pytest.raises(GeometryError, match=message):
                search(bad)


def test_integer_reads_ints_as_they_are():
    assert _integer(7) == 7 and type(_integer(7)) is int
    assert _integer(F(3)) == 3 and type(_integer(F(3))) is int
    for bad in (F(1, 2), True, False):
        with pytest.raises(GeometryError, match="not an integer"):
            _integer(bad)


def _check_certificate(cert, points):
    s = cert.split
    assert all(dot(s.pi, p) == s.pi0 for p in cert.s1)
    assert all(dot(s.pi, p) == s.pi0 + 1 for p in cert.s2)
    assert sorted(cert.s1 + cert.s2) == sorted(as_point(p) for p in points)


def test_solve_budget_per_search(monkeypatch, rng):
    calls = []

    def counting(rows):
        calls.append(rows)
        return integer_solve_rows(rows)

    monkeypatch.setattr(splitlab.certify, "integer_solve_rows", counting)
    # the corners of [0,2]^3 force lattice width 2; 16 points in all
    cube = sorted(product((0, 2), repeat=3)) + [
        (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1), (1, 1, 1), (1, 0, 0)
    ]
    assert len(set(cube)) == 16
    assert is_2partitionable(cube).outcome == "not_partitionable"
    assert len(calls) <= 2 ** 4 - 2
    # 54 points on two planes x1 = 0, 1, moved by a unimodular map
    calls.clear()
    u = _unimodular(rng, 4)
    slab = [
        tuple(dot(r, q) for r in u)
        for q in product((0, 1), (-1, 0, 1), (0, 1, 2), (0, 1, 2))
    ]
    cert = is_2partitionable(slab)
    assert cert.outcome == "partitionable"
    assert len(calls) <= 2 ** 5 - 2
    _check_certificate(cert, slab)


def test_strip_beyond_twenty_points():
    report = has_2hyperplane_property(STRIP)
    assert report.overall
    assert any(e.certificate is not None for e in report.entries)
    assert max(len(e.face.points) for e in report.entries) > 20
    for e in report.entries:
        if e.certificate is not None and e.certificate.outcome == "partitionable":
            _check_certificate(e.certificate, e.face.points)


def test_2hp_check_converts_only_the_hull(monkeypatch):
    """Faces are read off the incidence: the check's one V->H pass is
    the integer hull's."""
    calls = []

    def counting(dim, gens):
        calls.append(gens)
        return _from_homogeneous(dim, gens)

    monkeypatch.setattr(splitlab.certify, "_from_homogeneous", counting)
    monkeypatch.setattr(splitlab.geometry, "_from_homogeneous", counting)
    for l in (L_P, L_PRIME, T3, N3, STRIP):
        calls.clear()
        report = has_2hyperplane_property(l)
        assert len(calls) == 1 and report.entries, l


def _fresh(l):
    """The same polyhedron as a new object, without l's cached views."""
    return Polyhedron(l.dim, l.gens, l.rows, l.masks)


def _integral_body(rng, d):
    """A lattice-free polytope with integer vertices: the hull of two or
    more vertices of the unit cube (each a vertex of the hull, so in no
    relative interior), lower-dimensional when they are, moved by a
    unimodular map and an integer shift."""
    corners = list(product((0, 1), repeat=d))
    pts = rng.sample(corners, rng.randint(2, len(corners)))
    u = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(3 * d):
        i, j = rng.sample(range(d), 2) if d > 1 else (0, 0)
        c = rng.randint(-2, 2) if i != j else 0
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    shift = [rng.randint(-3, 3) for _ in range(d)]
    return apply_unimodular(convex_hull(pts), u, shift)


def test_integral_body_is_its_own_integer_hull(monkeypatch):
    """An integral l is its own integer hull: the check runs no V->H pass,
    the hull rebuilt from l's integer points equals l (masks included),
    and the report equals the one built on that rebuilt hull, on seeded
    integral bodies in dimensions 1-4, lower-dimensional ones included."""
    calls = []
    monkeypatch.setattr(
        splitlab.certify, "_from_homogeneous", lambda *args: calls.append(args) or _from_homogeneous(*args)
    )
    rng = make_rng()
    lower = 0
    for case in range(200):
        l = _integral_body(rng, 1 + case % 4)
        calls.clear()
        report = has_2hyperplane_property(l)
        assert calls == [] and report.entries, l
        homog = [q + (1,) for q in l._lattice_points]
        hull = _from_homogeneous(l.dim, homog)
        assert (hull.gens, hull.rows, hull.masks) == (l.gens, l.rows, l.masks), l
        with monkeypatch.context() as m:
            m.setattr(splitlab.certify, "_faces", lambda p, pts: _faces(_from_homogeneous(p.dim, pts), pts))
            assert has_2hyperplane_property(_fresh(l)) == report, l
        lower += l.affine_dim() < l.dim
    assert lower >= 20, lower


def test_2hp_check_scans_once(lattice_scans):
    """The lattice-free test's finished scan is the one the faces read."""
    for l in (L_P, L_PRIME, T3, N3, STRIP, TYPE1_T):
        lattice_scans.clear()
        report = has_2hyperplane_property(_fresh(l))
        assert len(lattice_scans) == 1 and report.entries, l


def test_classification_and_predicate_scan_once(lattice_scans):
    """l is its own boundary hull when the rays hit its corners, so the
    classification, the predicate and its cross-check read one scan."""
    l = _fresh(TYPE1_T)
    assert classify_2d(l).kind == "triangle_type1"
    assert infinite_rank_2d(TYPE1_MODEL, l)
    assert lattice_scans == [6]


def _rank_dimension(vertices):
    """The affine dimension of a point set by rank elimination: the rank
    of the homogeneous points, less one."""
    return rank([v + (1,) for v in vertices]) - 1


def test_face_dimensions_match_rank_reference():
    """The dimensions ``_faces`` reads off the face lattice against rank
    elimination on each face's vertices, on seeded polytopes in dimensions
    1-4: lower-dimensional ones, and point lists that hold integer points
    which are no vertices besides the generators.  Every third polytope
    is the hull of at most d points, so lower-dimensional by construction."""
    rng = make_rng()
    lower = extra = 0
    for case in range(160):
        d = case % 4 + 1
        den = rng.choice((1, 2, 3))
        k = rng.randint(1, d) if case % 3 == 0 else rng.randint(d + 1, d + 4)
        base = [
            tuple(F(rng.randint(-3 * den, 3 * den), den) for _ in range(d)) for _ in range(k)
        ]
        p = convex_hull(base)
        homog = [q + (1,) for q in lattice_points(p)]
        pts = [tuple(map(int, h)) for h in homog]
        pts += [g for g in p.gens if g not in pts]
        faces = [f for f, _ in _faces(p, pts)]
        assert faces[-1].vertices == p.vertices
        assert faces[-1].dimension == p.affine_dim()
        for f in faces:
            assert f.dimension == _rank_dimension(f.vertices), (base, f)
        lower += p.affine_dim() < d
        extra += len(pts) > len(p.gens)
    assert lower >= 30 and extra >= 30, (lower, extra)


def test_integer_hull():
    assert convex_hull(lattice_points(TYPE1_T)) == TYPE1_T
    thin = convex_hull([(F(1, 4), F(1, 4)), (F(3, 4), F(1, 4)), (F(1, 4), F(3, 4))])
    assert lattice_points(thin) == []
    hull = convex_hull(lattice_points(L_P))
    assert len(lattice_points(hull)) == 9
    assert convex_hull(T1_POINTS).vertices in [f.vertices for f in all_faces(hull)]
    assert convex_hull(T0_POINTS).vertices in [f.vertices for f in all_faces(hull)]


def test_faces_counts():
    assert len(all_faces(TYPE1_T)) == 7  # 3 vertices + 3 edges + itself
    seg = convex_hull([(0, 0), (1, 0)])
    assert len(all_faces(seg)) == 3


def _entry(l, points):
    vertices = convex_hull(points).vertices
    return next(e for e in has_2hyperplane_property(l).entries if e.face.vertices == vertices)


def test_face_contained_in_facet():
    assert not _entry(L_P, T1_POINTS).contained_in_facet  # z = 1 is not a facet plane of L_P
    assert _entry(L_P, T0_POINTS).contained_in_facet  # the base z = 0 facet carries T0
    assert not _entry(L_PRIME, T0_POINTS).contained_in_facet


def test_t1_partitionable():
    cert = is_2partitionable(T1_POINTS)
    assert cert.outcome == "partitionable"
    s = cert.split
    assert all(dot(s.pi, p) == s.pi0 for p in cert.s1)
    assert all(dot(s.pi, p) == s.pi0 + 1 for p in cert.s2)
    assert set(cert.s1) | set(cert.s2) == {tuple(map(F, p)) for p in T1_POINTS}
    # the coordinate planes x1 = 0 and x1 = 1 are also a valid witness
    vals = {int(p[0]) for p in T1_POINTS}
    assert vals == {0, 1}


def test_t0_not_partitionable():
    cert = is_2partitionable(T0_POINTS)
    assert cert.outcome == "not_partitionable"
    assert not partition_oracle(T0_POINTS)


def test_partitionable_trivia():
    assert is_2partitionable([(3, 4)]).outcome == "trivially_partitionable"
    assert is_2partitionable([]).outcome == "trivially_partitionable"
    with pytest.raises(GeometryError):
        is_2partitionable([(F(1, 2), 0)])
    with pytest.raises(GeometryError):
        is_2partitionable([(0, 0), (1,)])
    # S is a set: a repeated point is one point
    cert = is_2partitionable([(0, 0), (0, 0)])
    assert cert.outcome == "trivially_partitionable" and cert.s1 == ((0, 0),)
    assert is_2partitionable([(0, 0), (1, 0), (0, 0)]) == is_2partitionable([(0, 0), (1, 0)])


def test_partitionability_vs_oracle_randomized():
    rng = make_rng()
    for _ in range(120):
        m = rng.choice((2, 3))
        n = rng.randint(2, 6)
        pts = {tuple(rng.randint(-2, 2) for _ in range(m)) for _ in range(n)}
        got = is_2partitionable(sorted(pts)).outcome == "partitionable"
        want = partition_oracle(sorted(pts)) if len(pts) > 1 else None
        if want is not None and want:
            # the oracle only scans small norms, so a positive is binding
            assert got
        if not got and len(pts) > 1:
            assert not want


def test_2hp_tetrahedron_instances():
    assert has_2hyperplane_property(L_P).overall
    report = has_2hyperplane_property(L_PRIME)
    assert not report.overall
    bad = [
        e for e in report.entries
        if e.certificate is not None and e.certificate.outcome == "not_partitionable"
    ]
    assert len(bad) == 1
    assert set(bad[0].face.points) == {
        tuple(map(F, p)) for p in T0_POINTS
    }
    assert not has_2hyperplane_property(TYPE1_T).overall


def test_classify_2d():
    assert classify_2d(TYPE1_T).kind == "triangle_type1"
    slab = convex_hull([(0, -1), (1, -1), (0, 2), (1, 2)])
    assert classify_2d(slab).kind == "split"
    quad = convex_hull(
        [(F(1, 2), -F(1, 2)), (F(3, 2), F(1, 2)), (F(1, 2), F(3, 2)), (-F(1, 2), F(1, 2))]
    )
    assert classify_2d(quad).kind == "quadrilateral"
    t2 = convex_hull([(0, -F(1, 2)), (0, F(3, 2)), (2, F(1, 2))])
    assert classify_2d(t2).kind == "triangle_type2"
    small = convex_hull([(0, 0), (1, 0), (0, 1)])
    assert classify_2d(small).kind == "non_maximal"


def test_infinite_rank_2d():
    assert infinite_rank_2d(TYPE1_MODEL, TYPE1_T)
    # dropping the corner ray: boundary hull is no longer a type-1 triangle
    partial = CornerModel.make(
        (F(1, 2), F(1, 2)),
        [(F(3, 2), F(-1, 2)), (F(-1, 2), F(3, 2)), (F(-1, 2), F(-1, 4)), (F(-1, 4), F(-1, 2))],
    )
    assert not infinite_rank_2d(partial, TYPE1_T)
    quad_model = CornerModel.make(
        (F(1, 2), F(1, 2)),
        [(0, -1), (1, 0), (0, 1), (-1, 0)],
    )
    quad = convex_hull(
        [(F(1, 2), -F(1, 2)), (F(3, 2), F(1, 2)), (F(1, 2), F(3, 2)), (-F(1, 2), F(1, 2))]
    )
    assert not infinite_rank_2d(quad_model, quad)
    # rays must positively span the plane
    with pytest.raises(GeometryError):
        infinite_rank_2d(
            CornerModel.make((F(1, 2), F(1, 2)), [(1, 0), (0, 1)]), TYPE1_T
        )
