"""Decision procedures around integer hulls and the two-hyperplane property.

A finite integer point set is 2-partitionable when it splits into two
nonempty classes lying on the two boundary planes of a single split
disjunction.  A lattice-free polytope has the 2-hyperplane property when
every face of its integer hull not contained in one of its facets is
2-partitionable; the laboratory uses this as the finite-split-rank
criterion and, in dimension 2, pairs it with the classification of
maximal lattice-free sets.  A face of the integer hull is a record read
off one integer incidence of the lattice points with the hull's rows, with
no conversion pass per face; a face's dimension is read off the face
lattice.  A body's lattice points are scanned once: the lattice-free test
keeps its finished scan on the body (``Polyhedron._lattice_points``), and
the faces, the 2D classification and the 2-hyperplane cross-check of the
infinite-rank predicate read that list.  Facet tests, labelings and the 2D
classification run on the integer rows and points; ``Fraction`` appears
only in the results.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd, lcm
from typing import Optional, Sequence

from .cuts import CornerModel, boundary_hull
from .geometry import (
    GeometryError,
    IntVec,
    Point,
    Polyhedron,
    _from_homogeneous,
    _integer,
    as_point,
    cone_rays,
    require_lattice_free,
)
from .linalg import _echelon, dot, integer_solve_rows, scale_primitive
from .splits import Split


@dataclass(frozen=True)
class PartitionCertificate:
    """Outcome of a 2-partitionability search with full evidence."""

    outcome: str  # partitionable | not_partitionable | trivially_partitionable
    split: Optional[Split]
    s1: tuple[Point, ...]
    s2: tuple[Point, ...]


@dataclass(frozen=True)
class Face:
    """A face's sorted vertices, affine dimension and sorted integer points."""

    vertices: tuple[Point, ...]
    dimension: int
    points: tuple[IntVec, ...]


@dataclass(frozen=True)
class FaceEntry:
    face: Face
    contained_in_facet: bool
    certificate: Optional[PartitionCertificate]


@dataclass(frozen=True)
class TwoHPReport:
    entries: tuple[FaceEntry, ...]
    overall: bool


@dataclass(frozen=True)
class Classification2D:
    kind: str
    integer_points_on_boundary: tuple[Point, ...]


def _faces(p: Polyhedron, points: Sequence[IntVec]) -> list[tuple[Face, int]]:
    """The faces of a bounded nonempty polytope p, sorted by affine dimension
    and then vertices, each with the bitmask of the homogeneous integer
    ``points`` (n, t) on it (bit i is points[i]).  The points must lie in
    p and include its generators, in primitive form.  The one caller passes
    l itself or the hull of l's lattice points, once l has a lattice point.

    A face's points are those tight on some of p's kept rows, so with one
    integer incidence of the points with the rows, the faces' point sets
    are the closure of the rows' tight sets under intersection, starting
    from all points.  A face is read off its set with no conversion pass:
    its generators (numbered by place in ``p.vertices``, so faces sort on
    integers) and its members with t = 1.  The face lattice is graded, so
    taking the sets by size, a face's dimension is one more than the
    largest of its proper subfaces' (each has fewer points), and 0 for a
    vertex, which has none.
    """
    # p.vertices: the generators over a common denominator, sorted
    t = lcm(*(g[-1] for g in p.gens))
    order = sorted(p.gens, key=lambda g: [c * (t // g[-1]) for c in g[:-1]])
    corners = sorted((order.index(h), 1 << i) for i, h in enumerate(points) if h in p.gens)
    sets = {(1 << len(points)) - 1}
    for r in p.rows:
        tight = sum(1 << i for i, h in enumerate(points) if dot(r, h) == 0)
        sets |= {s & tight for s in sets if s & tight}
    out, dims = [], {}
    for s in sorted(sets, key=int.bit_count):
        ks = [k for k, bit in corners if s & bit]
        d = dims[s] = max((e + 1 for t, e in dims.items() if t & s == t), default=0)
        pts = tuple(h[:-1] for i, h in enumerate(points) if s >> i & 1 and h[-1] == 1)
        out.append((d, ks, pts, s))
    return [(Face(tuple(p.vertices[k] for k in ks), d, pts), s) for d, ks, pts, s in sorted(out)]


def is_2partitionable(points: Sequence[Sequence]) -> PartitionCertificate:
    """Search for a split whose boundary planes carry a bipartition of S.

    A split's value pi·q - c is affine on S, so its {0,1} labels on an
    affine basis B of S fix its values on all of S.  One integer
    elimination of the differences q - q0 yields B (q0 and the pivot
    points) and every point's affine coordinates over it.  Flipping every
    label maps each value v to 1 - v, so only the at most 2^m labelings
    with q0 labelled 0 are evaluated, each giving its complement too;
    those that are {0,1}-valued and nonconstant on S are the candidate
    bipartitions.  They are tried by size of the first class, then
    lexicographically (the order of a scan over all subsets), and the
    first one an integer split realizes is returned.  The witness split
    is automatically coprime: its values on the two classes are
    consecutive integers.  S is a set, so a repeated point counts once;
    int coordinates are read as they are, and any other number must be
    integral.
    """
    try:
        ints = sorted({tuple(map(_integer, q)) for q in points})
    except GeometryError:
        raise GeometryError("2-partitionability is defined for integer points") from None
    if len({len(q) for q in ints}) > 1:
        raise GeometryError("points have mismatched dimensions")
    if len(ints) <= 1:
        return PartitionCertificate("trivially_partitionable", None, tuple(map(as_point, ints)), ())
    n = len(ints)
    m = len(ints[0])
    diffs = [[q[k] - ints[0][k] for q in ints] for k in range(m)]
    ech, pivots, D, _ = _echelon(diffs, n)
    # point i sits at cols[i][r] / D on pivot r
    cols = list(zip(*ech))
    candidates = []
    for labels in product((0, 1), repeat=len(pivots)):
        # D times each point's value with q0 labelled 0; the complement
        # labelling (q0 labelled 1) has the values D - v
        vals = [dot(c, labels) for c in cols]
        if set(vals) == {0, D}:
            candidates.append(tuple(i for i, v in enumerate(vals) if v == 0))
            candidates.append(tuple(i for i, v in enumerate(vals) if v == D))
    # unknowns (pi, c): pi.q - c = 0 on S1 and = 1 on S2
    lhs = [q + (-1,) for q in ints]
    for combo in sorted(candidates, key=lambda c: (len(c), c)):
        chosen = set(combo)
        sol = integer_solve_rows([(a, 0 if i in chosen else 1) for i, a in enumerate(lhs)])
        if sol is None:
            continue
        split = Split(sol[:m], sol[m])
        s1 = [ints[i] for i in combo]
        s2 = [ints[i] for i in range(n) if i not in chosen]
        assert all(dot(split.pi, q) == split.pi0 for q in s1)
        assert all(dot(split.pi, q) == split.pi0 + 1 for q in s2)
        return PartitionCertificate(
            "partitionable", split, tuple(map(as_point, s1)), tuple(map(as_point, s2))
        )
    return PartitionCertificate("not_partitionable", None, (), ())


def has_2hyperplane_property(l: Polyhedron) -> TwoHPReport:
    """Certify every face of the integer hull not lying in a facet of l.

    The faces and the integer points on each come from one incidence of
    l's integer points with the hull's rows; a face lies in a facet of l
    iff that facet is tight on all of its points.  The facets are l's
    facet rows (``Polyhedron._facet_rows``), without the equality rows: an
    equality row is tight on every point, so counting it would put every
    face of a lower-dimensional l in a facet.  An integral l, every vertex
    an integer point, is its own integer hull, so only a fractional vertex
    costs a V->H pass.
    """
    if not l.is_bounded:
        raise GeometryError("the 2-hyperplane check needs a bounded polyhedron")
    require_lattice_free(l)
    homog = [q + (1,) for q in l._lattice_points]
    if not homog:
        return TwoHPReport((), True)
    on_facet = [sum(1 << i for i, h in enumerate(homog) if dot(r, h) == 0) for r in l._facet_rows]
    hull = l if all(g[-1] == 1 for g in l.gens) else _from_homogeneous(l.dim, homog)
    entries, overall = [], True
    for face, s in _faces(hull, homog):
        contained = any(s & m == s for m in on_facet)
        cert = None if contained else is_2partitionable(face.points)
        overall &= cert is None or cert.outcome != "not_partitionable"
        entries.append(FaceEntry(face, contained, cert))
    return TwoHPReport(tuple(entries), overall)


def classify_2d(l: Polyhedron) -> Classification2D:
    """Classify a 2D lattice-free polytope with nonempty interior.

    Slab pattern first (two parallel facets on consecutive integer
    levels of a common normal), then the maximality criterion: every
    facet must carry an integer point in its relative interior.
    Maximal sets are a triangle of type 1, 2 or 3 or a quadrilateral: a
    bounded maximal lattice-free set in the plane has 3 or 4 facets
    (Lovász 1989; Basu, Conforti, Cornuéjols and Zambelli 2010).
    """
    if l.dim != 2:
        raise GeometryError("classification is only defined in dimension 2")
    if not l.is_bounded:
        raise GeometryError("classification needs a bounded polyhedron")
    if l.affine_dim() != 2:
        raise GeometryError("classification needs a full-dimensional polytope")
    require_lattice_free(l)
    homog = [q + (1,) for q in l._lattice_points]
    pts = tuple(as_point(h[:-1]) for h in homog)
    # a facet row a·x + c <= 0, a·x <= -c, has an integer right-hand side
    # iff a is coprime (the row is), and the facet at the next integer
    # level, -a·x <= c + 1, is the row (-a, -c - 1)
    facets = l._facet_rows
    for r in facets:
        partner = (*(-x for x in r[:-1]), -r[-1] - 1)
        if gcd(*r[:-1]) == 1 and partner in facets:
            return Classification2D("split", pts)
    # a point on a facet is in its relative interior iff it is no vertex,
    # and the integer vertices are the generators with t = 1
    corners = {g for g in l.gens if g[-1] == 1}
    relint_counts = [
        sum(1 for h in homog if dot(r, h) == 0 and h not in corners) for r in facets
    ]
    if any(c == 0 for c in relint_counts):
        return Classification2D("non_maximal", pts)
    if len(facets) == 3:
        if len(corners) == 3:
            return Classification2D("triangle_type1", pts)
        if any(c >= 2 for c in relint_counts):
            return Classification2D("triangle_type2", pts)
        return Classification2D("triangle_type3", pts)
    return Classification2D("quadrilateral", pts)


def infinite_rank_2d(model: CornerModel, l: Polyhedron) -> bool:
    """Infinite-rank predicate for the cut generated by a 2D model.

    True iff the hull of the ray boundary points is a type-1 triangle;
    cross-checked against the negation of the 2-hyperplane property of
    that hull.  Every corner of the hull is then hit by a ray: its
    vertices are boundary points, and each boundary point lies in the
    hull, which lies in l, so the ray's exit point from the hull is the
    same point.  The hull is l itself when the rays hit l's corners
    (``boundary_hull``), and both checks then read l's one lattice scan.
    """
    return _infinite_rank_2d(model, l, None)


def _infinite_rank_2d(model: CornerModel, l: Polyhedron, known: Optional[Classification2D]) -> bool:
    """``infinite_rank_2d``, reading ``known``, l's classification if not
    None, instead of classifying l again when the hull is l itself."""
    if model.dim != 2 or l.dim != 2:
        raise GeometryError("the predicate is only defined in dimension 2")
    # the rays positively span the plane iff their dual cone is {0}
    dual_lines, dual_rays = cone_rays(
        [scale_primitive(r) for r in model.rays], 2
    )
    if dual_lines or dual_rays:
        raise GeometryError("model rays must positively span the plane")
    hull = boundary_hull(model, l)
    cls = known if hull is l and known is not None else classify_2d(hull)
    verdict = cls.kind == "triangle_type1"
    report = has_2hyperplane_property(hull)
    if verdict != (not report.overall):
        raise GeometryError(
            "internal cross-check failed: classification and the "
            "2-hyperplane property disagree"
        )
    return verdict
