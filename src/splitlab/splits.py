"""Split disjunctions and their action on rational polyhedra.

A split (pi, pi0) is the disjunction pi.x <= pi0 or pi.x >= pi0 + 1 with
integer data and coprime pi.  A round of splits cuts a polyhedron by the
convex hulls of each split's two clipped pieces, in integers: each piece
is one double-description (DD) step from the polyhedron's stored state, and
a hull's facet rows come from a seeded DD step in the polar, since the
polar of a hull is the intersection of the polars.  It starts from a
full-dimensional piece, whose facet rows are the rays, and adds the other
piece's generators as rows; only two lower-dimensional pieces take a
fresh conversion.  The round's distinct hull rows, in lexmin order, then
cut the polyhedron in one more DD step; one split is a round of one."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import product
from math import ceil, floor
from operator import and_, or_
from typing import Optional, Sequence

from .geometry import (
    GeometryError,
    IntVec,
    Point,
    Polyhedron,
    as_point,
    _from_homogeneous,
    _integer,
    _join_rows,
    _pointed_cone_rays,
)
from .linalg import dot, integer_solve_rows, scale_primitive, vec_gcd


@dataclass(frozen=True)
class Split:
    """The disjunction pi.x <= pi0 or pi.x >= pi0 + 1."""

    pi: IntVec
    pi0: int

    def __post_init__(self):
        if not any(self.pi):
            raise GeometryError("split direction must be nonzero")
        if vec_gcd(self.pi) != 1:
            raise GeometryError("split direction must be a coprime integer vector")

    @staticmethod
    def make(pi: Sequence[int], pi0: int) -> "Split":
        return Split(tuple(_integer(x) for x in pi), _integer(pi0))

    def partner(self) -> "Split":
        """The same disjunction written from the other side."""
        return Split(tuple(-x for x in self.pi), -self.pi0 - 1)

    def canonical(self) -> "Split":
        lead = next(x for x in self.pi if x != 0)
        return self if lead > 0 else self.partner()


@dataclass(frozen=True)
class SplitSequence:
    """An ordered list of splits with a provenance tag per entry."""

    splits: tuple[Split, ...]
    provenance: tuple[str, ...]

    def __post_init__(self):
        if len(self.splits) != len(self.provenance):
            raise GeometryError("one provenance tag per split required")

    @staticmethod
    def make(splits: Sequence[Split], provenance: Optional[Sequence[str]] = None) -> "SplitSequence":
        tags = tuple(provenance) if provenance is not None else ("user",) * len(splits)
        return SplitSequence(tuple(splits), tags)


@dataclass(frozen=True)
class SplitClass:
    """Classification flags of a split relative to a polyhedron."""

    intersecting: bool
    englobing: bool
    chvatal: bool


def embed_normal(pi: IntVec, dim: int, split_coords: Optional[Sequence[int]]) -> IntVec:
    coords = tuple(split_coords) if split_coords is not None else tuple(range(len(pi)))
    if len(coords) != len(pi) or any(c < 0 or c >= dim for c in coords):
        raise GeometryError("split coordinates do not fit the ambient dimension")
    full = [0] * dim
    for c, v in zip(coords, pi):
        full[c] = v
    return tuple(full)


def _halfspace_generators(
    q: Polyhedron, a: IntVec, b: int
) -> tuple[Sequence[IntVec], Sequence[IntVec], Sequence[int]]:
    """The double description (generators, rows, masks) of q intersected
    with {x : a.x <= b}, in the form of q's fields.

    One double-description step from q's state: it keeps the generators
    that satisfy the row and creates the ones on the plane a.x = b.  A row
    that q already has is not appended again, so the rows stay distinct.
    """
    row = a + (-b,)
    if row in q.rows:
        return q.gens, q.rows, q.masks
    rows = [*q.rows, row]
    _, out, out_masks = _pointed_cone_rays(rows, q.dim + 1, (len(q.rows), q.gens, q.masks))
    return out, rows, out_masks


def _split_rows(
    q: Polyhedron, s: Split, split_coords: Optional[Sequence[int]]
) -> Optional[Sequence[IntVec]]:
    """The homogeneous rows of the convex hull of the two pieces of q cut
    out by the disjunction s: none when s leaves q unchanged, and None when
    both pieces are empty (no point, as in ``_homog_rows``).

    With one nonempty piece these are its slice rows.  Two pieces give the
    rays of one double-description step in the polar, seeded from a
    full-dimensional piece (``_join_rows``); two lower-dimensional pieces
    take a fresh V->H pass.
    """
    a = embed_normal(s.pi, q.dim, split_coords)
    lo, hi = s.pi0, s.pi0 + 1
    # a generator (n, t) is below the lo plane if a.n <= lo.t and above the
    # hi plane if a.n >= hi.t; for a ray (t = 0) that is a sign of a.n
    vals = [(dot(a, g[:-1]), g[-1]) for g in q.gens]
    below = [v <= lo * t for v, t in vals]
    above = [v >= hi * t for v, t in vals]
    if all(map(or_, below, above)) and (q.is_bounded or all(below) or all(above)):
        return []  # every generator already satisfies the disjunction
    neg_a = tuple(-x for x in a)
    pieces = [
        piece
        for piece in (_halfspace_generators(q, a, lo), _halfspace_generators(q, neg_a, -hi))
        if any(g[-1] for g in piece[0])
    ]
    if not pieces:
        return None
    if len(pieces) == 1:
        return pieces[0][1]  # the other piece is empty
    # seed from a full-dimensional piece (no row is tight on all of its
    # generators), the one with more generators when both are, so that the
    # fewest generators enter as new polar rows
    pieces.sort(key=lambda piece: -len(piece[0]))
    for k, seed in enumerate(pieces):
        if not reduce(and_, seed[2]):
            return _join_rows(q.dim, seed, pieces[1 - k][0])
    return _from_homogeneous(q.dim, list(dict.fromkeys((*pieces[0][0], *pieces[1][0])))).rows


def apply_split(
    q: Polyhedron, s: Split, split_coords: Optional[Sequence[int]] = None
) -> Polyhedron:
    """Convex hull of the two pieces of q cut out by the disjunction: the
    round of the one split s."""
    return apply_round(q, [s], split_coords)


def classify_split(
    q: Polyhedron, s: Split, split_coords: Optional[Sequence[int]] = None
) -> SplitClass:
    """Intersecting / englobing / Chvatal flags of s relative to q."""
    if q.is_empty:
        raise GeometryError("classification needs a nonempty polyhedron")
    a = embed_normal(s.pi, q.dim, split_coords)
    lo, hi = Fraction(s.pi0), Fraction(s.pi0 + 1)
    vals = [dot(a, v) for v in q.vertices]
    minv, maxv = min(vals), max(vals)
    unbounded_up = any(dot(a, r) > 0 for r in q.rays)
    unbounded_down = any(dot(a, r) < 0 for r in q.rays)

    def reaches(c: Fraction) -> bool:
        above = maxv >= c or unbounded_up
        below = minv <= c or unbounded_down
        return above and below

    intersecting = reaches(lo) and reaches(hi)
    upper_empty = maxv < hi and not unbounded_up
    lower_empty = minv > lo and not unbounded_down
    chvatal = upper_empty or lower_empty
    if q.is_bounded:
        englobing = all(v <= lo or v >= hi for v in vals)
    else:
        englobing = apply_split(q, s, split_coords) == q
    return SplitClass(intersecting, englobing, chvatal)


def split_confines(
    q: Polyhedron, s: Split, split_coords: Optional[Sequence[int]] = None
) -> bool:
    """True iff q lies between the two boundary planes of s.

    A confining split leaves q unchanged and certifies that its two
    planes carry all further progress; this is the admission test for
    the terminal split of a height-reduction program.
    """
    if q.is_empty:
        raise GeometryError("confinement needs a nonempty polyhedron")
    a = embed_normal(s.pi, q.dim, split_coords)
    lo, hi = Fraction(s.pi0), Fraction(s.pi0 + 1)
    if any(dot(a, r) != 0 for r in q.rays):
        return False
    return all(lo <= dot(a, v) <= hi for v in q.vertices)


def facet_splits(qx: Polyhedron) -> list[Split]:
    """One split per facet of qx, whose boundary planes sandwich the facet.

    The facet normal is already a coprime integer vector; the far plane
    sits at the next integer level inward, so when the facet plane holds
    integer points one boundary plane supports the facet itself.
    """
    if qx.is_empty or qx.affine_dim() != qx.dim:
        raise GeometryError("facet splits need a full-dimensional polyhedron")
    return [Split(a, ceil(b) - 1) for a, b in qx.facet_inequalities()]


def apply_round(
    q: Polyhedron, splits: Sequence[Split], split_coords: Optional[Sequence[int]] = None
) -> Polyhedron:
    """The intersection over the splits of the hulls of their pieces of q.

    The distinct hull rows of every split, in lexmin order (ascending
    tuples), cut q in one seeded double-description step, and the result
    is put in canonical form once; q itself comes back when no split
    changes it, and the empty polyhedron when some split leaves no point.
    """
    rows: set[IntVec] = set()
    for s in splits:
        hull = _split_rows(q, s, split_coords)
        if hull is None:
            return Polyhedron.empty(q.dim)
        rows.update(hull)
    return q._cut(sorted(rows))


def enumerate_splits(
    dim: int, bound: int, box: Sequence[tuple[Fraction, Fraction]]
) -> list[Split]:
    """All canonical splits with max-norm at most ``bound`` touching ``box``.

    The identification (pi, pi0) ~ (-pi, -pi0-1) is resolved by keeping
    the representative whose leading nonzero entry is positive.
    """
    if bound < 1:
        return []
    if len(box) != dim:
        raise GeometryError("box must give one interval per coordinate")
    out: list[Split] = []
    for pi in product(range(-bound, bound + 1), repeat=dim):
        if not any(pi) or vec_gcd(pi) != 1 or next(x for x in pi if x) < 0:
            continue
        minv = sum(
            min(pi[i] * Fraction(box[i][0]), pi[i] * Fraction(box[i][1]))
            for i in range(dim)
        )
        maxv = sum(
            max(pi[i] * Fraction(box[i][0]), pi[i] * Fraction(box[i][1]))
            for i in range(dim)
        )
        for pi0 in range(ceil(minv) - 1, floor(maxv) + 1):
            out.append(Split(pi, pi0))
    return out


# ---------------------------------------------------------------------------
# the 2D Chvatal sweep


def _line_meets_interior(p: Polyhedron, base: Point, direction: IntVec) -> bool:
    """Does the line base + t*direction meet the interior of full-dim p?"""
    tlo: Optional[Fraction] = None
    thi: Optional[Fraction] = None
    for a, b in p.inequalities:
        slope = dot(a, direction)
        offset = b - dot(a, base)
        if slope == 0:
            if offset <= 0:
                return False  # whole line on or outside this facet plane
        elif slope > 0:
            t = Fraction(offset, slope)
            thi = t if thi is None else min(thi, t)
        else:
            t = Fraction(offset, slope)
            tlo = t if tlo is None else max(tlo, t)
    if tlo is None or thi is None:
        return True
    return tlo < thi


def _point_in_closed_triangle(p: Point, a: Point, b: Point, c: Point) -> bool:
    def cross(o, u, v):
        return (u[0] - o[0]) * (v[1] - o[1]) - (u[1] - o[1]) * (v[0] - o[0])

    d1, d2, d3 = cross(a, b, p), cross(b, c, p), cross(c, a, p)
    has_neg = d1 < 0 or d2 < 0 or d3 < 0
    has_pos = d1 > 0 or d2 > 0 or d3 > 0
    return not (has_neg and has_pos)


def _point_on_segment(p: Point, a: Point, b: Point) -> bool:
    cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
    if cross != 0:
        return False
    t_num = [(p[i] - a[i]) for i in range(2)]
    seg = [(b[i] - a[i]) for i in range(2)]
    d = dot(seg, seg)
    t = dot(t_num, seg)
    return 0 <= t <= d


def _choose_translation(pi: IntVec, u: IntVec) -> IntVec:
    """Integer d with pi.d = 1, minimal in (max-norm, lex) over d + Z*u."""
    d0 = integer_solve_rows([(pi, 1)])
    assert d0 is not None
    # all solutions differ by integer multiples of u; the max-norm is
    # coercive in that multiplier, so a window around the least-squares
    # minimizer contains the optimum
    uu = dot(u, u)
    k0 = round(Fraction(-dot(d0, u), uu))
    anchor = tuple(d0[i] + k0 * u[i] for i in range(2))
    span = 2 * max(abs(x) for x in anchor) + 2
    best = None
    for k in range(k0 - span, k0 + span + 1):
        cand = tuple(d0[i] + k * u[i] for i in range(2))
        key = (max(abs(x) for x in cand), cand)
        if best is None or key < best:
            best = key
    assert best is not None
    return best[1]


def sweep_sequence_2d(q: Polyhedron, chv: Split, p: Sequence) -> SplitSequence:
    """Sequence of splits confining the upper slab part of q to a pyramid.

    ``chv`` must be a Chvatal split for q whose far plane misses q; the
    near plane cuts a segment L out of q.  The returned splits rotate
    lines through lattice points of the two boundary lines until the
    part of the swept polyhedron with pi.x >= pi0 lies inside
    conv(p, L).
    """
    if q.dim != 2:
        raise GeometryError("sweep is only implemented in dimension 2")
    if q.is_empty:
        raise GeometryError("sweep hypothesis failed: empty polyhedron")
    pp = as_point(p)
    pi, pi0 = chv.pi, chv.pi0
    a = embed_normal(pi, 2, None)
    vals = [dot(a, v) for v in q.vertices]
    if any(dot(a, r) > 0 for r in q.rays) or max(vals) >= pi0 + 1:
        raise GeometryError(
            "sweep hypothesis failed: split is not Chvatal for q (far plane meets q)"
        )
    if max(vals) <= pi0 and all(dot(a, r) <= 0 for r in q.rays):
        return SplitSequence.make([], [])  # nothing above the near plane
    seg = q.intersect_halfspace(a, Fraction(pi0)).intersect_halfspace(
        tuple(-x for x in a), Fraction(-pi0)
    )
    if seg.is_empty or seg.affine_dim() != 1:
        raise GeometryError(
            "sweep hypothesis failed: near plane section of q is not a segment"
        )
    if not seg.is_bounded:
        raise GeometryError("sweep hypothesis failed: near plane section unbounded")
    if not (Fraction(pi0) < dot(a, pp) < Fraction(pi0 + 1)):
        raise GeometryError(
            "sweep hypothesis failed: apex point not strictly between the planes"
        )
    end0, end1 = seg.vertices
    for e in (end0, end1):
        if any(c.denominator != 1 for c in e):
            raise GeometryError(
                "sweep hypothesis failed: segment endpoint is not an integer point"
            )
    qbar = q.intersect_halfspace(tuple(-x for x in a), Fraction(-pi0))

    splits: list[Split] = []
    current = q
    for a0, a1 in ((end0, end1), (end1, end0)):
        u = tuple(int(x) for x in scale_dir(a1, a0))
        if not seg.contains(tuple(a0[i] + u[i] for i in range(2))):
            raise GeometryError(
                "sweep hypothesis failed: endpoint facet split does not intersect the segment"
            )
        d = _choose_translation(pi, u)
        kmax = _sweep_scan_bound(qbar, pp, a0, u, d)
        ell = None
        for k in range(kmax, -kmax - 1, -1):
            direction = (d[0] + k * u[0], d[1] + k * u[1])
            if not _line_meets_interior(qbar, a0, direction):
                ell = k
                break
        if ell is None:
            raise GeometryError("sweep failed to find an empty starting line")
        t = None
        for k in range(-kmax, kmax + 1):
            b_k = tuple(a0[i] + d[i] + k * u[i] for i in range(2))
            b_k1 = tuple(a0[i] + d[i] + (k + 1) * u[i] for i in range(2))
            if _point_on_segment(pp, a0, b_k) or (
                _point_in_closed_triangle(pp, a0, b_k, b_k1)
                and not _point_on_segment(pp, a0, b_k1)
            ):
                t = k
                break
        if t is None:
            raise GeometryError("sweep failed to locate the apex sector")
        for k in range(ell, t + 1):
            direction = (d[0] + k * u[0], d[1] + k * u[1])
            n = (-direction[1], direction[0])
            if dot(n, u) < 0:
                n = (-n[0], -n[1])
            c0 = dot(n, a0)
            s = Split.make(n, int(c0)).canonical()
            splits.append(s)
            current = apply_split(current, s)

    pyramid = Polyhedron.from_generators([pp, end0, end1])
    upper = current.intersect_halfspace(tuple(-x for x in a), Fraction(-pi0))
    if not pyramid.contains_polyhedron(upper):
        raise GeometryError("sweep postcondition failed: result escapes the pyramid")
    return SplitSequence.make(splits, ["sweep"] * len(splits))


def scale_dir(to_point: Point, from_point: Point) -> IntVec:
    return scale_primitive(
        tuple(to_point[i] - from_point[i] for i in range(len(to_point)))
    )


def _sweep_scan_bound(qbar: Polyhedron, p: Point, a0: Point, u: IntVec, d: IntVec) -> int:
    coords = [abs(c) for v in list(qbar.vertices) + [p, a0] for c in v]
    extent = max(coords) if coords else Fraction(1)
    scale = max(max(abs(x) for x in u), max(abs(x) for x in d), 1)
    return 8 * (ceil(extent) + 2) * scale + 8
