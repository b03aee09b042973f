"""Split disjunctions and their action on rational polyhedra.

A split (pi, pi0) is the disjunction pi.x <= pi0 or pi.x >= pi0 + 1 with
integer data and coprime pi.  A split acts on the leading coordinates of
the space it meets, so a split of x-space applies as it is to a cone
lifted into (x, z); where q lies along a split is read from q's
generators once (``_extent``).  A round of splits cuts a polyhedron by the
convex hulls of each split's two clipped pieces, in integers.  Each split
direction's values over the generators are computed once per round
(``_levels``); they tell which splits leave the polyhedron unchanged and
give both pieces' row values.  Each piece is a double-description (DD)
step read off the polyhedron's edge list, built once per round, and a
hull's facet rows come from a seeded DD step in the polar, since the
polar of a hull is the intersection of the polars.  It starts from a
full-dimensional piece, whose facet rows are the rays, and adds the other
piece's generators as rows; only two lower-dimensional pieces take a
fresh conversion.  The round's distinct hull rows, in lexmin order, then
cut the polyhedron in one more DD step; one split is a round of one.

The 2D sweep finds its start line and apex sector in closed form, in
integers (``_sweep_sector``), so its cost does not depend on where the
body sits; its length has a budget measured from the segment's endpoints."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import product
from math import ceil
from operator import and_
from typing import Optional, Sequence

from .geometry import (
    GeometryError,
    IntVec,
    Point,
    Polyhedron,
    as_point,
    _from_homogeneous,
    _dd_step,
    _integer,
    _over_denominator,
    _join_rows,
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


def embed_normal(pi: IntVec, dim: int) -> IntVec:
    """pi on the leading coordinates of a dim-space, padded with zeros: a
    split of x-space acts on a cone lifted into (x, z) this way."""
    if len(pi) > dim:
        raise GeometryError("split coordinates do not fit the ambient dimension")
    return (*pi, *(0,) * (dim - len(pi)))


def _extent(q: Polyhedron, a: IntVec) -> tuple[Optional[Fraction], Optional[Fraction]]:
    """The least and the greatest value of a·x over a nonempty q, None on a
    side where q is unbounded: a vertex (n, t) gives a·n/t, and a ray
    (r, 0) only the sign of a·r."""
    vals = [Fraction(dot(a, g[:-1]), g[-1]) for g in q.gens if g[-1]]
    slopes = {dot(a, g[:-1]) for g in q.gens if not g[-1]}
    least = None if any(r < 0 for r in slopes) else min(vals)
    greatest = None if any(r > 0 for r in slopes) else max(vals)
    return least, greatest


def _levels(q: Polyhedron, a: IntVec) -> tuple[list[int], set[int]]:
    """a·n for each generator (n, t) of q, and the levels k with a vertex of q
    strictly between a·x = k and k + 1.  A split off these levels leaves q
    unchanged, as every generator lies in one of its pieces."""
    vals = [dot(a, g[:-1]) for g in q.gens]
    return vals, {v // g[-1] for v, g in zip(vals, q.gens) if g[-1] and v % g[-1]}


def _piece(q: Polyhedron, w: Sequence[int]) -> tuple[list[IntVec], list[int]]:
    """The generators and masks of q cut by one more row, whose value on
    each generator is w and whose bit follows q's rows: one ``_dd_step``
    over q's edge list."""
    return _dd_step(q.gens, q.masks, w, 1 << len(q.rows), q._edges)


def _split_rows(
    q: Polyhedron, a: IntVec, vals: Sequence[int], lo: int
) -> Optional[Sequence[IntVec]]:
    """The homogeneous rows of the convex hull of the two pieces of q cut
    out by the split a·x <= lo or a·x >= lo + 1, with vals = a·n over q's
    generators (n, t) and a vertex of q strictly between the planes; None
    when both pieces are empty (no point, as in ``_homog_rows``).

    With one nonempty piece these are its slice rows.  Two pieces give the
    rays of one double-description step in the polar, seeded from a
    full-dimensional piece (``_join_rows``); two lower-dimensional pieces
    take a fresh V->H pass.
    """
    pieces = []
    for row, w in (
        ((*a, -lo), [v - lo * g[-1] for v, g in zip(vals, q.gens)]),
        ((*(-x for x in a), lo + 1), [(lo + 1) * g[-1] - v for v, g in zip(vals, q.gens)]),
    ):
        gens, masks = _piece(q, w)
        if any(g[-1] for g in gens):
            pieces.append((gens, (*q.rows, row), masks))
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


def apply_split(q: Polyhedron, s: Split) -> Polyhedron:
    """Convex hull of the two pieces of q cut out by the disjunction: the
    round of the one split s."""
    return apply_round(q, [s])


def classify_split(q: Polyhedron, s: Split) -> SplitClass:
    """Intersecting / englobing / Chvatal flags of s relative to q.

    s is Chvatal when q misses one of its sides (all of q lies below the
    far plane or above the near one) and intersecting otherwise; it is
    englobing when it leaves q unchanged, that is when no vertex of q lies
    strictly between its planes."""
    if q.is_empty:
        raise GeometryError("classification needs a nonempty polyhedron")
    a = embed_normal(s.pi, q.dim)
    least, greatest = _extent(q, a)
    chvatal = (greatest is not None and greatest < s.pi0 + 1) or (
        least is not None and least > s.pi0
    )
    return SplitClass(not chvatal, s.pi0 not in _levels(q, a)[1], chvatal)


def split_confines(q: Polyhedron, s: Split) -> bool:
    """True iff q lies between the two boundary planes of s.

    A confining split leaves q unchanged and certifies that its two
    planes carry all further progress; this is the admission test for
    the terminal split of a height-reduction program.
    """
    if q.is_empty:
        raise GeometryError("confinement needs a nonempty polyhedron")
    least, greatest = _extent(q, embed_normal(s.pi, q.dim))
    return None not in (least, greatest) and s.pi0 <= least and greatest <= s.pi0 + 1


def facet_splits(qx: Polyhedron) -> list[Split]:
    """One split per facet of qx, whose boundary planes sandwich the facet.

    The facet normal is already a coprime integer vector; the far plane
    sits at the next integer level inward, so when the facet plane holds
    integer points one boundary plane supports the facet itself.
    """
    if qx.is_empty or qx.affine_dim() != qx.dim:
        raise GeometryError("facet splits need a full-dimensional polyhedron")
    return [Split(a, ceil(b) - 1) for a, b in qx.facet_inequalities()]


def apply_round(q: Polyhedron, splits: Sequence[Split]) -> Polyhedron:
    """The intersection over the splits of the hulls of their pieces of q.

    Each split acts on q's leading coordinates (``embed_normal``), so a
    round of x-space splits applies to a cone lifted into (x, z) as it is.
    The distinct hull rows of every split with a vertex of q strictly
    between its planes (``_levels``), in lexmin order (ascending tuples),
    cut q in one seeded double-description step, and the result is put
    in canonical form once; q itself comes back when no split changes it,
    and the empty polyhedron when some split leaves no point.
    """
    rows: set[IntVec] = set()
    by_dir: dict[IntVec, tuple[list[int], set[int]]] = {}
    for s in splits:
        a = embed_normal(s.pi, q.dim)
        vals, levels = by_dir[a] if a in by_dir else by_dir.setdefault(a, _levels(q, a))
        if s.pi0 not in levels:
            continue
        hull = _split_rows(q, a, vals, s.pi0)
        if hull is None:
            return Polyhedron.empty(q.dim)
        rows.update(hull)
    return q._cut(sorted(rows))


def enumerate_splits(bound: int, box: Sequence[tuple[Fraction, Fraction]]) -> list[Split]:
    """All canonical splits of len(box)-space with max-norm at most
    ``bound`` touching ``box``.

    The identification (pi, pi0) ~ (-pi, -pi0-1) is resolved by keeping
    the representative whose leading nonzero entry is positive.  Each
    direction's range of pi0 is read in integers, over the box's common
    denominator.
    """
    if bound < 1:
        return []
    dim = len(box)
    # the box over a common denominator d: pi·x ranges over [lo/d, hi/d]
    ends, d = _over_denominator([c for lo, hi in box for c in (lo, hi)])
    lows, highs = ends[0::2], ends[1::2]
    out: list[Split] = []
    for pi in product(range(-bound, bound + 1), repeat=dim):
        if not any(pi) or vec_gcd(pi) != 1 or next(x for x in pi if x) < 0:
            continue
        terms = [(p * a, p * b) for p, a, b in zip(pi, lows, highs)]
        lo = sum(map(min, terms))
        hi = sum(map(max, terms))
        for pi0 in range(-(-lo // d) - 1, hi // d + 1):
            out.append(Split(pi, pi0))
    return out


# ---------------------------------------------------------------------------
# the 2D Chvatal sweep


def _sweep_sector(
    rows: Sequence[IntVec], a0: IntVec, u: IntVec, d: IntVec, apex: IntVec
) -> range:
    """The indices k of the sweep's lines through a0 along w_k = d + k·u,
    from the start line ℓ to the apex sector t.

    ``rows`` are the upper part q̄'s rows, a0 an integer endpoint of its
    bottom edge, u the edge's primitive direction from a0, D = det(d, u)
    = ±1 and ``apex`` = (n, s), s > 0.  For q̄'s other row e tight at a0,
    e·u < 0, the line along w_k meets q̄ only at a0 iff e·w_k > 0 (at
    equality it runs along that facet), so the last such line is
    ℓ = ⌈e·d / −e·u⌉ − 1.  The apex n/s = a0 + α·d + β·u is on w_t or
    between w_t and w_{t+1} for t = ⌊β/α⌋; v = n − s·a0 gives
    s·α = D·det(v, u) > 0 and s·β = D·det(d, v).
    """
    e = next(r[:2] for r in rows if dot(r, (*a0, 1)) == 0 and dot(r[:2], u) < 0)
    v = (apex[0] - apex[2] * a0[0], apex[1] - apex[2] * a0[1])
    D = d[0] * u[1] - d[1] * u[0]
    alpha = D * (v[0] * u[1] - v[1] * u[0])
    beta = D * (d[0] * v[1] - d[1] * v[0])
    return range(-(dot(e, d) // dot(e, u)) - 1, beta // alpha + 1)


def sweep_sequence_2d(q: Polyhedron, chv: Split, p: Sequence) -> SplitSequence:
    """Sequence of splits confining the upper slab part of q to a pyramid.

    ``chv`` must be a Chvatal split for q whose far plane misses q; the
    near plane cuts a segment L with integer endpoints out of q, and the
    apex p lies strictly between the planes.  From each endpoint a0 the
    returned splits rotate the lines through a0 along d + k·u (u the
    primitive direction of L away from a0, d an integer vector with
    pi·d = 1), from the last line that meets q̄ = q ∩ {pi.x >= pi0} only
    at a0 to the sector of p, both in closed form.  Any such d gives the
    same lines.  The part of the swept polyhedron with pi.x >= pi0 then
    lies inside conv(p, L), which is checked.

    The number of splits from an endpoint grows like 1/alpha as p nears
    the near plane (alpha = pi.p - pi0); more than 16·(extent + 2)·scale +
    17, with extent the largest coordinate of q̄ and p measured from the
    endpoint and scale the largest entry of pi and u, is refused.
    """
    if q.dim != 2:
        raise GeometryError("sweep is only implemented in dimension 2")
    if len(p) != 2:
        raise GeometryError("sweep apex must have 2 coordinates")
    if q.is_empty:
        raise GeometryError("sweep hypothesis failed: empty polyhedron")
    pp = as_point(p)
    pi0 = chv.pi0
    a = embed_normal(chv.pi, 2)
    greatest = _extent(q, a)[1]
    if greatest is None or greatest >= pi0 + 1:
        raise GeometryError(
            "sweep hypothesis failed: split is not Chvatal for q (far plane meets q)"
        )
    if greatest <= pi0:
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
    if any(c.denominator != 1 for e in seg.vertices for c in e):
        raise GeometryError("sweep hypothesis failed: segment endpoint is not an integer point")
    end0, end1 = (tuple(int(c) for c in e) for e in seg.vertices)
    qbar = q.intersect_halfspace(tuple(-x for x in a), Fraction(-pi0))
    apex = scale_primitive((*pp, 1))
    d = integer_solve_rows([(a, 1)])

    splits: list[Split] = []
    current = q
    for a0, a1 in ((end0, end1), (end1, end0)):
        u = scale_dir(a1, a0)
        if not seg.contains(tuple(a0[i] + u[i] for i in range(2))):
            raise GeometryError(
                "sweep hypothesis failed: endpoint facet split does not intersect the segment"
            )
        ks = _sweep_sector(qbar.rows, a0, u, d, apex)
        # the lines in the reference scan's window [-cap, cap], cap = 8·(extent + 2)·scale + 8
        extent = max(abs(c - a0[i]) for v in (*qbar.vertices, pp) for i, c in enumerate(v))
        budget = 16 * (ceil(extent) + 2) * max(*map(abs, a), *map(abs, u)) + 17
        if len(ks) > budget:
            raise GeometryError(
                f"sweep needs {len(ks)} splits from an endpoint, more than its budget "
                f"{budget}: the apex is too close to the near plane"
            )
        for k in ks:
            direction = (d[0] + k * u[0], d[1] + k * u[1])
            n = (-direction[1], direction[0])
            if dot(n, u) < 0:
                n = (-n[0], -n[1])
            s = Split.make(n, dot(n, a0)).canonical()
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
