"""Split disjunctions and their action on rational polyhedra.

A split (pi, pi0) is the disjunction pi.x <= pi0 or pi.x >= pi0 + 1 with
integer data and coprime pi.  A split acts on the leading coordinates of
the space it meets, so a split of x-space applies as it is to a cone
lifted into (x, z).  A round of splits cuts a polyhedron by the convex
hulls of each split's two clipped pieces, in integers.  Each split
direction's values over the generators are computed once per round
(``_levels``); they tell which splits leave the polyhedron unchanged and
how deep the others are, and give both pieces' row values (``_sides``),
which tell whether a piece is empty, and so whether a split is Chvatal
for q or confines it.  A hull's facet rows come from one
double-description (DD) step in the polar (``_join``), as the polar of a
hull is the intersection of the polars: its seed is a full-dimensional
piece's row and its facets that meet its own plane, with masks over that
plane's section, and its new rows are the other plane's section, whose
row is then dropped; one pass over the polyhedron's edge list, built
once per round, reads both planes.  Only two lower-dimensional pieces
take a fresh conversion.  A round takes its splits deepest first and
cuts as it goes, skipping a split whose hull holds what is left; one
split is a round of one.

The 2D sweep reads its segment off the edge list (``_section``) and finds
its start line and apex sector in closed form, in integers
(``_sweep_sector``), so its cost does not depend on where the body sits;
its length has a budget measured from the segment's endpoints."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import product
from math import ceil, gcd
from operator import and_, itemgetter, mul, or_
from typing import Optional, Sequence

from .geometry import (
    GeometryError,
    IntVec,
    Polyhedron,
    as_point,
    _canonical,
    _combine,
    _cut_by,
    _from_homogeneous,
    _integer,
    _over_denominator,
    _pointed_cone_rays,
    _transpose,
)
from .linalg import dot, integer_solve_rows, scale_primitive


@dataclass(frozen=True)
class Split:
    """The disjunction pi.x <= pi0 or pi.x >= pi0 + 1."""

    pi: IntVec
    pi0: int

    def __post_init__(self):
        if not any(self.pi):
            raise GeometryError("split direction must be nonzero")
        if gcd(*self.pi) != 1:
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


def _sides(q: Polyhedron, a: IntVec, vals: Sequence[int], lo: int) -> list[tuple]:
    """The pieces of q cut out by the split a·x <= lo or a·x >= lo + 1, the
    lo piece first, with vals = a·n over q's generators (n, t): each
    piece's homogeneous row, its values on the generators (negative
    strictly inside the piece) and whether the piece has a point: a vertex
    of q on its side (value <= 0) or a ray of q into it (value < 0)."""
    gens = q.gens
    below = [v - lo * g[-1] for v, g in zip(vals, gens)]
    above = [g[-1] - x for x, g in zip(below, gens)]  # (lo + 1)·t − a·n
    return [
        (row, w, any(x < 0 or x == 0 and g[-1] for x, g in zip(w, gens)))
        for row, w in (((*a, -lo), below), ((*(-x for x in a), lo + 1), above))
    ]


def _levels(q: Polyhedron, a: IntVec) -> tuple[list[int], dict[int, int]]:
    """a·n for each generator (n, t) of q, and a dict from each level k to
    its depth: how many vertices of q lie strictly between a·x = k and
    k + 1.  A split off these levels leaves q unchanged, as every generator
    lies in one of its pieces.  a has q.dim entries, so its product with a
    whole generator (n, t) is a·n."""
    vals = [sum(map(mul, a, g)) for g in q.gens]
    depth: dict[int, int] = {}
    for v, g in zip(vals, q.gens):
        t = g[-1]
        if t and v % t:
            k = v // t
            depth[k] = depth.get(k, 0) + 1
    return vals, depth


def _crossing(gens: Sequence[IntVec], w: Sequence[int], i: int, j: int) -> IntVec:
    """The point where the edge of generators i and j (w of opposite signs) crosses w = 0."""
    p, n = (i, j) if w[i] > 0 else (j, i)
    return _combine(w[p], gens[n], w[n], gens[p])


def _section(q: Polyhedron, w: Sequence[int]) -> list[IntVec]:
    """The homogeneous generators of q's section by the hyperplane of a
    row whose value on each generator is w: the generators on it and one
    crossing point (``_crossing``) per edge of q (``Polyhedron._edges``)
    whose ends lie on opposite sides."""
    gens = q.gens
    return [g for g, x in zip(gens, w) if x == 0] + [
        _crossing(gens, w, i, j) for i, j, _ in q._edges if w[i] * w[j] < 0
    ]


def _join(q: Polyhedron, row: IntVec, w: Sequence[int], far: Sequence[int]) -> list[IntVec]:
    """The facet rows of conv(P ∪ F) less P's facets that miss N: P the
    piece of a full-dimensional q cut out by ``row`` (values w on q's
    generators, some negative), N its section by its own plane and F q's
    section by the hyperplane of the row with values ``far``.

    The polar of a hull is the intersection of the polars, so these are
    the rays of a double-description step in the polar from P's facets,
    with F's points as new rows.  Every row of q is <= 0 on F,
    so only rays descended from P's row are ever positive, and their tight
    sets lie in N and F.  A facet of P other than its row is tight on a
    generator strictly inside P, so if it misses N it misses F too: it
    never shares the dim − 1 >= 1 tight rows a pair needs, nor holds a
    pair's common set in ``_adjacent``, and stays a ray, a row of q.  So
    the step runs on N's points as processed rows and, as seed rays, P's
    row (tight on all of N) and q's rows tight on a point of N and on a
    generator strictly inside P, which are P's other facets that meet N,
    with masks over N.  The row −t <= 0 passes that test when N and P hold
    rays, but is a facet of P only if no other row is tight on all of P's
    rays, and is a seed ray only then.  In dimension 1 a pair needs no
    common row, but a vertex of q strictly between the planes leaves one
    piece empty, so the join is not reached.  The step never reads a
    processed row, so one pass over q's generators and edges reads N's
    masks, with no coordinates, and F's points at t > 0, its new rows: as
    far = t − w, F's points at t = 0, rays of q parallel to the planes and
    crossings of edges of two rays, lie in N and enter once.
    """
    gens, masks, homog = q.gens, q.masks, 1 << (len(q.rows) - 1)
    inside, near, rays, new = 0, [], [], []  # P's inside, N's masks, P's rays, F's new rows
    for g, m, x, y in zip(gens, masks, w, far):
        if x < 0:
            inside |= m
        elif x == 0:
            near.append(m)
        elif y == 0:
            new.append(g)
        if x <= 0 and not g[-1]:
            rays.append(m)
    for i, j, common in q._edges:
        if w[i] * w[j] < 0:
            near.append(common)
            if not (gens[i][-1] or gens[j][-1]):
                rays.append(common)
                continue
        if far[i] * far[j] < 0:
            new.append(_crossing(gens, far, i, j))
    seeds = inside & reduce(or_, near)
    if seeds & homog and reduce(and_, rays) & ~homog:
        seeds ^= homog
    ks = [k for k in range(len(q.rows)) if seeds >> k & 1]
    cols = _transpose(near, len(q.rows))
    seed = [row, *(q.rows[k] for k in ks)], [(1 << len(near)) - 1, *(cols[k] for k in ks)]
    return _pointed_cone_rays(new, q.dim + 1, (len(near), *seed))[1]


def _split_rows(
    q: Polyhedron, a: IntVec, vals: Sequence[int], lo: int
) -> Optional[Sequence[IntVec]]:
    """Homogeneous rows that cut q down to the convex hull H of the two
    pieces of q cut out by the split a·x <= lo or a·x >= lo + 1, with vals
    = a·n over q's generators (n, t) and a vertex of q strictly between the
    planes; None when both pieces are empty (no point), so that
    ``apply_round`` stops there.

    With one piece that has a point (``_sides``) this is its own row, with
    no DD step.  With two, the piece P1 of one side, taken
    full-dimensional (the lo piece first), is joined in the polar with
    the other piece's section F2 by its plane (``_join``), both sections
    read off q's edge list: a point of H on P1's side of that plane lies
    on a segment from P1 to the other piece, which crosses the plane
    inside q, so H cut by the plane's row is conv(P1 ∪ F2).  Every row of
    H that is not a row of q reaches that side of the plane, so the
    join's rows other than the plane's are rows of q or of H, and they
    cut q down to H.  A lower-dimensional q, or two lower-dimensional
    pieces, take a fresh V->H pass of both pieces, each q's generators
    strictly on its side and its section.
    """
    sides = _sides(q, a, vals, lo)
    live = [row for row, _, has_point in sides if has_point]
    if not live:
        return None
    if len(live) == 1:
        return live  # the other piece is empty
    # a piece of a full-dimensional q is full-dimensional iff some
    # generator lies strictly on its side
    if not q._equalities:
        for (row, w, _), (other, far, _) in (sides, sides[::-1]):
            if min(w) < 0:
                # the other plane's row from this side: a·x <= lo + 1 or a·x >= lo
                plane = tuple(-x for x in other)
                return [r for r in _join(q, row, w, far) if r != plane]
    pieces = [[g for g, x in zip(q.gens, w) if x < 0] + _section(q, w) for _, w, _ in sides]
    return _from_homogeneous(q.dim, list(dict.fromkeys(pieces[0] + pieces[1]))).rows


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
    vals, levels = _levels(q, a)
    chvatal = not all(has_point for *_, has_point in _sides(q, a, vals, s.pi0))
    return SplitClass(not chvatal, s.pi0 not in levels, chvatal)


def split_confines(q: Polyhedron, s: Split) -> bool:
    """True iff q lies between the two boundary planes of s.

    A confining split leaves q unchanged and certifies that its two
    planes carry all further progress; this is the admission test for
    the terminal split of a height-reduction program.
    """
    if q.is_empty:
        raise GeometryError("confinement needs a nonempty polyhedron")
    a = embed_normal(s.pi, q.dim)
    return all(x >= 0 for _, w, _ in _sides(q, a, _levels(q, a)[0], s.pi0) for x in w)


def facet_splits(qx: Polyhedron) -> list[Split]:
    """One split per facet of qx, whose boundary planes sandwich the facet.

    The facet normal is already a coprime integer vector; the far plane
    sits at the next integer level inward, so when the facet plane holds
    integer points one boundary plane supports the facet itself.
    """
    if qx.affine_dim() != qx.dim:
        raise GeometryError("facet splits need a full-dimensional polyhedron")
    return [Split(a, ceil(b) - 1) for a, b in qx.facet_inequalities()]


def _live(q: Polyhedron, splits: Sequence[Split]) -> list[tuple]:
    """(−depth, row, a, vals, lo) of each split a·x <= lo or a·x >= lo + 1 with
    a vertex of q strictly between its planes (``_levels``), deepest first (ties
    in the given order), a = pi on q's leading coordinates, row = (a, −lo)."""
    levels, live = {}, []
    for s in splits:
        if s.pi not in levels:
            levels[s.pi] = (a := embed_normal(s.pi, q.dim), *_levels(q, a))
        a, vals, depth = levels[s.pi]
        if s.pi0 in depth:
            live.append((-depth[s.pi0], (*a, -s.pi0), a, vals, s.pi0))
    return sorted(live, key=itemgetter(0))


def apply_round(q: Polyhedron, splits: Sequence[Split]) -> Polyhedron:
    """The intersection over the splits of the hulls of their pieces of q.

    Each split acts on q's leading coordinates (``embed_normal``), so a
    round of x-space splits applies to a cone lifted into (x, z) as it is.
    The splits with a vertex of q strictly between their planes are taken
    deepest first (``_live``).  Each cuts the round's running
    intersection R, a raw double description seeded from q's, by its hull
    rows on q (``_split_rows``) that R lacks, in one DD step (``_cut_by``),
    unless no vertex of R lies strictly between its planes, that is
    unless no generator g = (n, t) of R has 0 < r·g < t for the split's row
    r = (a, −lo), the lo piece's row: R lies
    in q, so each vertex of R lies in one closed piece, and R's rays are
    q's, which the hull keeps (with two pieces its recession cone is q's;
    with one, q has no ray into the empty side), so R lies in the hull.
    R is the same intersection in any order, put in canonical form once;
    q itself comes back when no split changes it (no generator is cut),
    and the empty polyhedron when some split leaves no point.
    """
    rows, gens, masks = q.rows, q.gens, q.masks
    for _, row, a, vals, lo in _live(q, splits):
        if not any(0 < sum(map(mul, row, g)) < g[-1] for g in gens):
            continue
        hull = _split_rows(q, a, vals, lo)
        if hull is None:
            return Polyhedron.empty(q.dim)
        rows, gens, masks = _cut_by(q.dim, rows, gens, masks, hull)
    return q if tuple(gens) == q.gens else _canonical(q.dim, rows, gens, masks)


def enumerate_splits(bound: int, box: Sequence[tuple[Fraction, Fraction]]) -> list[Split]:
    """All canonical splits of len(box)-space with max-norm at most
    ``bound`` touching ``box``.

    The identification (pi, pi0) ~ (-pi, -pi0-1) is resolved by keeping
    the representative whose leading nonzero entry is positive.  Each
    direction's range of pi0 is read in integers, over the box's common
    denominator.  The list is empty for bound < 1: no direction is nonzero."""
    dim = len(box)
    # the box over a common denominator d: pi·x ranges over [lo/d, hi/d]
    ends, d = _over_denominator([c for lo, hi in box for c in (lo, hi)])
    lows, highs = ends[0::2], ends[1::2]
    out: list[Split] = []
    for pi in product(range(-bound, bound + 1), repeat=dim):
        if not any(pi) or gcd(*pi) != 1 or next(x for x in pi if x) < 0:
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
    near plane cuts a segment L with integer endpoints out of q, read off
    q's edges in integers (``_section``), and the apex p lies strictly
    between the planes.  From each endpoint a0 the
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
    up = tuple(-x for x in a)
    (_, below, _), (_, _, above) = _sides(q, a, _levels(q, a)[0], pi0)
    if above:
        raise GeometryError(
            "sweep hypothesis failed: split is not Chvatal for q (far plane meets q)"
        )
    if max(below) <= 0:
        return SplitSequence.make([], [])  # nothing above the near plane
    seg = _section(q, below)
    if len(seg) != 2:
        raise GeometryError("sweep hypothesis failed: near plane section of q is not a segment")
    if not all(g[-1] for g in seg):
        raise GeometryError("sweep hypothesis failed: near plane section unbounded")
    pn, ps = _over_denominator(pp)
    if not pi0 * ps < dot(a, pn) < (pi0 + 1) * ps:
        raise GeometryError("sweep hypothesis failed: apex point not strictly between the planes")
    if any(g[-1] != 1 for g in seg):
        raise GeometryError("sweep hypothesis failed: segment endpoint is not an integer point")
    end0, end1 = sorted(g[:-1] for g in seg)
    qbar = q.intersect_halfspace(up, -pi0)
    d = integer_solve_rows([(a, 1)])

    splits: list[Split] = []
    current = q
    for a0, a1 in ((end0, end1), (end1, end0)):
        u = scale_primitive(tuple(x - y for x, y in zip(a1, a0)))
        ks = _sweep_sector(qbar.rows, a0, u, d, (*pn, ps))
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
    upper = current.intersect_halfspace(up, -pi0)
    if not pyramid.contains_polyhedron(upper):
        raise GeometryError("sweep postcondition failed: result escapes the pyramid")
    return SplitSequence.make(splits, ["sweep"] * len(splits))
