"""Exact rational polyhedra stored as one integer double description.

A :class:`Polyhedron` is the double description (DD) of its
homogenization cone: primitive homogeneous generators, primitive facet
rows and the generator-by-row incidence bitmasks.  Each element has one
primitive form and both lists are sorted, so equality of polyhedra is a
syntactic check on integers; rational vertices and inequalities are
cached views.  Each conversion runs one integer DD pass over the
homogenization cone and reads the other side off the incidence that pass
leaves: the extreme generators and the facet rows are the ones whose
tight sets no other generator or row contains.  Rank-deficient input,
such as the generators of a lower-dimensional face, takes the same pass:
the lines no row cuts span the lineality space, and integer elimination
puts them and the rays in canonical form.  One function, ``_dd_step``,
cuts a double description by one more row, combining the generator pairs
that one combinatorial test, ``_adjacent``, finds adjacent; conversions,
cuts and split pieces all run it.  Intersecting with further rows runs
it from the stored state, a batch of rows, such as a whole round of split
hulls, in one pass; a split's slices run it over the stored edge list
(``Polyhedron._edges``).  The facet rows of the hull of a
full-dimensional polyhedron and further generators (``_join_rows``) come
from the same steps in the polar: the seed rays are its facet rows, its
generators the rows, and each new generator one more row.  All
arithmetic is integer or
:class:`fractions.Fraction`, never floating point; containment and split
tests compare integers only, and so do lattice-point enumeration and the
relative-interior test, which read the box off the generators and the
equality rows off the incidence.

Ambient dimension is capped at 4: three geometric coordinates plus one
lifted coordinate cover every object handled here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from math import gcd, lcm
from operator import and_
from typing import Iterable, Iterator, Optional, Sequence

from .linalg import (
    _echelon,
    det,
    dot,
    integer_solve_rows,
    rank,
    scale_primitive,
)

MAX_DIM = 4

Point = tuple[Fraction, ...]
IntVec = tuple[int, ...]
Inequality = tuple[IntVec, Fraction]  # a·x <= b with coprime integer a


class GeometryError(ValueError):
    """Invalid input to a geometric operation."""


class LinealityError(GeometryError):
    """The polyhedron contains a line, which this kernel does not model."""


class NotLatticeFreeError(GeometryError):
    """Raised when a set required to be lattice-free has an interior integer point."""

    def __init__(self, witness: Point):
        super().__init__(f"set is not lattice-free, interior integer point {witness}")
        self.witness = witness


def as_point(coords: Sequence) -> Point:
    return tuple(Fraction(c) for c in coords)


def _over_denominator(v: Sequence) -> tuple[IntVec, int]:
    """(n, d) with v = n/d: the rational vector v over its least common
    denominator d >= 1, so that signs of integer row products with (n, d)
    are the signs with (v, 1)."""
    v = [x if type(x) is int or type(x) is Fraction else Fraction(x) for x in v]
    d = lcm(*(x.denominator for x in v))
    return tuple(x.numerator * (d // x.denominator) for x in v), d


def _integer(x) -> int:
    """x as an int, refusing a non-integral value rather than truncating it,
    and a bool rather than reading it as 0 or 1."""
    if type(x) is int:
        return x
    if isinstance(x, bool) or Fraction(x).denominator != 1:
        raise GeometryError(f"not an integer: {x!r}")
    return int(x)


def _check_dim(dim: int) -> None:
    if not 1 <= dim <= MAX_DIM:
        raise GeometryError(f"ambient dimension must be in 1..{MAX_DIM}, got {dim}")


# ---------------------------------------------------------------------------
# double description core


def _combine(s: int, u: IntVec, t: int, v: IntVec) -> IntVec:
    """The primitive form of the nonzero integer vector s·u − t·v."""
    w = tuple(s * x - t * y for x, y in zip(u, v))
    g = gcd(*w)
    return tuple(c // g for c in w)


def _adjacent(masks: Sequence[int], i: int, j: int, common: int) -> bool:
    """The combinatorial adjacency test of generators i and j, whose tight
    masks share the rows ``common``: no third generator is tight on all
    of them."""
    return not any(
        k != i and k != j and common & masks[k] == common for k in range(len(masks))
    )


def _dd_step(
    gens: Sequence[IntVec],
    masks: Sequence[int],
    w: Sequence[int],
    bit: int,
    pairs: Iterable[tuple[int, int, int]],
) -> tuple[list[IntVec], list[int]]:
    """One double-description step: the generators and tight masks of the
    cone over ``gens`` cut by one more row, whose value on each generator
    is w and whose mask bit is ``bit``.

    The generators with w <= 0 stay, tight on the row where w = 0, and
    each adjacent pair (i, j, common) of ``pairs`` whose ends lie on
    opposite sides gives the generator where its edge crosses the row's
    hyperplane, tight exactly where both ends are and on the row.
    """
    keep = [k for k, x in enumerate(w) if x <= 0]
    out = [gens[k] for k in keep]
    out_masks = [masks[k] | bit if w[k] == 0 else masks[k] for k in keep]
    for i, j, common in pairs:
        if w[i] * w[j] < 0:
            p, n = (i, j) if w[i] > 0 else (j, i)
            out.append(_combine(w[p], gens[n], w[n], gens[p]))
            out_masks.append(common | bit)
    return out, out_masks


def _pointed_cone_rays(
    rows: list[IntVec], d: int, seed: Optional[tuple[int, list[IntVec], list[int]]] = None
) -> tuple[list[IntVec], list[IntVec], list[int]]:
    """(lines, rays, masks) of the cone {x : r·x <= 0 for r in rows}: a
    basis of its lineality space, its extreme rays modulo that space, and
    each ray's tight set as a bitmask (bit k is rows[k]).

    Integer incremental double description.  Without ``seed`` it starts
    from all of R^d as lineality space (the d unit lines) and no rays: a
    row that cuts a remaining line l turns l into the ray on its feasible
    side and projects the other lines and every ray along l onto the row's
    hyperplane; the lines that no row cuts are returned.  ``seed = (k,
    rays, masks)`` is the double description of the pointed cone cut out
    by rows[:k]; only rows[k:] are then processed, and no line comes out.
    Every other row is one ``_dd_step`` over the pointed part, whose pairs
    are the positive × negative ones that share at least (pointed
    dimension − 2) tight rows and pass ``_adjacent``.
    """
    if seed is None:
        start, rays, masks = 0, [], []
        lines = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    else:
        (start, rays, masks), lines = seed, []
    for idx in range(start, len(rows)):
        a, bit = rows[idx], 1 << idx
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
        need = d - len(lines) - 2
        pos = [i for i, v in enumerate(vals) if v > 0]
        neg = [j for j, v in enumerate(vals) if v < 0]
        pairs = [
            (i, j, common)
            for i in pos
            for j in neg
            if (common := masks[i] & masks[j]).bit_count() >= need
            and _adjacent(masks, i, j, common)
        ]
        rays, masks = _dd_step(rays, masks, vals, bit, pairs)
    return lines, rays, masks


def _primitive(row: Sequence[int], sign: int) -> IntVec:
    """The primitive form of the nonzero integer vector sign·row."""
    g = gcd(*row) * sign
    return tuple(x // g for x in row)


def cone_rays(
    rows: Sequence[Sequence[int]], d: int, masks: Optional[list[int]] = None
) -> tuple[list[IntVec], list[IntVec]]:
    """(lineality basis, extreme rays) of {x in R^d : r·x <= 0 for r in rows}.

    The lineality basis is canonical: one line per column that is not a
    pivot of the rows' echelon form, in column order, the primitive line
    that is positive on that column and zero on the other such columns.
    Each extreme ray is the primitive representative orthogonal to every
    line.  A given ``masks`` list receives each extreme ray's tight set,
    as a bitmask over the rows (bit k is rows[k]).
    """
    lines, rays, tight = _pointed_cone_rays([tuple(r) for r in rows], d)
    if masks is not None:
        masks.extend(tight)
    if not lines:
        return [], rays
    # reduced echelon form of the lines with pivots taken from the right:
    # its pivots are the free columns, each row is D there and 0 on the rest
    ech, _, D, _ = _echelon([l[::-1] for l in lines], d)
    lines = [_primitive(r[::-1], 1 if D > 0 else -1) for r in reversed(ech)]
    k = len(lines)
    # row i, column k + j is D times the coefficient of line i in the
    # orthogonal projection of ray j onto the lineality space; the Gram
    # matrix is positive definite, so D, its determinant, is positive
    ech, _, D, _ = _echelon(
        [[dot(l, m) for m in lines] + [dot(l, r) for r in rays] for l in lines], k
    )
    return lines, [
        _primitive(
            [D * x - sum(e[k + j] * l[c] for e, l in zip(ech, lines)) for c, x in enumerate(r)], 1
        )
        for j, r in enumerate(rays)
    ]


def _transpose(masks: Sequence[int], n: int) -> list[int]:
    """The n column masks of a bit matrix: bit i of column k is bit k of masks[i]."""
    cols = [0] * n
    for i, m in enumerate(masks):
        bit = 1 << i
        while m:
            low = m & -m
            cols[low.bit_length() - 1] |= bit
            m ^= low
    return cols


def _unrivalled(masks: Sequence[int]) -> list[int]:
    """Indices k such that no other entry has every bit of masks[k]."""
    return [k for k, m in enumerate(masks) if [o & m for o in masks].count(m) == 1]


def _homog_rows(ineqs: Sequence[tuple[Sequence, Fraction]], dim: int) -> Optional[list[IntVec]]:
    """Distinct primitive integer rows a·x − b·t <= 0 of the inequalities
    a·x <= b, then the homogenizing row −t <= 0; None if some 0·x <= b
    has b < 0."""
    rows = []
    for a, b in ineqs:
        if not any(a):
            if b < 0:
                return None
            continue
        rows.append(scale_primitive(tuple(a) + (-b,)))
    rows.append((0,) * dim + (-1,))
    return list(dict.fromkeys(rows))


def _row_ineq(row: IntVec) -> Inequality:
    """The canonical a·x <= b of an integer row a·x + c·t <= 0 with a != 0."""
    g = gcd(*row[:-1])
    return tuple(x // g for x in row[:-1]), Fraction(-row[-1], g)


def _h_to_v(rows: list[IntVec], dim: int) -> tuple[list[IntVec], list[int]]:
    """Extreme rays (x, t) of the cone {r·(x, t) <= 0 for r in rows}, the
    rows being those of ``_homog_rows``, with their tight masks over rows.

    Returns ([], []) if the set {x : (x, 1) in the cone} is empty and
    raises if it contains a line.  Every line of the cone has t = 0, so the
    set is empty iff no extreme ray (in any form modulo lines) has t > 0.
    """
    lines, gens, masks = _pointed_cone_rays(rows, dim + 1)
    if not any(g[-1] for g in gens):
        return [], []
    if lines:
        raise LinealityError("polyhedron contains a line")
    return gens, masks


def _v_to_h(gens: list[IntVec], dim: int) -> tuple[list[IntVec], list[int]]:
    """Irredundant rows of the cone over the distinct homogeneous
    generators ``gens``, and each generator's tight mask over those rows
    followed by the homogenizing row −t <= 0.

    Equality constraints appear as paired opposite rows.
    """
    fmasks: list[int] = []
    lines, crays = cone_rays(gens, dim + 1, fmasks)
    every = (1 << len(gens)) - 1
    for l in lines:
        crays += [l, tuple(-x for x in l)]
        fmasks += [every, every]
    return _facets(gens, crays, fmasks)


def _facets(
    gens: list[IntVec], rows: list[IntVec], row_masks: list[int]
) -> tuple[list[IntVec], list[int]]:
    """The sorted rows with a nonzero normal that are tight on some
    generator (a point's polar has a ray tight on none), whose generator
    masks are ``row_masks``, and each generator's tight mask over them
    followed by the homogenizing row −t <= 0."""
    out = {r: m for r, m in zip(rows, row_masks) if m and any(r[:-1])}
    facets = sorted(out)
    return facets, _incidence([out[r] for r in facets], gens)


def _incidence(row_masks: list[int], gens: list[IntVec]) -> list[int]:
    """Each generator's tight mask over the rows whose generator masks are
    ``row_masks``, followed by the homogenizing row −t <= 0 (tight on rays)."""
    homog = 1 << len(row_masks)
    return [
        m | (0 if g[-1] else homog) for m, g in zip(_transpose(row_masks, len(gens)), gens)
    ]


def _polyhedron(
    dim: int, rows: list[IntVec], gens: Sequence[IntVec], masks: Sequence[int]
) -> "Polyhedron":
    """The polyhedron with sorted primitive facet rows ``rows`` and
    extreme homogeneous generators ``gens``, whose tight masks over rows
    and then −t <= 0 are ``masks``."""
    gens, masks = zip(*sorted(zip(gens, masks)))
    return Polyhedron(dim, gens, (*rows, (0,) * dim + (-1,)), masks)


def _canonical(dim: int, rows: list[IntVec], gens: list[IntVec], masks: list[int]) -> "Polyhedron":
    """The polyhedron of a pointed double description over ``rows``.

    The rows are distinct, so a row is a facet iff no other row is tight on
    all of its tight generators (which also rules out an empty tight set);
    the homogenizing row takes part but is not a facet.  A row tight on
    every generator means a lower-dimensional set, whose equalities come
    from one ``_v_to_h`` pass.
    """
    tight = _transpose(masks, len(rows))
    if (1 << len(gens)) - 1 in tight:
        facets, masks = _v_to_h(gens, dim)
        return _polyhedron(dim, facets, gens, masks)
    keep = _unrivalled(tight)
    facets, masks = _facets(gens, [rows[k] for k in keep], [tight[k] for k in keep])
    return _polyhedron(dim, facets, gens, masks)


def _from_homogeneous(dim: int, gens: list[IntVec]) -> "Polyhedron":
    """The polyhedron generated by the distinct primitive homogeneous
    generators ``gens`` (at least one with t > 0), by one V->H pass: in a
    pointed cone, a generator is extreme iff no other generator is tight
    on every row it is tight on."""
    rows, masks = _v_to_h(gens, dim)
    if not all(g[-1] for g in gens) and rank([r[:-1] for r in rows], dim) < dim:
        raise LinealityError("polyhedron contains a line")
    keep = _unrivalled(masks)
    return _polyhedron(dim, rows, [gens[k] for k in keep], [masks[k] for k in keep])


def _join_rows(
    dim: int, seed: tuple[list[IntVec], list[IntVec], list[int]], other_gens: list[IntVec]
) -> list[IntVec]:
    """The facet rows of the convex hull of a full-dimensional polyhedron,
    given by its pointed double description ``seed`` = (generators,
    distinct rows, masks), and the homogeneous generators ``other_gens``.

    The polar of a hull is the intersection of the polars, so this is a
    double-description step in the polar from the seed's state: its rays
    are the seed's facet rows, tight on their generators, and its rows are
    the seed's generators, to which the new ones of ``other_gens`` are
    added as further rows.  The rays that come out are the hull's facets.
    """
    gens, rows, masks = seed
    tight = _transpose(masks, len(rows))
    facets = _unrivalled(tight)
    have = set(gens)
    polar_rows = [*gens, *(g for g in other_gens if g not in have)]
    _, polar, _ = _pointed_cone_rays(
        polar_rows, dim + 1, (len(gens), [rows[k] for k in facets], [tight[k] for k in facets])
    )
    return polar


# ---------------------------------------------------------------------------
# hyperplanes


@dataclass(frozen=True)
class Hyperplane:
    """The set {x : normal·x = offset} in canonical form.

    The normal is a coprime integer vector whose leading nonzero entry is
    positive; the offset is a reduced rational.
    """

    normal: IntVec
    offset: Fraction

    @staticmethod
    def make(normal: Sequence, offset) -> "Hyperplane":
        if not any(Fraction(x) for x in normal):
            raise GeometryError("hyperplane normal must be nonzero")
        a, b = _row_ineq(scale_primitive(tuple(normal) + (-offset,)))
        lead = next(x for x in a if x != 0)
        if lead < 0:
            a, b = tuple(-x for x in a), -b
        return Hyperplane(a, b)

    def has_integer_point(self) -> bool:
        # with a coprime integer normal, Bezout gives a point iff offset is integer
        return self.offset.denominator == 1


# ---------------------------------------------------------------------------
# the polyhedron type


@dataclass(frozen=True)
class Polyhedron:
    """Rational polyhedron as the integer double description of its cone.

    ``gens``: sorted primitive extreme generators, a vertex n/t as (n, t)
    with t >= 1 and a ray r as (r, 0).  ``rows``: sorted primitive facet
    rows a·x − b·t <= 0, then −t <= 0; the empty set has t <= 0 there.
    ``masks``: each generator's tight rows, bit k for rows[k].  ``==``
    decides set equality.  ``vertices``, ``rays`` and ``inequalities``
    (coprime integer normal, rational offset) are sorted views.
    """

    dim: int
    gens: tuple[IntVec, ...]
    rows: tuple[IntVec, ...]
    masks: tuple[int, ...] = field(compare=False)

    # -- construction -----------------------------------------------------

    @staticmethod
    def empty(dim: int) -> "Polyhedron":
        _check_dim(dim)
        return Polyhedron(dim, (), ((0,) * dim + (1,), (0,) * dim + (-1,)), ())

    @staticmethod
    def from_generators(points: Sequence[Sequence], rays: Sequence[Sequence] = ()) -> "Polyhedron":
        pts = [as_point(p) for p in points]
        rays = [as_point(r) for r in rays]
        if not all(any(r) for r in rays):
            raise GeometryError("ray must be nonzero")
        dims = {len(p) for p in pts} | {len(r) for r in rays}
        if len(dims) > 1:
            raise GeometryError("generators have mismatched dimensions")
        if not pts:
            if not dims:
                raise GeometryError("cannot infer dimension from empty input")
            return Polyhedron.empty(dims.pop())
        dim = dims.pop()
        _check_dim(dim)
        gens = [scale_primitive(p + (1,)) for p in pts]
        return _from_homogeneous(
            dim, list(dict.fromkeys(gens + [scale_primitive(r) + (0,) for r in rays]))
        )

    @staticmethod
    def from_inequalities(ineqs: Sequence[tuple[Sequence, object]], dim: int) -> "Polyhedron":
        _check_dim(dim)
        pairs = [(as_point(a), Fraction(b)) for a, b in ineqs]
        if any(len(a) != dim for a, _ in pairs):
            raise GeometryError("inequality dimension mismatch")
        rows = _homog_rows(pairs, dim)
        gens, masks = _h_to_v(rows, dim) if rows is not None else ([], [])
        if not gens:
            return Polyhedron.empty(dim)
        return _canonical(dim, rows, gens, masks)

    # -- views --------------------------------------------------------------

    @cached_property
    def vertices(self) -> tuple[Point, ...]:
        return tuple(sorted(tuple(Fraction(c, g[-1]) for c in g[:-1]) for g in self.gens if g[-1]))

    @cached_property
    def rays(self) -> tuple[IntVec, ...]:
        return tuple(g[:-1] for g in self.gens if not g[-1])

    @cached_property
    def inequalities(self) -> tuple[Inequality, ...]:
        if not self.gens:
            return (((0,) * self.dim, Fraction(-1)),)
        return tuple(sorted(_row_ineq(r) for r in self.rows[:-1]))

    # -- basic predicates --------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.gens

    @property
    def is_bounded(self) -> bool:
        return all(g[-1] for g in self.gens)

    def contains(self, point: Sequence) -> bool:
        p = as_point(point)
        if len(p) != self.dim:
            raise GeometryError("point dimension mismatch")
        if self.is_empty:
            return False
        return all(dot(a, p) <= b for a, b in self.inequalities)

    def facet_inequalities(self) -> list[Inequality]:
        seen = set(self.inequalities)
        return [
            (a, b)
            for a, b in self.inequalities
            if (tuple(-x for x in a), -b) not in seen
        ]

    @cached_property
    def _equalities(self) -> int:
        """The rows tight on every generator, as a bitmask over ``rows``
        (bit k for rows[k]): the equality rows, in opposite pairs.  Only
        for a nonempty polyhedron."""
        return reduce(and_, self.masks)

    @cached_property
    def _edges(self) -> list[tuple[int, int, int]]:
        """The adjacent pairs (i, j, common) of generators, i < j, with
        common the mask of the rows tight on both: the pairs with at least
        dim − 1 common rows (the homogenizing one included) that pass
        ``_adjacent``."""
        masks, need = self.masks, self.dim - 1
        return [
            (i, j, common)
            for i, mi in enumerate(masks)
            for j in range(i + 1, len(masks))
            if (common := mi & masks[j]).bit_count() >= need and _adjacent(masks, i, j, common)
        ]

    def affine_dim(self) -> int:
        if self.is_empty:
            return -1
        return self.dim - self._equalities.bit_count() // 2

    def relint_contains(self, point: Sequence) -> bool:
        """Membership in the relative interior: on every equality row and
        strictly inside every other row.  The test runs in integers, on the
        point n/d over its common denominator d: a row r holds at it with
        the sign of r·(n, d)."""
        n, d = _over_denominator(point)
        if len(n) != self.dim:
            raise GeometryError("point dimension mismatch")
        if self.is_empty:
            return False
        h, eq = (*n, d), self._equalities
        return all(
            dot(r, h) == 0 if eq >> k & 1 else dot(r, h) < 0 for k, r in enumerate(self.rows[:-1])
        )

    def interior_contains(self, point: Sequence) -> bool:
        return self.affine_dim() == self.dim and self.relint_contains(point)

    def bounding_box(self) -> list[tuple[Fraction, Fraction]]:
        if self.is_empty:
            raise GeometryError("empty polyhedron has no bounding box")
        if self.rays:
            raise GeometryError("unbounded polyhedron has no bounding box")
        return [
            (min(v[i] for v in self.vertices), max(v[i] for v in self.vertices))
            for i in range(self.dim)
        ]

    def intersect_halfspace(self, a: Sequence, b) -> "Polyhedron":
        if len(a) != self.dim:
            raise GeometryError("dimension mismatch in intersection")
        return self._cut(_homog_rows([(as_point(a), Fraction(b))], self.dim))

    def intersect(self, other: "Polyhedron") -> "Polyhedron":
        if self.dim != other.dim:
            raise GeometryError("dimension mismatch in intersection")
        return self._cut(None if other.is_empty else other.rows)

    def _cut(self, rows: Optional[Sequence[IntVec]]) -> "Polyhedron":
        """self intersected with the distinct primitive homogeneous rows
        (None: infeasible), by DD steps from self's state for the rows it
        does not have yet, in order; self itself if none of them cuts it."""
        if self.is_empty:
            return self
        if rows is None:
            return Polyhedron.empty(self.dim)
        have = set(self.rows)
        rows = [*self.rows, *(r for r in rows if r not in have)]
        if len(rows) == len(self.rows):
            return self
        _, out, out_masks = _pointed_cone_rays(
            rows, self.dim + 1, (len(self.rows), self.gens, self.masks)
        )
        # a cut drops a generator, so the extreme rays change
        if tuple(out) == self.gens:
            return self
        if not any(g[-1] for g in out):
            return Polyhedron.empty(self.dim)
        return _canonical(self.dim, rows, out, out_masks)

    def contains_polyhedron(self, other: "Polyhedron") -> bool:
        if other.dim != self.dim:
            raise GeometryError("dimension mismatch in containment")
        # every generator of other satisfies every row of self
        return all(dot(r, g) <= 0 for g in other.gens for r in self.rows)


# ---------------------------------------------------------------------------
# module operations


def convex_hull(points: Sequence[Sequence], rays: Sequence[Sequence] = ()) -> Polyhedron:
    """Hull of the given points plus conic combinations of the rays."""
    if not points and not rays:
        raise GeometryError("convex_hull of empty input needs a dimension; use Polyhedron.empty")
    return Polyhedron.from_generators(points, rays)


def lattice_points(p: Polyhedron) -> list[Point]:
    """All integer points of a bounded polyhedron, sorted lexicographically.

    The enumeration reads only the integer double description; the points
    become ``Fraction`` tuples on the way out."""
    return [as_point(q) for q in _iter_lattice_points(p)]


def _iter_lattice_points(p: Polyhedron) -> Iterator[IntVec]:
    """The integer points of a bounded p as int tuples, lazily and in
    lexicographic order.

    The box runs from the least ceiling to the greatest floor of each
    vertex coordinate.  Each row a·x + c <= 0 bounds coordinate k, given the fixed prefix, by its
    least value over the box on the coordinates after k (its tail), and
    bounds it exactly at the last coordinate it involves, where the tail
    is empty; so every point that reaches the leaf satisfies every row.
    """
    if p.is_empty:
        return
    if not p.is_bounded:
        raise GeometryError("refusing to enumerate integer points of an unbounded set")
    d = p.dim
    lo = [min(-(-g[k] // g[-1]) for g in p.gens) for k in range(d)]
    hi = [max(g[k] // g[-1] for g in p.gens) for k in range(d)]
    if any(l > h for l, h in zip(lo, hi)):
        return
    rows = p.rows[:-1]
    # each term a_j·x_j of a row at its least over the box
    least = [[x * (lo[j] if x > 0 else hi[j]) for j, x in enumerate(r[:d])] for r in rows]
    # per depth k: (a[:k], a[k], c + the tail's least over the box)
    bounds = [
        [(r[:k], r[k], r[-1] + sum(m[k + 1 :])) for r, m in zip(rows, least) if r[k]]
        for k in range(d)
    ]

    def recurse(prefix: list[int], depth: int) -> Iterator[IntVec]:
        if depth == d:
            yield tuple(prefix)
            return
        lo_k, hi_k = lo[depth], hi[depth]
        for head, c, tail in bounds[depth]:
            # c·x_k <= rem: x_k <= floor(rem / c) for c > 0, >= ceil(rem / c) for c < 0
            rem = -tail - dot(head, prefix)
            if c > 0:
                hi_k = min(hi_k, rem // c)
            else:
                lo_k = max(lo_k, -(rem // -c))
        for v in range(lo_k, hi_k + 1):
            prefix.append(v)
            yield from recurse(prefix, depth + 1)
            prefix.pop()

    yield from recurse([], 0)


def integer_solve(rows: Sequence[tuple[Sequence[int], int]]) -> Optional[IntVec]:
    """An integer solution of the equality system {a_i·x = b_i}, if any."""
    return integer_solve_rows([(tuple(_integer(x) for x in a), _integer(b)) for a, b in rows])


def apply_unimodular(p: Polyhedron, u: Sequence[Sequence[int]], shift: Sequence[int]) -> Polyhedron:
    """Image of p under x -> U x + shift for a unimodular integer matrix U."""
    rows = [tuple(_integer(x) for x in r) for r in u]
    if len(rows) != p.dim or any(len(r) != p.dim for r in rows):
        raise GeometryError("transformation matrix shape mismatch")
    if abs(det(rows)) != 1:
        raise GeometryError("transformation matrix is not unimodular")
    t = as_point(shift)
    if len(t) != p.dim:
        raise GeometryError("shift dimension mismatch")
    if p.is_empty:
        return p
    # (n, t) maps to (U n + shift·t, t), a bijection of generators
    gens = [
        scale_primitive(tuple(dot(r, g[:-1]) + c * g[-1] for r, c in zip(rows, t)) + (g[-1],))
        for g in p.gens
    ]
    return _from_homogeneous(p.dim, gens)


def interior_integer_point(p: Polyhedron) -> Optional[Point]:
    """The lexicographically first integer point in the relative interior
    of a bounded p, if one exists; the scan stops there.

    The test runs in integers on the enumerated points, which satisfy
    every row: a point is in the relative interior iff it is strictly
    inside every row that is not an equality (``Polyhedron._equalities``).
    """
    if p.is_empty:
        return None
    eq = p._equalities
    strict = [r for k, r in enumerate(p.rows[:-1]) if not eq >> k & 1]
    for q in _iter_lattice_points(p):
        h = q + (1,)
        if all(dot(r, h) < 0 for r in strict):
            return as_point(q)
    return None


def require_lattice_free(p: Polyhedron) -> None:
    witness = interior_integer_point(p)
    if witness is not None:
        raise NotLatticeFreeError(witness)
