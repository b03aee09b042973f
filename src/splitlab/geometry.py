"""Exact rational polyhedra with synchronized dual representations.

A :class:`Polyhedron` stores vertices, recession rays and facet
inequalities at once, all canonicalized, so equality of polyhedra is a
syntactic check.  Conversion between the two representations runs a
double-description pass over the homogenization cone; all arithmetic is
integer or :class:`fractions.Fraction`, never floating point.

Ambient dimension is capped at 4: three geometric coordinates plus one
lifted coordinate cover every object handled here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd
from typing import Optional, Sequence

from .linalg import (
    det,
    dot,
    integer_solve_rows,
    nullspace,
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


def _pointed_cone_rays(rows: list[IntVec], d: int) -> list[IntVec]:
    """Extreme rays of the pointed cone {x : r·x <= 0 for r in rows}.

    Requires rank(rows) == d.  Integer incremental double description
    seeded with all of R^d as lineality space (the d unit lines) and no
    rays.  A row that cuts a remaining line l turns l into the ray on its
    feasible side and projects the other lines and every ray along l onto
    the row's hyperplane; any other row is a double-description step over
    the pointed part, with bitmask tight sets (bit k is row k) and the
    combinatorial adjacency test.
    """
    lines = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    rays: list[IntVec] = []
    masks: list[int] = []
    for idx, a in enumerate(rows):
        bit = 1 << idx
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
        if any(v > 0 for v in vals):
            pos = [i for i, v in enumerate(vals) if v > 0]
            neg = [i for i, v in enumerate(vals) if v < 0]
            created: dict[IntVec, int] = {}
            for i in pos:
                for j in neg:
                    common = masks[i] & masks[j]
                    if common.bit_count() < d - len(lines) - 2:
                        continue
                    if any(
                        k != i and k != j and common & masks[k] == common
                        for k in range(len(rays))
                    ):
                        continue
                    # a positive combination is tight exactly where both are
                    created[_combine(vals[i], rays[j], vals[j], rays[i])] = common | bit
            keep = [i for i, v in enumerate(vals) if v <= 0]
            rays = [rays[i] for i in keep] + list(created)
            masks = [
                masks[i] | (bit if vals[i] == 0 else 0) for i in keep
            ] + list(created.values())
        else:
            masks = [m | (bit if v == 0 else 0) for m, v in zip(masks, vals)]
    if lines:
        raise GeometryError("cone is not pointed")
    return rays


def cone_rays(rows: Sequence[Sequence[int]], d: int) -> tuple[list[IntVec], list[IntVec]]:
    """(lineality basis, extreme rays) of {x in R^d : r·x <= 0 for r in rows}."""
    clean = [tuple(r) for r in rows if any(r)]
    if rank(clean, d) == d:
        return [], _pointed_cone_rays(clean, d)
    lines = [scale_primitive(v) for v in nullspace(clean, d)]
    # quotient by the lineality space: work in its orthogonal complement
    comp = [scale_primitive(w) for w in nullspace(lines, d)]
    if not comp:
        return lines, []
    sub_rows = [tuple(dot(r, w) for w in comp) for r in clean]
    sub_rays = _pointed_cone_rays([r for r in sub_rows if any(r)], len(comp))
    rays = []
    for t in sub_rays:
        vec = [sum(t[j] * comp[j][c] for j in range(len(comp))) for c in range(d)]
        rays.append(scale_primitive(vec))
    return lines, rays


def _canon_ineq(a: Sequence, b) -> Inequality:
    prim = scale_primitive(a)
    # recover the scale factor applied to a so b transforms identically
    for orig, scaled in zip(a, prim):
        if scaled != 0:
            factor = Fraction(scaled, 1) / Fraction(orig)
            break
    return prim, Fraction(b) * factor


def _h_to_v(
    ineqs: Sequence[tuple[Sequence, object]], dim: int
) -> tuple[list[Point], list[IntVec]]:
    """Generators of {x : a·x <= b}.  Raises on lineality, ([], []) if empty."""
    rows: list[IntVec] = []
    for a, b in ineqs:
        row = tuple(a) + (-Fraction(b),)
        if any(row):
            rows.append(scale_primitive(row))
        elif Fraction(b) < 0:
            return [], []  # 0 <= b with negative b: infeasible
    rows.append((0,) * dim + (-1,))
    lines, crays = cone_rays(rows, dim + 1)
    if lines:
        # every lineality direction has homogenizing coordinate 0, so it is
        # either a line of the polyhedron or spurious if the set is empty
        xlines = [l[:-1] for l in lines]
        comp = [scale_primitive(w) for w in nullspace(xlines, dim)]
        if comp:
            sub = [(tuple(dot(a, w) for w in comp), b) for a, b in ineqs]
            vs, _ = _h_to_v(sub, len(comp))
            if not vs:
                return [], []
        raise LinealityError("polyhedron contains a line")
    vertices = []
    recession = []
    for ray in crays:
        t = ray[-1]
        if t > 0:
            vertices.append(tuple(Fraction(c, t) for c in ray[:-1]))
        else:
            recession.append(scale_primitive(ray[:-1]))
    if not vertices:
        return [], []
    return vertices, recession


def _v_to_h(
    points: Sequence[Point], rays: Sequence[Sequence], dim: int
) -> list[Inequality]:
    """Irredundant inequality description of conv(points) + cone(rays).

    Equality constraints appear as paired opposite inequalities.
    """
    rows = [scale_primitive(tuple(p) + (Fraction(1),)) for p in points]
    rows += [tuple(scale_primitive(r)) + (0,) for r in rays]
    lines, crays = cone_rays(rows, dim + 1)
    out: dict[Inequality, None] = {}
    for l in lines:
        a, c = l[:-1], l[-1]
        if not any(a):
            continue
        out[_canon_ineq(a, -c)] = None
        out[_canon_ineq([-x for x in a], c)] = None
    for r in crays:
        a, c = r[:-1], r[-1]
        if not any(a):
            continue
        out[_canon_ineq(a, -c)] = None
    return sorted(out)


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
        a, b = _canon_ineq(normal, offset)
        lead = next(x for x in a if x != 0)
        if lead < 0:
            a, b = tuple(-x for x in a), -b
        return Hyperplane(a, b)

    def has_integer_point(self) -> bool:
        # with a coprime integer normal, Bezout gives a point iff offset is integer
        return self.offset.denominator == 1

    def evaluate(self, point: Sequence) -> Fraction:
        return dot(self.normal, as_point(point)) - self.offset


# ---------------------------------------------------------------------------
# the polyhedron type


@dataclass(frozen=True)
class Polyhedron:
    """Rational polyhedron with both representations kept synchronized.

    ``vertices`` are Fraction tuples, ``rays`` coprime integer direction
    vectors, ``inequalities`` canonical (coprime integer normal, rational
    offset) rows.  All three are sorted, so ``==`` decides set equality.
    """

    dim: int
    vertices: tuple[Point, ...]
    rays: tuple[IntVec, ...]
    inequalities: tuple[Inequality, ...]

    # -- construction -----------------------------------------------------

    @staticmethod
    def empty(dim: int) -> "Polyhedron":
        _check_dim(dim)
        return Polyhedron(dim, (), (), (((0,) * dim, Fraction(-1)),))

    @staticmethod
    def from_generators(points: Sequence[Sequence], rays: Sequence[Sequence] = ()) -> "Polyhedron":
        pts = [as_point(p) for p in points]
        dims = {len(p) for p in pts} | {len(r) for r in rays}
        if len(dims) > 1:
            raise GeometryError("generators have mismatched dimensions")
        if not pts:
            if not dims:
                raise GeometryError("cannot infer dimension from empty input")
            return Polyhedron.empty(dims.pop())
        dim = dims.pop()
        _check_dim(dim)
        ineqs = _v_to_h(pts, [as_point(r) for r in rays], dim)
        verts, recession = _h_to_v(ineqs, dim)
        return Polyhedron(
            dim, tuple(sorted(verts)), tuple(sorted(recession)), tuple(ineqs)
        )

    @staticmethod
    def from_inequalities(ineqs: Sequence[tuple[Sequence, object]], dim: int) -> "Polyhedron":
        _check_dim(dim)
        verts, recession = _h_to_v(
            [(as_point(a), Fraction(b)) for a, b in ineqs], dim
        )
        if not verts:
            return Polyhedron.empty(dim)
        canon = _v_to_h(verts, recession, dim)
        return Polyhedron(
            dim, tuple(sorted(verts)), tuple(sorted(recession)), tuple(canon)
        )

    # -- basic predicates --------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    @property
    def is_bounded(self) -> bool:
        return not self.rays

    def contains(self, point: Sequence) -> bool:
        p = as_point(point)
        if len(p) != self.dim:
            raise GeometryError("point dimension mismatch")
        if self.is_empty:
            return False
        return all(dot(a, p) <= b for a, b in self.inequalities)

    def equalities(self) -> list[Hyperplane]:
        seen = set(self.inequalities)
        eqs = []
        for a, b in self.inequalities:
            na = tuple(-x for x in a)
            if (na, -b) in seen:
                h = Hyperplane.make(a, b)
                if h not in eqs:
                    eqs.append(h)
        return eqs

    def facet_inequalities(self) -> list[Inequality]:
        seen = set(self.inequalities)
        return [
            (a, b)
            for a, b in self.inequalities
            if (tuple(-x for x in a), -b) not in seen
        ]

    def affine_dim(self) -> int:
        if self.is_empty:
            return -1
        return self.dim - len(self.equalities())

    def relint_contains(self, point: Sequence) -> bool:
        """Membership in the relative interior."""
        p = as_point(point)
        if self.is_empty:
            return False
        return all(dot(h.normal, p) == h.offset for h in self.equalities()) and all(
            dot(a, p) < b for a, b in self.facet_inequalities()
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
        rows = list(self.inequalities) + [(as_point(a), Fraction(b))]
        return Polyhedron.from_inequalities(rows, self.dim)

    def intersect(self, other: "Polyhedron") -> "Polyhedron":
        if self.dim != other.dim:
            raise GeometryError("dimension mismatch in intersection")
        rows = list(self.inequalities) + list(other.inequalities)
        return Polyhedron.from_inequalities(rows, self.dim)

    def contains_polyhedron(self, other: "Polyhedron") -> bool:
        if other.is_empty:
            return True
        return all(self.contains(v) for v in other.vertices) and all(
            all(dot(a, r) <= 0 for a, b in self.inequalities) for r in other.rays
        )


# ---------------------------------------------------------------------------
# module operations


def convex_hull(points: Sequence[Sequence], rays: Sequence[Sequence] = ()) -> Polyhedron:
    """Hull of the given points plus conic combinations of the rays."""
    if not points and not rays:
        raise GeometryError("convex_hull of empty input needs a dimension; use Polyhedron.empty")
    return Polyhedron.from_generators(points, rays)


def lattice_points(p: Polyhedron) -> list[Point]:
    """All integer points of a bounded polyhedron, sorted lexicographically."""
    if p.is_empty:
        return []
    if p.rays:
        raise GeometryError("refusing to enumerate integer points of an unbounded set")
    box = p.bounding_box()
    lo = [ceil(b[0]) for b in box]
    hi = [floor(b[1]) for b in box]
    results: list[Point] = []
    ineqs = p.inequalities

    def recurse(prefix: list[int], depth: int) -> None:
        if depth == p.dim:
            results.append(tuple(Fraction(c) for c in prefix))
            return
        lo_k, hi_k = Fraction(lo[depth]), Fraction(hi[depth])
        for a, b in ineqs:
            c = a[depth]
            if c == 0:
                continue
            rem = b - sum(a[i] * prefix[i] for i in range(depth))
            # bound the contribution of the still-free coordinates
            tail = Fraction(0)
            for j in range(depth + 1, p.dim):
                if a[j] > 0:
                    tail += a[j] * box[j][0]
                elif a[j] < 0:
                    tail += a[j] * box[j][1]
            limit = (rem - tail) / c
            if c > 0:
                hi_k = min(hi_k, limit)
            else:
                lo_k = max(lo_k, limit)
        start, stop = ceil(lo_k), floor(hi_k)
        for v in range(start, stop + 1):
            prefix.append(v)
            recurse(prefix, depth + 1)
            prefix.pop()

    recurse([], 0)
    return [q for q in results if p.contains(q)]


def affine_hull(p: Polyhedron) -> tuple[int, list[Hyperplane]]:
    if p.is_empty:
        raise GeometryError("affine hull of the empty polyhedron is undefined")
    return p.affine_dim(), p.equalities()


def integer_solve(rows: Sequence[tuple[Sequence[int], int]]) -> Optional[IntVec]:
    """An integer solution of the equality system {a_i·x = b_i}, if any."""
    return integer_solve_rows([(tuple(int(x) for x in a), int(b)) for a, b in rows])


def apply_unimodular(p: Polyhedron, u: Sequence[Sequence[int]], shift: Sequence[int]) -> Polyhedron:
    """Image of p under x -> U x + shift for a unimodular integer matrix U."""
    rows = [tuple(int(x) for x in r) for r in u]
    if len(rows) != p.dim or any(len(r) != p.dim for r in rows):
        raise GeometryError("transformation matrix shape mismatch")
    if abs(det(rows)) != 1:
        raise GeometryError("transformation matrix is not unimodular")
    t = as_point(shift)
    if p.is_empty:
        return p
    verts = [
        tuple(dot(rows[i], v) + t[i] for i in range(p.dim)) for v in p.vertices
    ]
    rays = [tuple(dot(rows[i], r) for i in range(p.dim)) for r in p.rays]
    return Polyhedron.from_generators(verts, rays)


def interior_integer_point(p: Polyhedron) -> Optional[Point]:
    """An integer point in the relative interior of a bounded p, if one exists."""
    for q in lattice_points(p):
        if p.relint_contains(q):
            return q
    return None


def require_lattice_free(p: Polyhedron) -> None:
    witness = interior_integer_point(p)
    if witness is not None:
        raise NotLatticeFreeError(witness)
