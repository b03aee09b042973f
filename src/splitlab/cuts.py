"""Intersection cuts from lattice-free polytopes.

Given a fractional point f, rays r^1..r^k and a bounded lattice-free
polytope L with f in its interior, the cut coefficient for a ray is the
gauge of L - f evaluated at the ray: the reciprocal of the step at which
the half-line from f exits L.  The cut reads sum(psi_j * s_j) >= 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .geometry import (
    GeometryError,
    Point,
    Polyhedron,
    _over_denominator,
    as_point,
    convex_hull,
    require_lattice_free,
)
from .linalg import dot


@dataclass(frozen=True)
class CornerModel:
    """A fractional point together with the rays of its corner relaxation."""

    f: Point
    rays: tuple[Point, ...]

    @staticmethod
    def make(f: Sequence, rays: Sequence[Sequence]) -> "CornerModel":
        fp = as_point(f)
        if all(c.denominator == 1 for c in fp):
            raise GeometryError("corner point must be fractional")
        rs = tuple(as_point(r) for r in rays)
        for r in rs:
            if len(r) != len(fp):
                raise GeometryError("ray dimension mismatch")
            if not any(r):
                raise GeometryError("rays must be nonzero")
        return CornerModel(fp, rs)

    @property
    def dim(self) -> int:
        return len(self.f)


@dataclass(frozen=True)
class CutCoefficients:
    """Coefficients psi, one per model ray; the cut is sum(psi_j s_j) >= 1."""

    psi: tuple[Fraction, ...]


def gauge(l: Polyhedron, f: Sequence, r: Sequence) -> Fraction:
    """psi(r) = 1/max{lambda >= 0 : f + lambda r in L}.

    Computed by exact ray-facet intersection on L's integer rows a·x + c
    <= 0: the exit step is the least positive crossing parameter over the
    rows the ray moves toward, so psi is the largest reciprocal.  With
    f = F/d and r = R/e over common denominators, a row with a·R > 0
    gives psi = d·(a·R) / (−e·(a·F + c·d)), whose denominator is positive
    since f is interior; the largest is kept by cross-multiplying.  A
    bounded L with an interior point has no recession direction, so some
    row has a·R > 0 and every nonzero ray exits.
    """
    fp, rp = as_point(f), as_point(r)
    if not l.is_bounded:
        raise GeometryError("gauge requires a bounded set")
    if not any(rp):
        raise GeometryError("gauge of the zero ray is undefined")
    if not l.interior_contains(fp):
        raise GeometryError("reference point must lie in the interior")
    (F, d), (R, e) = _over_denominator(fp), _over_denominator(rp)
    h = (*F, d)
    num, den = 0, 1
    for row in l.rows:
        slope = dot(row[:-1], R)
        if slope > 0:
            top, bottom = d * slope, -e * dot(row, h)
            if top * den > num * bottom:
                num, den = top, bottom
    return Fraction(num, den)


def boundary_point(l: Polyhedron, f: Sequence, r: Sequence) -> Point:
    """Where the half-line from f along r crosses the boundary of L."""
    fp, rp = as_point(f), as_point(r)
    lam = 1 / gauge(l, fp, rp)
    return tuple(x + lam * y for x, y in zip(fp, rp))


def intersection_cut(model: CornerModel, l: Polyhedron) -> CutCoefficients:
    """Cut coefficients of the L-cut for every ray of the model."""
    require_lattice_free(l)
    return CutCoefficients(tuple(gauge(l, model.f, r) for r in model.rays))


def boundary_hull(model: CornerModel, l: Polyhedron) -> Polyhedron:
    """Convex hull of the ray boundary points of L; L itself when it is.

    The points lie in L, so their hull is L exactly when they include
    every vertex of L.  L is then returned as it is, without a conversion
    pass, and it keeps its cached views, such as its lattice scan.  An f
    outside L's interior is refused by ``gauge``, at the first ray."""
    pts = [boundary_point(l, model.f, r) for r in model.rays]
    return l if set(pts) >= set(l.vertices) else convex_hull(pts)
