"""The closed-form 2D sweep against the scan it replaced.

The reference ``ref_sweep`` is the earlier ``sweep_sequence_2d`` with its
start line corrected: it finds the start line by scanning k downward from
a cap for the first line through the endpoint that meets the upper part
only at the endpoint (a line along a facet does not), and the apex
sector by scanning k upward from minus the cap with triangle and segment
tests.  The cap, 8·(extent + 2)·scale + 8, grows with the body's
coordinates; when the answer lies outside it, the scan fails with one of
the two messages in ``CAP_ONLY``.  The closed form has no such cap but a
budget on the sweep's length: the number of lines in the window [−cap,
cap], with the extent measured from the endpoint.  A refusal by that
budget passes only where the scan hits its cap.  At the default seed all 200 configurations give a sequence, 198 equal
to the reference's and 2 where only the reference hits its cap.
"""

from fractions import Fraction
from math import ceil
from typing import Optional

import pytest

from splitlab.geometry import GeometryError, Polyhedron, apply_unimodular, as_point, convex_hull
from splitlab.linalg import dot, integer_solve_rows, scale_primitive
from splitlab.splits import (
    Split,
    SplitSequence,
    apply_split,
    embed_normal,
    sweep_sequence_2d,
)

from conftest import contains, make_rng
from test_properties import invert_unimodular, random_unimodular, transport_split

F = Fraction

CAP_ONLY = ("sweep failed to find an empty starting line", "sweep failed to locate the apex sector")


def _line_meets_only_at(p, base, direction) -> bool:
    """True iff the line base + t·direction meets p, which holds base, in
    base alone."""
    tlo: Optional[Fraction] = None
    thi: Optional[Fraction] = None
    for a, b in p.inequalities:
        slope = dot(a, direction)
        if slope > 0:
            t = Fraction(b - dot(a, base), slope)
            thi = t if thi is None else min(thi, t)
        elif slope < 0:
            t = Fraction(b - dot(a, base), slope)
            tlo = t if tlo is None else max(tlo, t)
    return tlo == thi == 0


def _point_in_closed_triangle(p, a, b, c) -> bool:
    def cross(o, u, v):
        return (u[0] - o[0]) * (v[1] - o[1]) - (u[1] - o[1]) * (v[0] - o[0])

    d1, d2, d3 = cross(a, b, p), cross(b, c, p), cross(c, a, p)
    has_neg = d1 < 0 or d2 < 0 or d3 < 0
    has_pos = d1 > 0 or d2 > 0 or d3 > 0
    return not (has_neg and has_pos)


def _point_on_segment(p, a, b) -> bool:
    cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
    if cross != 0:
        return False
    t_num = [(p[i] - a[i]) for i in range(2)]
    seg = [(b[i] - a[i]) for i in range(2)]
    return 0 <= dot(t_num, seg) <= dot(seg, seg)


def _choose_translation(pi, u):
    d0 = integer_solve_rows([(pi, 1)])
    k0 = round(Fraction(-dot(d0, u), dot(u, u)))
    anchor = tuple(d0[i] + k0 * u[i] for i in range(2))
    span = 2 * max(abs(x) for x in anchor) + 2
    best = None
    for k in range(k0 - span, k0 + span + 1):
        cand = tuple(d0[i] + k * u[i] for i in range(2))
        key = (max(abs(x) for x in cand), cand)
        if best is None or key < best:
            best = key
    return best[1]


def _sweep_scan_bound(qbar, p, a0, u, d) -> int:
    coords = [abs(c) for v in list(qbar.vertices) + [p, a0] for c in v]
    extent = max(coords) if coords else Fraction(1)
    scale = max(max(abs(x) for x in u), max(abs(x) for x in d), 1)
    return 8 * (ceil(extent) + 2) * scale + 8


def ref_sweep(q: Polyhedron, chv: Split, p) -> SplitSequence:
    """The scanning sweep, with its cap, for 2D q and a 2-coordinate p."""
    pp = as_point(p)
    pi, pi0 = chv.pi, chv.pi0
    a = embed_normal(pi, 2)
    vals = [dot(a, v) for v in q.vertices]
    if any(dot(a, r) > 0 for r in q.rays) or max(vals) >= pi0 + 1:
        raise GeometryError("not Chvatal")
    if max(vals) <= pi0 and all(dot(a, r) <= 0 for r in q.rays):
        return SplitSequence.make([], [])
    seg = q.intersect_halfspace(a, F(pi0)).intersect_halfspace(tuple(-x for x in a), F(-pi0))
    if seg.is_empty or seg.affine_dim() != 1 or not seg.is_bounded:
        raise GeometryError("not a segment")
    if not (F(pi0) < dot(a, pp) < F(pi0 + 1)):
        raise GeometryError("apex not between the planes")
    end0, end1 = seg.vertices
    if any(c.denominator != 1 for e in (end0, end1) for c in e):
        raise GeometryError("endpoint not integer")
    qbar = q.intersect_halfspace(tuple(-x for x in a), F(-pi0))

    splits: list[Split] = []
    current = q
    for a0, a1 in ((end0, end1), (end1, end0)):
        u = scale_primitive(tuple(x - y for x, y in zip(a1, a0)))
        if not contains(seg, tuple(a0[i] + u[i] for i in range(2))):
            raise GeometryError("segment too short")
        d = _choose_translation(pi, u)
        kmax = _sweep_scan_bound(qbar, pp, a0, u, d)
        ell = None
        for k in range(kmax, -kmax - 1, -1):
            if _line_meets_only_at(qbar, a0, (d[0] + k * u[0], d[1] + k * u[1])):
                ell = k
                break
        if ell is None:
            raise GeometryError(CAP_ONLY[0])
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
            raise GeometryError(CAP_ONLY[1])
        for k in range(ell, t + 1):
            direction = (d[0] + k * u[0], d[1] + k * u[1])
            n = (-direction[1], direction[0])
            if dot(n, u) < 0:
                n = (-n[0], -n[1])
            s = Split.make(n, int(dot(n, a0))).canonical()
            splits.append(s)
            current = apply_split(current, s)

    pyramid = Polyhedron.from_generators([pp, end0, end1])
    upper = current.intersect_halfspace(tuple(-x for x in a), F(-pi0))
    if not pyramid.contains_polyhedron(upper):
        raise GeometryError("postcondition")
    return SplitSequence.make(splits, ["sweep"] * len(splits))


def _rational(rng, lo: int, hi: int) -> Fraction:
    den = rng.randint(1, 4)
    return F(rng.randint(lo * den, hi * den), den)


def _draw(rng):
    """A body q with the segment [0, L] x {0} as its section by y = 0,
    upper points with 0 < y < 1 and lower points, and an apex inside q
    above y = 0; None when the hull's section is not that segment."""
    length = rng.randint(1, 4)
    upper = []
    for _ in range(rng.randint(1, 3)):
        den = rng.randint(2, 8)
        upper.append((_rational(rng, -1, length + 1), F(rng.randint(1, den - 1), den)))
    lower = [(_rational(rng, -1, length + 1), -_rational(rng, 1, 3)) for _ in range(rng.randint(1, 3))]
    q = convex_hull([(0, 0), (length, 0), *upper, *lower])
    section = q.intersect_halfspace((0, 1), 0).intersect_halfspace((0, -1), 0)
    if section.vertices != ((0, 0), (length, 0)):
        return None
    # a positive combination of all vertices of the upper part is interior
    top = q.intersect_halfspace((0, -1), 0).vertices
    weights = [rng.randint(1, 4) for _ in top]
    apex = tuple(sum(w * v[i] for w, v in zip(weights, top)) / sum(weights) for i in range(2))
    return q, apex


def test_sweep_matches_the_scan_on_unimodular_images():
    rng = make_rng()
    chv = Split.make((0, 1), 0)
    swept = refused = 0
    while swept + refused < 200:
        drawn = _draw(rng)
        if drawn is None:
            continue
        q, apex = drawn
        u = random_unimodular(rng, 2)
        shift = (rng.randint(-3, 3), rng.randint(-3, 3))
        image = apply_unimodular(q, u, shift)
        split = transport_split(chv, invert_unimodular(u), shift)
        point = tuple(dot(row, apex) + c for row, c in zip(u, shift))
        try:
            want = ref_sweep(image, split, point)
        except GeometryError as exc:
            if str(exc) not in CAP_ONLY:
                refused += 1
                with pytest.raises(GeometryError):
                    sweep_sequence_2d(image, split, point)
                continue
            want = None  # beyond the scan's cap
        try:
            got = sweep_sequence_2d(image, split, point)
        except GeometryError as exc:
            assert want is None and "more than its budget" in str(exc)
            refused += 1
            continue
        assert want is None or got == want
        swept += 1
    assert swept >= 190


def test_budget_admits_what_the_scan_completes():
    # 73 splits from the endpoint (7, -1): past 8·(extent + 2)·scale + 8 = 56
    # there, but inside the scan's window, where the scan completes
    q = convex_hull([(3, -1), (F(9, 2), -2), (F(23, 4), F(-5, 6)), (7, -1)])
    chv, apex = Split.make((0, 1), -1), (F(115, 24), F(-35, 36))
    got = sweep_sequence_2d(q, chv, apex)
    assert len(got.splits) == 122
    assert got == ref_sweep(q, chv, apex)
