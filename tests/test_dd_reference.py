"""The kept double description against the two-pass reference conversion.

The reference below is the conversion the kept state replaced: each
constructor runs a full V->H pass and then a full H->V pass (or the
reverse), an intersection redoes the double description over the rows
of both operands, and ``apply_split`` slices each side with a fresh
H->V pass.  It differs from the old code in one place only: a row
0·x <= b with b < 0 gives the empty set, where the old pass raised
``LinealityError`` when no other row bounded anything.
"""

from fractions import Fraction
from math import gcd

import pytest

from splitlab.geometry import (
    GeometryError,
    LinealityError,
    Polyhedron,
    _canon_ineq,
    as_point,
    cone_rays,
)
from splitlab.linalg import dot, nullspace, scale_primitive
from splitlab.splits import Split, apply_split, embed_normal

from conftest import make_rng

F = Fraction


def _ref_h_to_v(ineqs, dim):
    rows = []
    for a, b in ineqs:
        if not any(a) and F(b) < 0:
            return [], []
        row = tuple(a) + (-F(b),)
        if any(row):
            rows.append(scale_primitive(row))
    rows.append((0,) * dim + (-1,))
    lines, crays = cone_rays(rows, dim + 1)
    if lines:
        xlines = [l[:-1] for l in lines]
        comp = [scale_primitive(w) for w in nullspace(xlines, dim)]
        if comp:
            sub = [(tuple(dot(a, w) for w in comp), b) for a, b in ineqs]
            vs, _ = _ref_h_to_v(sub, len(comp))
            if not vs:
                return [], []
        raise LinealityError("polyhedron contains a line")
    vertices = [tuple(F(c, r[-1]) for c in r[:-1]) for r in crays if r[-1] > 0]
    recession = [scale_primitive(r[:-1]) for r in crays if r[-1] == 0]
    if not vertices:
        return [], []
    return vertices, recession


def _ref_v_to_h(points, rays, dim):
    rows = [scale_primitive(tuple(p) + (F(1),)) for p in points]
    rows += [tuple(scale_primitive(r)) + (0,) for r in rays]
    lines, crays = cone_rays(rows, dim + 1)
    out = {}
    for l in lines:
        a, c = l[:-1], l[-1]
        if any(a):
            out[_canon_ineq(a, -c)] = None
            out[_canon_ineq([-x for x in a], c)] = None
    for r in crays:
        a, c = r[:-1], r[-1]
        if any(a):
            out[_canon_ineq(a, -c)] = None
    return sorted(out)


def ref_from_generators(points, rays=()):
    pts = [as_point(p) for p in points]
    rays = [as_point(r) for r in rays]
    if not all(any(r) for r in rays):
        raise GeometryError("ray must be nonzero")
    dims = {len(p) for p in pts} | {len(r) for r in rays}
    if len(dims) > 1:
        raise GeometryError("generators have mismatched dimensions")
    if not pts:
        return Polyhedron.empty(dims.pop())
    dim = dims.pop()
    ineqs = _ref_v_to_h(pts, rays, dim)
    verts, recession = _ref_h_to_v(ineqs, dim)
    return Polyhedron(dim, tuple(sorted(verts)), tuple(sorted(recession)), tuple(ineqs))


def ref_from_inequalities(ineqs, dim):
    verts, recession = _ref_h_to_v([(as_point(a), F(b)) for a, b in ineqs], dim)
    if not verts:
        return Polyhedron.empty(dim)
    canon = _ref_v_to_h(verts, recession, dim)
    return Polyhedron(dim, tuple(sorted(verts)), tuple(sorted(recession)), tuple(canon))


def ref_intersect(p, q):
    return ref_from_inequalities(list(p.inequalities) + list(q.inequalities), p.dim)


def ref_intersect_halfspace(p, a, b):
    return ref_from_inequalities(list(p.inequalities) + [(a, b)], p.dim)


def _ref_halfspace_generators(q, a, b):
    verts = [v for v in q.vertices if dot(a, v) <= b]
    rays = [r for r in q.rays if dot(a, r) <= 0]
    if len(verts) == len(q.vertices) and len(rays) == len(q.rays):
        return verts, rays
    rows = list(q.inequalities) + [(a, b), (tuple(-x for x in a), -b)]
    slice_verts, slice_rays = _ref_h_to_v(rows, q.dim)
    return verts + slice_verts, rays + slice_rays


def ref_apply_split(q, s):
    if q.is_empty:
        return q
    a = embed_normal(s.pi, q.dim, None)
    lo, hi = s.pi0, s.pi0 + 1
    vals = [dot(a, v) for v in q.vertices]
    ray_vals = [dot(a, r) for r in q.rays]
    if all(v <= lo or v >= hi for v in vals):
        if all(v <= lo for v in vals) and all(rv <= 0 for rv in ray_vals):
            return q
        if all(v >= hi for v in vals) and all(rv >= 0 for rv in ray_vals):
            return q
        if q.is_bounded:
            return q
    verts_lo, rays_lo = _ref_halfspace_generators(q, a, lo)
    verts_hi, rays_hi = _ref_halfspace_generators(q, tuple(-x for x in a), -hi)
    verts = list(dict.fromkeys(verts_lo + verts_hi))
    rays = list(dict.fromkeys(rays_lo + rays_hi))
    if not verts:
        return Polyhedron.empty(q.dim)
    return ref_from_generators(verts, rays)


def _outcome(fn, *args):
    try:
        p = fn(*args)
    except GeometryError as e:
        return type(e), str(e)
    return p.dim, p.vertices, p.rays, p.inequalities


def _point(rng, d):
    return tuple(F(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))) for _ in range(d))


def _generators(rng, d):
    """Points and rays: full-dimensional, lower-dimensional (a base point
    plus integer combinations of fewer than d directions), sometimes with
    rays, which may be opposite and so give a line."""
    if rng.random() < 0.35:
        base = _point(rng, d)
        dirs = [
            tuple(rng.randint(-2, 2) for _ in range(d))
            for _ in range(rng.randint(1, max(1, d - 1)))
        ]
        pts = [
            tuple(b + sum(rng.randint(-2, 2) * u[i] for u in dirs) for i, b in enumerate(base))
            for _ in range(rng.randint(1, 5))
        ]
    else:
        pts = [_point(rng, d) for _ in range(rng.randint(1, d + 4))]
    rays = []
    if rng.random() < 0.3:
        rays = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(rng.randint(1, 2))]
        rays = [r for r in rays if any(r)]
        if rays and rng.random() < 0.2:
            rays.append(tuple(-x for x in rays[0]))
    return pts, rays


def _inequalities(rng, d):
    """Random rows, sometimes with an opposite (equality) partner, a
    duplicate or a zero normal."""
    rows = [
        (tuple(rng.randint(-3, 3) for _ in range(d)), F(rng.randint(-6, 6), rng.choice((1, 2))))
        for _ in range(rng.randint(0, 2 * d + 2))
    ]
    if rows and rng.random() < 0.25:
        a, b = rows[0]
        rows.append((tuple(-x for x in a), -b + rng.choice((0, 0, 1))))
    if rows and rng.random() < 0.1:
        rows.append(rows[-1])
    if rng.random() < 0.05:
        rows.append(((0,) * d, F(rng.choice((-1, 0, 1)))))
    return rows


def _split(rng, d):
    while True:
        pi = tuple(rng.randint(-2, 2) for _ in range(d))
        if any(pi):
            g = gcd(*pi)
            return Split(tuple(x // g for x in pi), rng.randint(-3, 3))


CASES = 1000


def test_kept_double_description_matches_two_pass_reference():
    rng = make_rng()
    seen = dict.fromkeys(("lower", "rays", "empty", "line", "chained"), 0)
    for case in range(CASES):
        d = rng.randint(1, 4)
        op = case % 5
        if op == 0:
            pts, rays = _generators(rng, d)
            got = _outcome(Polyhedron.from_generators, pts, rays)
            assert got == _outcome(ref_from_generators, pts, rays), (pts, rays)
        elif op == 1:
            rows = _inequalities(rng, d)
            got = _outcome(Polyhedron.from_inequalities, rows, d)
            assert got == _outcome(ref_from_inequalities, rows, d), rows
        else:
            try:
                p = Polyhedron.from_generators(*_generators(rng, d))
                if rng.random() < 0.3:
                    # a state made by an intersection rather than a constructor
                    a, b = (_inequalities(rng, d) or [((1,) * d, F(1))])[0]
                    p = p.intersect_halfspace(a, b)
                    seen["chained"] += 1
            except LinealityError:
                seen["line"] += 1
                continue
            if op == 2:
                q = Polyhedron.from_generators(*_generators(rng, d)[:1])
                got = _outcome(p.intersect, q)
                assert got == _outcome(ref_intersect, p, q), (p, q)
            elif op == 3:
                a, b = (_inequalities(rng, d) or [((0,) * d, F(-1))])[0]
                got = _outcome(p.intersect_halfspace, a, b)
                assert got == _outcome(ref_intersect_halfspace, p, a, b), (p, a, b)
            else:
                s = _split(rng, d)
                got = _outcome(apply_split, p, s)
                assert got == _outcome(ref_apply_split, p, s), (p, s)
        if got[0] is LinealityError:
            seen["line"] += 1
        elif isinstance(got[0], int):
            p = Polyhedron(*got)
            seen["empty"] += p.is_empty
            seen["rays"] += bool(p.rays)
            seen["lower"] += not p.is_empty and p.affine_dim() < p.dim
    # every kind of input and result occurs
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_one_conversion_per_polyhedron(monkeypatch, dim):
    import splitlab.geometry as geometry

    calls = []
    real = geometry.cone_rays

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(geometry, "cone_rays", counted)
    simplex = [(0,) * dim] + [tuple(F(3, 2) * (i == j) for j in range(dim)) for i in range(dim)]
    p = Polyhedron.from_generators(simplex)
    assert calls == [dim + 1]
    cone = Polyhedron.from_generators(simplex, [(-1,) * dim])
    # cuts that leave the set full-dimensional are steps on the kept state
    half = (1,) + (0,) * (dim - 1)
    q = p.intersect_halfspace(half, F(1, 2))
    assert q == ref_intersect_halfspace(p, half, F(1, 2))
    assert cone.intersect(q) == q
    assert calls == [dim + 1] * 2
    # a piece that contains the set leaves it as it is
    assert p.intersect(cone) is p
    # apply_split slices without a conversion and builds the hull with one
    s = apply_split(p, Split(half, 1))
    assert calls == [dim + 1] * 3
    assert s == ref_apply_split(p, Split(half, 1))
