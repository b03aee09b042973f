"""The kept double description against the two-pass reference conversion.

The reference below is the conversion the kept state replaced: each
constructor runs a full V->H pass and then a full H->V pass (or the
reverse), an intersection redoes the double description over the rows
of both operands, and ``apply_split`` slices each side with a fresh
H->V pass and takes the hull of the pieces with a fresh conversion of
their generators, and a round of splits intersects those hulls one split
at a time.  It differs from the old code in two places: a row 0·x <= b
with b < 0 gives the empty set, where the old pass raised
``LinealityError`` when no other row bounded anything, and a V->H row
tight on no generator (a point's polar has one) is dropped.  Its cone
conversion ``_ref_cone_rays`` is the quotient pass that ``cone_rays``
replaced: rank-deficient rows take the double description in the
orthogonal complement of their nullspace.  The 2-hyperplane check is
compared with the face-by-face procedure that one incidence replaced:
faces from the facets' tight vertex sets, each a fresh hull, facet
containment by Fraction dot products and a lattice-point scan per face.
The 2D classification is compared with the one on the Fraction views of
the facets and vertices that the integer rows and corners replaced.
"""

from fractions import Fraction
from math import floor, gcd
from typing import NamedTuple

import pytest

from splitlab.certify import (
    FaceEntry,
    TwoHPReport,
    classify_2d,
    has_2hyperplane_property,
    is_2partitionable,
)
from splitlab.geometry import (
    GeometryError,
    LinealityError,
    Polyhedron,
    _pointed_cone_rays,
    as_point,
    cone_rays,
    convex_hull,
    interior_integer_point,
    lattice_points,
    require_lattice_free,
)
from splitlab.cuts import CornerModel, boundary_point
from splitlab.linalg import _echelon, dot, rank, scale_primitive
from splitlab.ranks import EnumerateStrategy, height_at, lift, max_height
from splitlab.splits import Split, apply_round, apply_split, embed_normal

from conftest import _reference_nullspace, all_faces, make_rng

F = Fraction


class Ref(NamedTuple):
    """A reference result: the sorted views that the library's polyhedron
    of the same set has, compared as a plain tuple."""

    dim: int
    vertices: tuple
    rays: tuple
    inequalities: tuple

    @property
    def is_empty(self):
        return not self.vertices

    @property
    def is_bounded(self):
        return not self.rays


def _empty(dim):
    return Ref(dim, (), (), (((0,) * dim, F(-1)),))


def _state(p):
    """The views of a library polyhedron or a reference result."""
    return Ref(p.dim, p.vertices, p.rays, p.inequalities)


def _canon_ineq(a, b):
    """a·x <= b scaled to a coprime integer normal."""
    prim = scale_primitive(a)
    # recover the scale factor applied to a so b transforms identically
    for orig, scaled in zip(a, prim):
        if scaled != 0:
            factor = Fraction(scaled, 1) / Fraction(orig)
            break
    return prim, Fraction(b) * factor


def _ref_cone_rays(rows, d, masks=None):
    """(lineality basis, extreme rays) of {x : r·x <= 0 for r in rows}; a
    given ``masks`` list receives each ray's tight set over the nonzero
    rows.  Rank-deficient rows are projected onto the orthogonal complement
    of their nullspace, converted there and mapped back."""
    clean = [tuple(r) for r in rows if any(r)]
    if rank(clean, d) == d:
        _, rays, tight = _pointed_cone_rays(clean, d)
        if masks is not None:
            masks.extend(tight)
        return [], rays
    lines = [scale_primitive(v) for v in _reference_nullspace(clean, d)]
    comp = [scale_primitive(w) for w in _reference_nullspace(lines, d)]
    if not comp:
        return lines, []
    sub_rows = [tuple(dot(r, w) for w in comp) for r in clean]
    _, sub_rays, tight = _pointed_cone_rays(sub_rows, len(comp))
    if masks is not None:
        masks.extend(tight)
    rays = []
    for t in sub_rays:
        vec = [sum(t[j] * comp[j][c] for j in range(len(comp))) for c in range(d)]
        rays.append(scale_primitive(vec))
    return lines, rays


def _ref_h_to_v(ineqs, dim):
    rows = []
    for a, b in ineqs:
        if not any(a) and F(b) < 0:
            return [], []
        row = tuple(a) + (-F(b),)
        if any(row):
            rows.append(scale_primitive(row))
    rows.append((0,) * dim + (-1,))
    lines, crays = _ref_cone_rays(rows, dim + 1)
    if lines:
        xlines = [l[:-1] for l in lines]
        comp = [scale_primitive(w) for w in _reference_nullspace(xlines, dim)]
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
    lines, crays = _ref_cone_rays(rows, dim + 1)
    out = {}
    for l in lines:
        a, c = l[:-1], l[-1]
        if any(a):
            out[_canon_ineq(a, -c)] = None
            out[_canon_ineq([-x for x in a], c)] = None
    for r in crays:
        a, c = r[:-1], r[-1]
        # a ray tight on no generator is not a facet
        if any(a) and any(dot(r, g) == 0 for g in rows):
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
        return _empty(dims.pop())
    dim = dims.pop()
    ineqs = _ref_v_to_h(pts, rays, dim)
    verts, recession = _ref_h_to_v(ineqs, dim)
    return Ref(dim, tuple(sorted(verts)), tuple(sorted(recession)), tuple(ineqs))


def ref_from_inequalities(ineqs, dim):
    verts, recession = _ref_h_to_v([(as_point(a), F(b)) for a, b in ineqs], dim)
    if not verts:
        return _empty(dim)
    canon = _ref_v_to_h(verts, recession, dim)
    return Ref(dim, tuple(sorted(verts)), tuple(sorted(recession)), tuple(canon))


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
    a = embed_normal(s.pi, q.dim)
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
        return _empty(q.dim)
    return ref_from_generators(verts, rays)


def ref_apply_round(q, splits):
    """Each split's hull from scratch, intersected one split at a time."""
    out = q
    for s in splits:
        out = ref_intersect(out, ref_apply_split(q, s))
    return out


def _outcome(fn, *args):
    """The views of fn(*args), or its error.  A library polyhedron must
    keep its incidence: bit k of masks[i] is set iff rows[k]·gens[i] = 0."""
    try:
        p = fn(*args)
    except GeometryError as e:
        return type(e), str(e)
    if isinstance(p, Polyhedron):
        assert len(p.masks) == len(p.gens)
        for g, m in zip(p.gens, p.masks):
            assert m >> len(p.rows) == 0
            assert [m >> k & 1 for k in range(len(p.rows))] == [dot(r, g) == 0 for r in p.rows]
    return _state(p)


def _point(rng, d):
    return tuple(F(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))) for _ in range(d))


def _on_span(rng, base, dirs):
    """base plus a random integer combination of dirs."""
    cs = [rng.randint(-2, 2) for _ in dirs]
    return tuple(b + sum(c * u[i] for c, u in zip(cs, dirs)) for i, b in enumerate(base))


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
        pts = [_on_span(rng, base, dirs) for _ in range(rng.randint(1, 5))]
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


def _cone_rows(rng, d):
    """Rows from a random subspace, often of dimension < d, then sometimes
    free rows, with duplicate, negated and zero rows."""
    basis = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(rng.randint(0, d))]
    rows = [
        tuple(sum(rng.randint(-2, 2) * b[i] for b in basis) for i in range(d))
        for _ in range(rng.randint(0, 6))
    ]
    if rng.random() < 0.4:
        rows += [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(1, 5))]
    if rows and rng.random() < 0.3:
        rows.append(rng.choice(rows))
    if rows and rng.random() < 0.3:
        rows.append(tuple(-x for x in rng.choice(rows)))
    if rng.random() < 0.1:
        rows.insert(rng.randint(0, len(rows)), (0,) * d)
    return rows


def _lower_dim_generators(rng, d):
    """Homogeneous generators (p, 1) of points on a random proper affine
    subspace of R^d: the V->H input of a lower-dimensional polytope."""
    base = _point(rng, d)
    dirs = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(rng.randint(0, d - 1))]
    pts = [_on_span(rng, base, dirs) for _ in range(rng.randint(1, 6))]
    return list(dict.fromkeys(scale_primitive(p + (1,)) for p in pts))


def _over_all_rows(masks, rows):
    """Masks over the nonzero rows re-indexed over all rows: a zero row is
    tight on every ray."""
    nonzero = [i for i, r in enumerate(rows) if any(r)]
    zero = sum(1 << i for i, r in enumerate(rows) if not any(r))
    return [zero | sum(1 << i for b, i in enumerate(nonzero) if m >> b & 1) for m in masks]


def test_cone_rays_matches_quotient_reference():
    """One double description with its leftover lines put in canonical
    form gives the quotient pass's lineality basis, rays and masks."""
    rng = make_rng()
    seen = dict.fromkeys(("deficient", "negative_D", "skew_rays"), 0)
    inputs = [(_cone_rows(rng, d), d) for d in [1 + case % 5 for case in range(1200)]]
    inputs += [(_lower_dim_generators(rng, d), d + 1) for d in [1 + case % 4 for case in range(300)]]
    for rows, d in inputs:
        got_masks, ref_masks = [], []
        got = cone_rays(rows, d, got_masks)
        ref = _ref_cone_rays(rows, d, ref_masks)
        assert got == ref, (rows, d)
        assert got_masks == _over_all_rows(ref_masks, rows), (rows, d)
        # the double description's own lines and rays, before canonical form
        lines, rays, _ = _pointed_cone_rays([tuple(r) for r in rows], d)
        if lines:
            seen["deficient"] += 1
            seen["negative_D"] += _echelon([l[::-1] for l in lines], d)[2] < 0
            seen["skew_rays"] += any(dot(l, r) for l in lines for r in rays)
    assert seen["deficient"] >= 300 and min(seen.values()) >= 50, seen


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
            _, verts, rays, ineqs = got
            seen["empty"] += not verts
            seen["rays"] += bool(rays)
            # an equality is a pair of opposite rows
            seen["lower"] += bool(verts) and any(
                (tuple(-x for x in a), -b) in ineqs for a, b in ineqs
            )
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
    assert _state(q) == ref_intersect_halfspace(p, half, F(1, 2))
    assert cone.intersect(q) == q
    assert calls == [dim + 1] * 2
    # a piece that contains the set leaves it as it is
    assert p.intersect(cone) is p
    # apply_split slices and joins the pieces without a conversion: one
    # piece empty (the far piece of x1 <= 1 or x1 >= 2 misses p) ...
    s = apply_split(p, Split(half, 1))
    assert _state(s) == _state(ref_apply_split(p, Split(half, 1)))
    assert calls == [dim + 1] * 2
    if dim == 1:
        return
    # ... or both full-dimensional, with the vertex e1/2 + e2 between the planes
    e = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    kite = Polyhedron.from_generators(
        [(-1,) + (0,) * (dim - 1), (2,) + (0,) * (dim - 1)]
        + [tuple(F(1, 2) * x + y for x, y in zip(e[0], e[i])) for i in range(1, dim)]
    )
    assert calls == [dim + 1] * 3
    s = apply_split(kite, Split(half, 0))
    assert _state(s) == _state(ref_apply_split(kite, Split(half, 0)))
    assert calls == [dim + 1] * 3
    # two lower-dimensional pieces, the facets x1 = 0 and x1 = 1 of a prism
    # with a bump at x1 = 1/2, take exactly one fresh conversion
    ends = [(0,) * dim] + e[1:]
    bump = Polyhedron.from_generators(
        ends + [tuple(x + y for x, y in zip(e[0], v)) for v in ends]
        + [tuple(F(1, 2) * x - y for x, y in zip(e[0], e[1]))]
    )
    calls.clear()
    s = apply_split(bump, Split(half, 0))
    assert calls == [dim + 1]
    assert _state(s) == _state(ref_apply_split(bump, Split(half, 0)))
    assert s.affine_dim() == dim and s.contains((0,) * dim)


def _slab_body(rng, d, kind):
    """A split (pi, lo) and generators placed by their level s = pi·x
    against its planes s = lo and s = lo + 1:

    - ``cross``: levels on both sides of both planes
    - ``touch_lo`` / ``touch_hi``: one vertex on that plane, the rest
      beyond the other plane or between the two
    - ``slab``: points on both planes and one between, so both pieces are
      lower-dimensional (a bump on a prism whose ends are the pieces)
    - ``miss``: nothing at or below the lo plane, so the lo piece is empty

    Every body has a point strictly between the planes, so the split is
    not skipped as englobing.  Rays run parallel to the planes or, where
    the kind allows, away from the lo plane."""
    s = _split(rng, d)
    lo, pi = s.pi0, s.pi
    x0 = tuple(F(c, dot(pi, pi)) for c in pi)
    frame = [scale_primitive(v) for v in _reference_nullspace([pi], d)]

    def at(level):
        ys = [F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in frame]
        return tuple(level * x0[i] + sum(y * b[i] for y, b in zip(ys, frame)) for i in range(d))

    def levels(a, b, n):
        return [F(rng.randint(4 * a, 4 * b), 4) for _ in range(n)]

    between = lo + F(rng.randint(1, 3), 4)
    if kind == "cross":
        lv = levels(lo - 2, lo + 3, rng.randint(d, d + 4))
    elif kind == "touch_lo":
        lv = [F(lo)] + levels(lo + 1, lo + 3, rng.randint(d, d + 3))
    elif kind == "touch_hi":
        lv = [F(lo + 1)] + levels(lo - 2, lo, rng.randint(d, d + 3))
    elif kind == "slab":
        lv = [F(lo)] * rng.randint(1, d + 1) + [F(lo + 1)] * rng.randint(1, d + 1)
    else:
        lv = levels(lo + 1, lo + 3, rng.randint(d, d + 3))
    pts = [at(level) for level in lv + [between]]
    rays = []
    if frame and rng.random() < 0.35:
        # parallel to the planes, so shared by both pieces
        rays.append(tuple(sum(rng.randint(-2, 2) * b[i] for b in frame) for i in range(d)))
    if kind in ("cross", "touch_lo", "miss") and rng.random() < 0.25:
        rays.append(tuple(pi[i] + sum(rng.randint(-1, 1) * b[i] for b in frame) for i in range(d)))
    return pts, [r for r in rays if any(r)], s


HULL_CASES = 400


def test_hull_paths_match_reference(monkeypatch):
    """Every path of a split's hull rows against the from-scratch reference:
    the polar join seeded from the lo piece or the hi piece, the fresh pass
    for two lower-dimensional pieces, and the slice rows of the one
    nonempty piece when the other is empty."""
    import splitlab.splits as splits

    seen = dict.fromkeys(("seed_lo", "seed_hi", "fallback", "empty", "dup_row", "rays"), 0)
    current = {}

    def watch(path, fn):
        def run(*args):
            if path == "rows":
                current["path"] = None
                out = fn(*args)
                # rows that took neither the join nor the fresh pass are the
                # slice of the one nonempty piece
                taken = current["path"] or ("empty" if out else None)
                if taken:
                    seen[taken] += 1
                return out
            if path == "join":
                a, lo = current["split"]
                side = all(dot(a, g[:-1]) <= lo * g[-1] for g in args[1][0])
                current["path"] = "seed_lo" if side else "seed_hi"
            else:
                current["path"] = path
            return fn(*args)

        return run

    monkeypatch.setattr(splits, "_split_rows", watch("rows", splits._split_rows))
    monkeypatch.setattr(splits, "_join_rows", watch("join", splits._join_rows))
    monkeypatch.setattr(splits, "_from_homogeneous", watch("fallback", splits._from_homogeneous))
    # a tetrahedron with one edge on each plane is the hull of two
    # lower-dimensional pieces
    edges = [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 0, 1)]
    body = Polyhedron.from_generators(edges + [(F(1, 2), -1, 0)])
    current["split"] = ((1, 0, 0), 0)
    s = Split((1, 0, 0), 0)
    assert (
        _state(apply_split(body, s))
        == _state(Polyhedron.from_generators(edges))
        == _state(ref_apply_split(body, s))
    )
    assert seen["fallback"] == 1
    rng = make_rng()
    kinds = ("cross", "touch_lo", "touch_hi", "slab", "miss")
    for case in range(HULL_CASES):
        d = 1 + case % 4
        pts, rays, s = _slab_body(rng, d, kinds[case // 4 % len(kinds)])
        try:
            p = Polyhedron.from_generators(pts, rays)
        except LinealityError:
            continue
        current["split"] = (s.pi, s.pi0)
        seen["rays"] += bool(p.rays)
        got = _outcome(apply_split, p, s)
        assert got == _outcome(ref_apply_split, p, s), (pts, rays, s)
        if p.affine_dim() < d:
            continue
        # a cut row that p already has: the slice keeps p's own generators,
        # tight on the new row where they are on its copy, and a split whose
        # plane carries a facet englobes p
        a, b = rng.choice(p.facet_inequalities())
        if b.denominator == 1:
            assert apply_split(p, Split(a, int(b))) is p
            assert apply_split(p, Split(a, int(b)).partner()) is p
        row = scale_primitive(a + (-b,))
        k = p.rows.index(row)
        gens, masks = splits._piece(p, [dot(row, g) for g in p.gens])
        assert gens == list(p.gens)
        assert masks == [m | (m >> k & 1) << len(p.rows) for m in p.masks]
        seen["dup_row"] += 1
    assert min(seen.values()) >= 20, seen


def test_pieces_match_seeded_step():
    """Each piece read off the edge list against one seeded double-
    description step from the same state, compared as sets of (generator,
    mask), on the slab bodies in dimensions 1-4, unbounded and lower-
    dimensional ones included."""
    import splitlab.splits as splits

    rng = make_rng()
    seen = dict.fromkeys(("rays", "lower", "created"), 0)
    kinds = ("cross", "touch_lo", "touch_hi", "slab", "miss")
    for case in range(HULL_CASES):
        d = 1 + case % 4
        pts, rays, s = _slab_body(rng, d, kinds[case // 4 % len(kinds)])
        if d > 1 and case % 5 == 0:
            # points on a proper affine subspace through the one between
            # the planes: a polygon in 3D has pairs of vertices that share
            # the equality rows but no edge
            dirs = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(d - 1)]
            pts = [_on_span(rng, pts[-1], dirs) for _ in range(rng.randint(3, 7))] + [pts[-1]]
        try:
            p = Polyhedron.from_generators(pts, rays)
        except LinealityError:
            continue
        seen["rays"] += bool(p.rays)
        seen["lower"] += p.affine_dim() < d
        a = embed_normal(s.pi, d)
        for row in (a + (-s.pi0,), tuple(-x for x in a) + (s.pi0 + 1,)):
            gens, masks = splits._piece(p, [dot(row, g) for g in p.gens])
            _, want, want_masks = _pointed_cone_rays(
                [*p.rows, row], d + 1, (len(p.rows), p.gens, p.masks)
            )
            assert len(gens) == len(want)
            assert set(zip(gens, masks)) == set(zip(want, want_masks)), (pts, rays, row)
            seen["created"] += len(set(gens) - set(p.gens))
    assert min(seen.values()) >= 20, seen


def test_levels_match_vertex_scan():
    """A split is skipped by its level exactly when the scan of q's
    generators finds no vertex strictly between its planes, for every
    enumerated split touching the box of seeded polyhedra in dims 1-4."""
    from splitlab.splits import _levels, enumerate_splits

    rng = make_rng()
    seen = dict.fromkeys(("between", "skipped", "rays"), 0)
    for case in range(120):
        d = 1 + case % 4
        try:
            p = Polyhedron.from_generators(*_generators(rng, d))
        except LinealityError:
            continue
        seen["rays"] += bool(p.rays)
        vs = p.vertices
        box = [(min(v[i] for v in vs) - 1, max(v[i] for v in vs) + 1) for i in range(d)]
        levels = {}
        for s in enumerate_splits(1 if d > 2 else 2, box):
            a = embed_normal(s.pi, d)
            if a not in levels:
                levels[a] = _levels(p, a)[1]
            between = any(
                s.pi0 * g[-1] < dot(a, g[:-1]) < (s.pi0 + 1) * g[-1] for g in p.gens
            )
            assert (s.pi0 in levels[a]) == between, (p, s)
            seen["between" if between else "skipped"] += 1
    assert min(seen.values()) >= 20, seen


def ref_lift(model, l, kind, floor):
    """The lifted cone as the hull of its apex and the rays through the
    anchors, cut by the floor."""
    if kind == "P^L":
        anchors = list(l.vertices)
    else:
        anchors = [boundary_point(l, model.f, r) for r in model.rays]
    apex = tuple(model.f) + (F(1),)
    rays = [tuple(v[i] - model.f[i] for i in range(model.dim)) + (F(-1),) for v in anchors]
    cone = Polyhedron.from_generators([apex], rays)
    return cone.intersect_halfspace((0,) * model.dim + (-1,), F(floor))


def test_lift_matches_hull_reference():
    """The lift read off the base's double description against the hull
    of the apex and the rays cut by the floor, in generators, rows and
    masks: seeded lattice-free bodies in 2D and 3D, both kinds, floors 1,
    2, 4 and 64, and a P^L(x,z) model whose base is a segment."""
    rng = make_rng()
    # the type-1 triangle with rays to two of its edges: the base is the
    # segment from (0, 1/2) to (1/2, 0)
    cases = [(convex_hull(TYPE1_T), CornerModel.make((F(1, 2), F(1, 2)), [(-1, 0), (0, -1)]))]
    kinds = ("image", "slab", "random")
    while len(cases) < 60:
        d = 2 + len(cases) % 2
        l = _lattice_free_body(rng, d, kinds[len(cases) % 3])
        if l.affine_dim() < d:
            continue
        f = tuple(sum(c) / len(l.vertices) for c in zip(*l.vertices))
        rays = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(rng.randint(1, d + 2))]
        rays = [r for r in rays if any(r)] or [tuple(F(c) - x for c, x in zip(l.vertices[0], f))]
        cases.append((l, CornerModel.make(f, rays)))
    lower = 0
    for l, model in cases:
        for kind in ("P^L", "P^L(x,z)"):
            for floor in (1, 2, 4, 64):
                got = lift(model, l, kind, floor)
                want = ref_lift(model, l, kind, floor)
                assert (got.poly.gens, got.poly.rows, got.poly.masks) == (
                    want.gens, want.rows, want.masks
                ), (l, model, kind, floor)
                lower += got.base.affine_dim() < l.dim
    assert lower >= 20


def _round_splits(rng, p, d):
    """One to four random splits, most with the lo plane at or just below
    the level of a vertex of p, and sometimes one of them again (as itself
    or from the other side)."""
    out = []
    for _ in range(rng.randint(1, 4)):
        s = _split(rng, d)
        if rng.random() < 0.7:
            level = dot(s.pi, rng.choice(p.vertices))
            s = Split(s.pi, floor(level) - rng.randint(0, 1))
        out.append(s)
    if rng.random() < 0.3:
        s = rng.choice(out)
        out.insert(rng.randint(0, len(out)), rng.choice((s, s.partner())))
    return out


ROUND_CASES = 500


def test_round_matches_sequential_reference():
    """apply_round, one cut by the hull rows of every split of the round,
    against each split's hull from scratch intersected one split at a time,
    on seeded bodies in dims 1-4."""
    rng = make_rng()
    seen = dict.fromkeys(("rays", "lower", "empty_piece", "duplicate", "empty"), 0)
    for case in range(ROUND_CASES):
        d = 1 + case % 4
        try:
            p = Polyhedron.from_generators(*_generators(rng, d))
        except LinealityError:
            continue
        splits = _round_splits(rng, p, d)
        got = _outcome(apply_round, p, splits)
        assert got == _outcome(ref_apply_round, p, splits), (p, splits)
        seen["rays"] += bool(p.rays)
        seen["lower"] += p.affine_dim() < d
        seen["duplicate"] += len({s.canonical() for s in splits}) < len(splits)
        seen["empty"] += not got[1]
        for s in splits:
            lo = ref_intersect_halfspace(p, s.pi, s.pi0)
            hi = ref_intersect_halfspace(p, tuple(-x for x in s.pi), -s.pi0 - 1)
            # one piece empty, and the hull of the other is not p
            seen["empty_piece"] += (
                lo.is_empty != hi.is_empty and _state(ref_apply_split(p, s)) != _state(p)
            )
    assert min(seen.values()) >= 20, seen


def test_t3_rounds_match_reference():
    """The 3D growth body T3 of the ROADMAP (lift P^L over its vertex
    centroid, floor 2, every split of max-norm 1 touching its box ± 1):
    round 1 equals a from-scratch round, and rounds 2 and 3 keep the
    recorded sizes and heights."""
    verts = [(0, F(3, 2), F(1, 2)), (1, 2, 0), (F(3, 2), F(5, 2), -1), (3, 0, F(-3, 2))]
    body = Polyhedron.from_generators(verts)
    f = tuple(sum(F(v[i]) for v in verts) / 4 for i in range(3))
    model = CornerModel.make(f, [tuple(F(c) - x for c, x in zip(v, f)) for v in verts])
    cone = lift(model, body, "P^L", 2)
    box = tuple((lo - 1, hi + 1) for lo, hi in body.bounding_box())
    splits = EnumerateStrategy(1, box).splits_for_round(1)
    assert len(splits) == 140
    q = cone.poly
    ref = q
    for s in splits:
        piece = ref_apply_split(q, s)
        if piece is not q:
            ref = ref_intersect(ref, piece)
    q = apply_round(q, splits)
    assert _state(q) == _state(ref)
    q = apply_round(q, splits)
    assert (len(q.vertices), len(q.facet_inequalities()), len(q.inequalities)) == (135, 55, 55)
    assert max_height(q) == F(36032, 97703)
    assert height_at(q, f) == F(1, 8)
    q = apply_round(q, splits)
    assert (len(q.vertices), len(q.facet_inequalities()), len(q.inequalities)) == (397, 141, 141)
    assert max_height(q) == F(1651345240132, 6539326790093)
    assert height_at(q, f) == F(1951, 78264)


# ---------------------------------------------------------------------------
# the 2-hyperplane check against its face-by-face reference


def _ref_affine_dim(p):
    v0 = p.vertices[0]
    return rank([tuple(x - y for x, y in zip(v, v0)) for v in p.vertices[1:]], p.dim)


def ref_faces(p):
    """Every nonempty face of a polytope: the closure of the facets' tight
    vertex sets (by Fraction dot products) under intersection, each face a
    fresh hull of its vertices."""
    if p.is_empty:
        return []
    verts = p.vertices
    tight = [
        frozenset(i for i, v in enumerate(verts) if dot(a, v) == b)
        for a, b in p.facet_inequalities()
    ]
    sets = {frozenset(range(len(verts)))}
    frontier = list(sets)
    while frontier:
        current = frontier.pop()
        for t in tight:
            s = current & t
            if s and s not in sets:
                sets.add(s)
                frontier.append(s)
    out = [convex_hull([verts[i] for i in s]) for s in sets]
    out.sort(key=lambda f: (_ref_affine_dim(f), f.vertices))
    return out


def assert_same_faces(got, want, context):
    """Face records against reference faces, in order: the same vertices,
    dimension and integer points."""
    assert [(f.vertices, f.dimension, list(f.points)) for f in got] == [
        (f.vertices, _ref_affine_dim(f), lattice_points(f)) for f in want
    ], context


def ref_face_in_facet(face, l):
    """True iff some facet inequality of l is tight on all of the face."""
    return any(all(dot(a, v) == b for v in face.vertices) for a, b in l.facet_inequalities())


def ref_has_2hyperplane_property(l):
    """The integer hull's faces from ``ref_faces``, facet containment from
    ``ref_face_in_facet`` and each certified face's points from its own
    lattice-point scan."""
    require_lattice_free(l)
    pts = lattice_points(l)
    if not pts:
        return TwoHPReport((), True)
    entries = []
    for face in ref_faces(convex_hull(pts)):
        contained = ref_face_in_facet(face, l)
        cert = None if contained else is_2partitionable(lattice_points(face))
        entries.append(FaceEntry(face, contained, cert))
    overall = all(e.certificate is None or e.certificate.outcome != "not_partitionable"
                  for e in entries)
    return TwoHPReport(tuple(entries), overall)


L_P = [(F(1, 4), F(1, 4), F(3, 2)), (F(-1, 2), F(-1, 2), 0), (F(5, 2), F(-1, 2), 0),
       (F(-1, 2), F(5, 2), 0)]
L_PRIME = [(0, 0, F(-1, 2)), (F(5, 2), 0, F(-1, 2)), (0, F(5, 2), F(-1, 2)), (0, 0, F(3, 2)),
           (F(1, 2), 0, F(3, 2)), (0, F(1, 2), F(3, 2))]
TYPE1_T = [(0, 0), (2, 0), (0, 2)]
QUAD = [(F(1, 2), F(-1, 2)), (F(3, 2), F(1, 2)), (F(1, 2), F(3, 2)), (F(-1, 2), F(1, 2))]
STRIP = Polyhedron.from_inequalities(
    [((7, 11), 1), ((-7, -11), 0), ((1, 0), 200), ((-1, 0), 200)], 2
)


def _unimodular_image(rng, verts):
    """verts under a random product of integer shears and a random shift."""
    d = len(verts[0])
    u = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(rng.randint(0, 3) if d > 1 else 0):
        i, j = rng.sample(range(d), 2)
        a = rng.choice((-1, 1))
        u[i] = [x + a * y for x, y in zip(u[i], u[j])]
    shift = [rng.randint(-2, 2) for _ in range(d)]
    return [tuple(dot(r, v) + t for r, t in zip(u, shift)) for v in verts]


def _lattice_free_body(rng, d, kind):
    """A seeded lattice-free polytope in R^d: an image of an acceptance
    body, a segment or a triangle in 3D (``image``), or the first lattice-free hull of points between the
    planes of a split (``slab``), of random points (``random``) or of
    points on a proper affine subspace (``lower``)."""
    if kind == "image":
        bodies = {
            1: [[(0,), (1,)], [(F(-1, 2),), (0,)]],
            2: [TYPE1_T, QUAD, [(0, 0), (1, 1)]],
            3: [L_P, L_PRIME, [(0, 0, 0), (2, 0, 0), (0, 2, 0)], [(0, 0, 0), (1, 1, 0)]],
        }
        return convex_hull(_unimodular_image(rng, rng.choice(bodies[d])))
    s = _split(rng, d)
    while True:
        if kind == "slab":
            pts = []
            while len(pts) < d + 2:
                q = _point(rng, d)
                if s.pi0 <= dot(s.pi, q) <= s.pi0 + 1:
                    pts.append(q)
        elif kind == "random":
            pts = [_point(rng, d) for _ in range(rng.randint(2, d + 3))]
        else:
            pts = [tuple(F(c, p[-1]) for c in p[:-1]) for p in _lower_dim_generators(rng, d)]
        l = convex_hull(pts)
        if interior_integer_point(l) is None:
            return l


TWOHP_CASES = 240


def test_2hyperplane_check_matches_reference():
    """has_2hyperplane_property, entry for entry, against the face-by-face
    reference on seeded lattice-free bodies in dimensions 1-3, lower-
    dimensional ones included, and on the 73-point strip."""
    rng = make_rng()
    seen = dict.fromkeys(("contained", "partitionable", "not_partitionable", "lower_uncontained"), 0)
    bodies = [STRIP]
    kinds = ("image", "slab", "random", "lower")
    for case in range(TWOHP_CASES):
        d = 1 + case % 3
        kind = kinds[case // 3 % len(kinds)]
        if not (kind == "lower" and d == 1):
            bodies.append(_lattice_free_body(rng, d, kind))
    for l in bodies:
        got = has_2hyperplane_property(l)
        want = ref_has_2hyperplane_property(l)
        assert_same_faces([e.face for e in got.entries], [e.face for e in want.entries], l)
        assert [(e.contained_in_facet, e.certificate) for e in got.entries] == [
            (e.contained_in_facet, e.certificate) for e in want.entries
        ], l
        assert got.overall == want.overall, l
        for e in got.entries:
            if e.contained_in_facet:
                seen["contained"] += 1
            else:
                seen[e.certificate.outcome.replace("trivially_", "")] += 1
                seen["lower_uncontained"] += l.affine_dim() < l.dim
    assert min(seen.values()) >= 10, seen


FACES_CASES = 200


def test_faces_match_reference():
    """The face records of ``certify._faces`` (``all_faces``) against the
    face-by-face reference on seeded polytopes in dimensions 1-4,
    lower-dimensional ones included: each record's vertices, dimension and
    integer points, in the reference's order."""
    rng = make_rng()
    lower = 0
    for case in range(FACES_CASES):
        d = 1 + case % 4
        pts, _ = _generators(rng, d)
        p = convex_hull(pts)
        lower += p.affine_dim() < d
        assert_same_faces(all_faces(p), ref_faces(p), pts)
    assert lower >= 20


def ref_classify_2d(l):
    """The 2D classification on the Fraction views: facets as inequalities
    (a, b), the slab partner (-a, 1 - b), and the vertices as points."""
    pts = tuple(lattice_points(l))
    facets = l.facet_inequalities()
    for a, b in facets:
        if b.denominator == 1 and (tuple(-x for x in a), 1 - b) in facets:
            return "split", pts
    counts = [sum(1 for q in pts if dot(a, q) == b and q not in l.vertices) for a, b in facets]
    if 0 in counts:
        return "non_maximal", pts
    if len(facets) == 3:
        if all(c.denominator == 1 for v in l.vertices for c in v):
            return "triangle_type1", pts
        return ("triangle_type2" if max(counts) >= 2 else "triangle_type3"), pts
    return ("quadrilateral" if len(facets) == 4 else "other"), pts


# a slab, a type-2 and a type-3 triangle, and a strip -2/3 <= x <= -1/3
# whose parallel facets 3x + 1 <= 0 and -3x - 2 <= 0 are no split
BODIES_2D = [
    [(0, -1), (1, -1), (0, 2), (1, 2)],
    [(0, F(-1, 2)), (0, F(3, 2)), (2, F(1, 2))],
    [(F(1, 3), F(-2, 3)), (F(4, 3), F(1, 3)), (F(-2, 3), F(4, 3))],
    [(F(-2, 3), -1), (F(-1, 3), -1), (F(-2, 3), 1), (F(-1, 3), 1)],
]


def test_classify_2d_matches_reference():
    """classify_2d on integer rows, points and corners against the
    classification on the Fraction views, on seeded lattice-free bodies
    of full dimension: images of maximal ones, slab and random hulls."""
    rng = make_rng()
    kinds = {}
    for case in range(150):
        kind = ("image", "slab", "random")[case % 3]
        if kind == "image" and case % 2:
            l = convex_hull(_unimodular_image(rng, rng.choice(BODIES_2D)))
        else:
            l = _lattice_free_body(rng, 2, kind)
        if l.affine_dim() < 2:
            continue
        got = classify_2d(l)
        want = ref_classify_2d(l)
        assert (got.kind, got.integer_points_on_boundary) == want, l
        assert all(type(c) is Fraction for q in got.integer_points_on_boundary for c in q)
        kinds[got.kind] = kinds.get(got.kind, 0) + 1
    assert set(kinds) >= {
        "split", "non_maximal", "triangle_type1", "triangle_type2", "triangle_type3",
        "quadrilateral",
    }, kinds
