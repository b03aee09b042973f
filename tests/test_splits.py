"""Split disjunctions: application, classification, rounds, enumeration, sweep."""

from fractions import Fraction
from functools import reduce
from itertools import product
from math import ceil, floor
from time import perf_counter

import pytest

from splitlab.geometry import GeometryError, LinealityError, Polyhedron, convex_hull, lattice_points
from splitlab.linalg import dot, vec_gcd
from splitlab.splits import (
    Split,
    SplitClass,
    SplitSequence,
    apply_round,
    apply_split,
    classify_split,
    enumerate_splits,
    facet_splits,
    split_confines,
    sweep_sequence_2d,
)

from conftest import make_rng

F = Fraction

TYPE1_T = convex_hull([(0, 0), (2, 0), (0, 2)])
UNIT_SQ = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])


def hull_of_union(q: Polyhedron, s: Split) -> Polyhedron:
    """Brute-force oracle: hull of the vertex sets of the two slices."""
    a = s.pi
    lo = q.intersect_halfspace(a, F(s.pi0))
    hi = q.intersect_halfspace(tuple(-x for x in a), F(-(s.pi0 + 1)))
    verts = list(lo.vertices) + list(hi.vertices)
    if not verts:
        return Polyhedron.empty(q.dim)
    return convex_hull(verts, list(lo.rays) + list(hi.rays))


def test_split_validation():
    with pytest.raises(GeometryError):
        Split.make((0, 0), 1)
    with pytest.raises(GeometryError):
        Split.make((2, 4), 1)
    s = Split.make((1, 1), 2)
    assert s.partner() == Split.make((-1, -1), -3)
    assert s.partner().canonical() == s
    # non-integral data and bools are refused rather than truncated or read
    # as 0 and 1; integral Fractions pass
    for pi, pi0 in (
        ((F(3, 2),), 0), ((1, 0), F(1, 2)), ((1.5, 1), 0), ((True, 0), 0), ((1, 0), False)
    ):
        with pytest.raises(GeometryError, match="not an integer"):
            Split.make(pi, pi0)
    assert Split.make((F(2, 2), F(0)), F(4, 2)) == Split((1, 0), 2)


def test_apply_split_regenerates_square():
    sq = convex_hull([(F(-1, 2), F(-1, 2)), (F(3, 2), F(-1, 2)),
                      (F(-1, 2), F(3, 2)), (F(3, 2), F(3, 2))])
    s = Split.make((1, 0), 0)
    assert apply_split(sq, s) == sq
    assert apply_split(sq, s) == hull_of_union(sq, s)


def test_apply_split_triangle():
    # hull of {x1+x2 <= 1 part} and {segment x1+x2 = 2} regenerates the triangle
    s = Split.make((1, 1), 1)
    assert apply_split(TYPE1_T, s) == hull_of_union(TYPE1_T, s) == TYPE1_T


def test_apply_split_cuts_corner():
    sq = convex_hull([(0, 0), (F(3, 2), 0), (0, F(3, 2)), (F(3, 2), F(3, 2))])
    s = Split.make((1, 1), 1)
    out = apply_split(sq, s)
    assert out == hull_of_union(sq, s)
    assert out != sq
    assert not out.contains((F(3, 2), 0))  # corner in the open slab is cut away
    assert set(lattice_points(out)) == set(lattice_points(sq))


def test_apply_split_empty_side():
    s = Split.make((1, 0), 5)
    out = apply_split(UNIT_SQ, s)
    assert out == UNIT_SQ  # all of the square is on the low side
    # fractional vertices exactly on a boundary plane satisfy the disjunction
    s = Split.make((1, 1), 1)
    on_lo = convex_hull([(0, 0), (F(1, 3), 0), (F(1, 2), F(1, 2))])  # x+y = 0, 1/3, 1
    on_hi = convex_hull([(F(3, 2), F(1, 2)), (3, 0), (2, 1)])  # x+y = 2, 3, 3
    both = convex_hull([(0, 0), (3, 0), (F(3, 2), F(1, 2)), (F(1, 2), F(1, 2))])
    for q in (on_lo, on_hi, both):
        assert apply_split(q, s) is q
        assert hull_of_union(q, s) == q


def test_classify_flags():
    # both boundary planes meet the triangle
    c = classify_split(TYPE1_T, Split.make((1, 0), 0))
    assert c.intersecting and not c.chvatal
    # upper plane misses the triangle but the disjunction holds everywhere
    c = classify_split(TYPE1_T, Split.make((1, 1), 2))
    assert c.chvatal and c.englobing and not c.intersecting
    # unit square between consecutive planes: intersecting and englobing
    c = classify_split(UNIT_SQ, Split.make((1, 0), 0))
    assert c.intersecting and c.englobing


def test_englobing_idempotence_randomized():
    rng = make_rng()
    done = 0
    while done < 110:
        pts = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(4)]
        q = convex_hull(pts)
        pi = (rng.randint(-2, 2), rng.randint(-2, 2))
        if not any(pi):
            continue
        if vec_gcd(pi) != 1:
            continue
        s = Split.make(pi, rng.randint(-4, 4))
        flags = classify_split(q, s)
        out = apply_split(q, s)
        if flags.englobing:
            assert out == q
        if flags.chvatal:
            # one-sided: the result is the surviving slice
            a = s.pi
            low = q.intersect_halfspace(a, F(s.pi0))
            high = q.intersect_halfspace(
                tuple(-x for x in a), F(-(s.pi0 + 1))
            )
            assert out == (low if high.is_empty else out)
        assert out == hull_of_union(q, s)
        done += 1


def test_split_monotonicity_randomized():
    rng = make_rng()
    done = 0
    while done < 110:
        outer_pts = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(5)]
        outer = convex_hull(outer_pts)
        # inner hull from midpoints of outer vertices
        vs = outer.vertices
        if len(vs) < 3:
            continue
        inner = convex_hull(
            [
                tuple((vs[i][k] + vs[(i + 1) % len(vs)][k]) / 2 for k in range(2))
                for i in range(len(vs))
            ]
        )
        s = Split.make((1, rng.randint(-2, 2) * 2 + 1), rng.randint(-3, 3))
        assert apply_split(outer, s).contains_polyhedron(apply_split(inner, s))
        done += 1


def test_split_confines():
    assert split_confines(UNIT_SQ, Split.make((1, 0), 0))
    assert not split_confines(TYPE1_T, Split.make((1, 0), 0))
    assert not split_confines(TYPE1_T, Split.make((1, 1), 0))


def ref_classify_split(q: Polyhedron, s: Split) -> SplitClass:
    """Reference: the flags from q's vertex values and ray signs, and for
    a polytope englobing from the vertices alone."""
    a = s.pi + (0,) * (q.dim - len(s.pi))
    lo, hi = F(s.pi0), F(s.pi0 + 1)
    vals = [dot(a, v) for v in q.vertices]
    minv, maxv = min(vals), max(vals)
    unbounded_up = any(dot(a, r) > 0 for r in q.rays)
    unbounded_down = any(dot(a, r) < 0 for r in q.rays)

    def reaches(c):
        return (maxv >= c or unbounded_up) and (minv <= c or unbounded_down)

    intersecting = reaches(lo) and reaches(hi)
    upper_empty = maxv < hi and not unbounded_up
    lower_empty = minv > lo and not unbounded_down
    if q.is_bounded:
        englobing = all(v <= lo or v >= hi for v in vals)
    else:
        englobing = apply_split(q, s) == q
    return SplitClass(intersecting, englobing, upper_empty or lower_empty)


def ref_split_confines(q: Polyhedron, s: Split) -> bool:
    """Reference: no ray leaves the slab and every vertex lies in it."""
    a = s.pi + (0,) * (q.dim - len(s.pi))
    if any(dot(a, r) != 0 for r in q.rays):
        return False
    return all(s.pi0 <= dot(a, v) <= s.pi0 + 1 for v in q.vertices)


def test_classify_and_confines_match_reference(rng):
    differences = done = 0
    while done < 300:
        dim = rng.choice((2, 3))
        pts = [
            tuple(F(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(dim))
            for _ in range(rng.randint(1, dim + 2))
        ]
        rays = [tuple(rng.randint(-1, 1) for _ in range(dim)) for _ in range(rng.randint(0, 2))]
        thin = done % 3 == 0  # q between x1 = 0 and x1 = 1, so some splits confine it
        if thin:
            pts = [(F(rng.randint(0, 2), 2), *p[1:]) for p in pts]
            rays = [(0, *r[1:]) for r in rays]
        try:
            q = convex_hull(pts, [r for r in rays if any(r)])
        except LinealityError:
            continue
        if thin:
            s = Split.make((1,) + (0,) * rng.randint(0, dim - 1), rng.randint(-1, 1))
        else:
            s = random_split(rng, q)
        differences += classify_split(q, s) != ref_classify_split(q, s)
        differences += split_confines(q, s) != ref_split_confines(q, s)
        done += 1
    assert differences == 0


def test_facet_split():
    s = facet_splits(TYPE1_T)[0]
    a, b = TYPE1_T.facet_inequalities()[0]
    assert s.pi == a
    # the facet plane holds integer points, so it is a boundary plane
    assert s.pi0 == b or s.pi0 + 1 == b


def random_split(rng, q: Polyhedron) -> Split:
    """A random split whose boundary planes pass near a vertex of q."""
    while True:
        pi = tuple(rng.randint(-2, 2) for _ in range(q.dim))
        if any(pi) and vec_gcd(pi) == 1:
            level = dot(pi, rng.choice(q.vertices))
            return Split.make(pi, floor(level) - rng.randint(0, 1))


def test_apply_round_matches_reference(rng):
    for dim, cases in ((2, 30), (3, 10)):
        for _ in range(cases):
            pts = [
                tuple(F(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(dim))
                for _ in range(dim + 2)
            ]
            q = convex_hull(pts)
            splits = [random_split(rng, q) for _ in range(rng.randint(1, 4))]
            reference = reduce(
                Polyhedron.intersect, [apply_split(q, s) for s in splits], q
            )
            assert apply_round(q, splits) == reference
            # splits whose low side holds all of q englobe it
            englobing = [
                Split(s.pi, ceil(max(dot(s.pi, v) for v in q.vertices)))
                for s in splits
            ]
            assert apply_round(q, englobing) is q


def test_facet_splits_match_facets():
    tri = convex_hull([(0, 0), (1, F(1, 2)), (0, 1)])
    splits = facet_splits(tri)
    assert [s.pi for s in splits] == [a for a, _ in tri.facet_inequalities()]
    with pytest.raises(GeometryError):
        facet_splits(convex_hull([(0, 0), (1, 1)]))


def test_enumerate_splits_counts():
    box1 = ((F(0), F(2)), (F(0), F(2)))
    assert len(enumerate_splits(1, box1)) == 20
    box2 = ((F(-1), F(3)), (F(-1), F(3)))
    assert len(enumerate_splits(2, box2)) == 88
    # canonical: all leading nonzeros positive, no duplicates
    seen = set()
    for s in enumerate_splits(2, box2):
        assert next(x for x in s.pi if x) > 0
        key = (s.pi, s.pi0)
        assert key not in seen
        seen.add(key)


def _ref_enumerate_splits(bound, box):
    """Each direction's pi0 range from Fraction products with the box."""
    out = []
    for pi in product(range(-bound, bound + 1), repeat=len(box)):
        if not any(pi) or vec_gcd(pi) != 1 or next(x for x in pi if x) < 0:
            continue
        lo = sum(min(p * F(a), p * F(b)) for p, (a, b) in zip(pi, box))
        hi = sum(max(p * F(a), p * F(b)) for p, (a, b) in zip(pi, box))
        out += [Split(pi, pi0) for pi0 in range(ceil(lo) - 1, floor(hi) + 1)]
    return out


def test_enumerate_splits_in_integers_matches_reference(rng):
    """The pi0 ranges read over the box's common denominator against the
    Fraction ranges, on seeded boxes in dimensions 1-3: mixed
    denominators, int and Fraction ends, integer ends, reversed sides."""
    for case in range(300):
        dim = 1 + case % 3
        box = []
        for _ in range(dim):
            den = rng.choice((1, 2, 3, 4, 7))
            a, b = (F(rng.randint(-9 * den, 9 * den), den) for _ in range(2))
            if case % 4 == 0:
                a, b = int(a), int(b)
            box.append((a, b) if case % 5 else (b, a))
        bound = rng.randint(0, 3)
        assert enumerate_splits(bound, box) == _ref_enumerate_splits(bound, box), box


def test_sweep_sequence():
    q = convex_hull(
        [(0, -1), (3, -1), (0, 0), (3, 0), (1, F(3, 4)), (2, F(3, 4))]
    )
    chv = Split.make((0, 1), 0)
    apex = (F(3, 2), F(7, 8))
    seq = sweep_sequence_2d(q, chv, apex)
    assert [(s.pi, s.pi0) for s in seq.splits] == [((1, -1), 0), ((1, 1), 2)]
    cur = q
    for s in seq.splits:
        cur = apply_split(cur, s)
    pyramid = Polyhedron.from_generators([apex, (0, 0), (3, 0)])
    upper = cur.intersect_halfspace((0, -1), F(0))
    assert pyramid.contains_polyhedron(upper)
    # the part below the near plane is untouched
    low = (0, 1)
    assert cur.intersect_halfspace(low, F(0)) == q.intersect_halfspace(low, F(0))


def test_sweep_starts_below_a_facet_through_the_endpoint():
    # from (0, 0) the facet to (0, 1/2) is a sweep line, so the last line
    # that meets the upper part only at (0, 0) is the one before it
    q = convex_hull([(0, 0), (0, F(1, 2)), (3, 0)])
    seq = sweep_sequence_2d(q, Split.make((0, 1), 0), (F(1, 2), F(1, 4)))
    assert [(s.pi, s.pi0) for s in seq.splits] == [
        ((1, 1), 0), ((1, 0), 0), ((1, -1), 0), ((1, -2), 0),
        ((1, 5), 2), ((1, 6), 2), ((1, 7), 2), ((1, 8), 2), ((1, 9), 2), ((1, 10), 2),
    ]


def test_sweep_trivial_and_errors():
    chv = Split.make((0, 1), 0)
    below = convex_hull([(0, -2), (3, -2), (0, -1), (3, -1)])
    assert sweep_sequence_2d(below, chv, (F(3, 2), F(1, 2))).splits == ()
    q = convex_hull([(0, -1), (3, -1), (1, F(3, 4)), (2, F(3, 4)), (0, 0), (3, 0)])
    with pytest.raises(GeometryError):
        sweep_sequence_2d(q, chv, (F(3, 2), F(3, 2)))  # apex above the far plane
    straddling = convex_hull([(0, 0), (2, 0), (1, 2)])
    with pytest.raises(GeometryError):
        sweep_sequence_2d(straddling, chv, (F(1, 2), F(1, 2)))  # not Chvatal
    for apex in ((F(7, 8),), (F(3, 2), F(7, 8), 1)):
        with pytest.raises(GeometryError, match="apex must have 2 coordinates"):
            sweep_sequence_2d(q, chv, apex)


def test_sweep_embeds_a_split_on_fewer_coordinates():
    q = convex_hull([(-1, 0), (-1, 3), (0, 0), (0, 3), (F(3, 4), 1), (F(3, 4), 2)])
    apex = (F(7, 8), F(3, 2))
    seq = sweep_sequence_2d(q, Split.make((1, 0), 0), apex)
    assert [(s.pi, s.pi0) for s in seq.splits] == [((1, -1), -1), ((1, 1), 2)]
    assert sweep_sequence_2d(q, Split.make((1,), 0), apex) == seq


def test_sweep_follows_a_translation():
    # the start line and apex sector are closed forms, so a far shift of
    # the body costs no more and moves the splits with it
    shift = (10**6, 3)
    q = convex_hull(
        [(x + shift[0], y + shift[1]) for x, y in
         [(0, -1), (3, -1), (0, 0), (3, 0), (1, F(3, 4)), (2, F(3, 4))]]
    )
    start = perf_counter()
    seq = sweep_sequence_2d(q, Split.make((0, 1), 3), (F(3, 2) + shift[0], F(7, 8) + shift[1]))
    assert perf_counter() - start < 1
    assert [(s.pi, s.pi0) for s in seq.splits] == [((1, -1), 999997), ((1, 1), 1000005)]


def test_sweep_length_has_a_budget():
    # the length grows like 1/alpha as the apex nears the near plane; the
    # budget is measured from the endpoints, so it moves with the body
    body = [(0, -1), (3, -1), (0, 0), (3, 0), (1, F(3, 4)), (2, F(3, 4))]
    for sx, sy in ((0, 0), (10**6, 3)):
        q = convex_hull([(x + sx, y + sy) for x, y in body])
        chv = Split.make((0, 1), sy)
        assert len(sweep_sequence_2d(q, chv, (F(3, 2) + sx, F(1, 16) + sy)).splits) == 48
        start = perf_counter()
        with pytest.raises(GeometryError, match="1500000000 splits .* more than its budget 97"):
            sweep_sequence_2d(q, chv, (F(3, 2) + sx, F(1, 10**9) + sy))
        assert perf_counter() - start < 1


def test_sequence_provenance():
    with pytest.raises(GeometryError):
        SplitSequence((Split.make((1, 0), 0),), ())
    seq = SplitSequence.make([Split.make((1, 0), 0)])
    assert seq.provenance == ("user",)
