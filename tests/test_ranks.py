"""Lifted cones, height probing, the finite-rank executor, facet repair."""

import sys
from fractions import Fraction
from math import ceil, floor

import pytest

from splitlab import cuts, geometry, ranks, splits
from splitlab.cuts import CornerModel
from splitlab.geometry import (
    GeometryError,
    Polyhedron,
    convex_hull,
    interior_integer_point,
    lattice_points,
)
from splitlab.linalg import _column_echelon, dot, integer_solve_rows
from splitlab.ranks import (
    EnumerateStrategy,
    ExplicitStrategy,
    execute_finite_rank,
    height_at,
    lift,
    max_height,
    necessity_witness,
    probe_rounds,
    rotate_facet,
)
from splitlab.splits import Split, SplitSequence, apply_round, facet_splits

from conftest import make_rng

F = Fraction

TYPE1_T = convex_hull([(0, 0), (2, 0), (0, 2)])
TYPE1_MODEL = CornerModel.make(
    (F(1, 2), F(1, 2)),
    [(F(-1, 2), F(-1, 2)), (F(3, 2), F(-1, 2)), (F(-1, 2), F(3, 2))],
)
PROBE_BOX = ((F(-1), F(3)), (F(-1), F(3)))

UNIT_SQ = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
SQ_MODEL = CornerModel.make((F(1, 2), F(1, 2)), [(1, 0), (-1, 0), (0, 1), (0, -1)])

T2 = convex_hull([(0, F(-1, 2)), (0, F(3, 2)), (2, F(1, 2))])
T2_MODEL = CornerModel.make(
    (F(1, 2), F(1, 2)),
    [(F(-1, 2), -1), (F(-1, 2), 1), (F(3, 2), 0)],
)


def test_lift_heights():
    cone = lift(TYPE1_MODEL, TYPE1_T, floor=4)
    assert height_at(cone.poly, TYPE1_MODEL.f) == 1  # apex
    assert height_at(cone.poly, (0, 0)) == 0  # boundary anchor
    assert height_at(cone.poly, (F(1, 4), F(1, 4))) == F(1, 2)
    assert height_at(cone.poly, (10, 10)) is None
    assert max_height(cone.poly) == 1


def test_lift_base_is_the_body():
    """The cone anchors at l's vertices, so its base is l itself."""
    for model, l in ((TYPE1_MODEL, TYPE1_T), (SQ_MODEL, UNIT_SQ), (T2_MODEL, T2)):
        cone = lift(model, l, floor=3)
        assert cone.base is l
        assert cone.base == convex_hull(l.vertices)


def test_lift_floor_is_an_integer():
    """A non-integral floor and a bool are refused rather than carried into
    the exact arithmetic; an integral value of another type lifts as its
    int does."""
    for floor in (F(5, 2), 2.5, 1.1, True):
        with pytest.raises(GeometryError, match="not an integer"):
            lift(TYPE1_MODEL, TYPE1_T, floor=floor)
    for floor, want in ((2.0, 2), (F(4), 4)):
        cone = lift(TYPE1_MODEL, TYPE1_T, floor=floor)
        assert cone.poly == lift(TYPE1_MODEL, TYPE1_T, floor=want).poly
    with pytest.raises(GeometryError, match="positive"):
        lift(TYPE1_MODEL, TYPE1_T, floor=0)


def _lift_by_dot_products(model, l, floor):
    """The lifted cone as ``_canonical`` over every lifted row of l, its
    row −t <= 0 included, the floor and −t <= 0, with each generator's
    tight mask from dot products."""
    nf, df = geometry._over_denominator(model.f)
    m, up = model.dim, (floor + 1) * df
    rows = [
        geometry._primitive((*(df * x for x in a), -c * df - dot(a, nf), c * df), 1)
        for *a, c in l.rows
    ]
    rows += [(0,) * m + (-1, -floor), (0,) * (m + 1) + (-1,)]
    gens = [(*nf, df, df)] + [
        geometry._primitive(
            (*(up * x - floor * y * t for x, y in zip(n, nf)), -floor * t * df, t * df), 1
        )
        for *n, t in l.gens
    ]
    masks = [sum(1 << k for k, r in enumerate(rows) if dot(r, g) == 0) for g in gens]
    return geometry._canonical(m + 1, rows, gens, masks)


def test_lift_reads_incidence_off_the_body():
    """lift reads the cone's facet rows and incidence off l's double
    description; the result equals ``_canonical`` over the same rows and
    generators with dot-product masks, in generators, rows and masks,
    which ``==`` ignores and so are compared on their own.  Seeded
    lattice-free bodies in 1D, 2D and 3D and T3's vertices, floors 1, 2
    and 64; a floor image's mask that loses a bit is caught."""
    rng = make_rng()
    t3 = [(0, F(3, 2), F(1, 2)), (1, 2, 0), (F(3, 2), F(5, 2), -1), (3, 0, F(-3, 2))]
    bodies = [convex_hull(t3)]
    while len(bodies) < 31:
        d = 1 + len(bodies) % 3
        pts = [
            tuple(F(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(d))
            for _ in range(rng.randint(d + 1, d + 3))
        ]
        l = convex_hull(pts)
        if l.affine_dim() == d and interior_integer_point(l) is None:
            bodies.append(l)
    for l in bodies:
        f = tuple(sum(c) / len(l.vertices) for c in zip(*l.vertices))
        model = CornerModel.make(f, [tuple(F(c) - x for c, x in zip(v, f)) for v in l.vertices])
        for floor in (1, 2, 64):
            got, want = lift(model, l, floor).poly, _lift_by_dot_products(model, l, floor)
            assert (got.gens, got.rows, got.masks) == (want.gens, want.rows, want.masks), l
            # a floor image (z < 0) whose mask loses its lowest bit
            k = next(i for i, g in enumerate(got.gens) if g[-2] < 0)
            masks = list(got.masks)
            masks[k] &= masks[k] - 1
            broken = Polyhedron(got.dim, got.gens, got.rows, tuple(masks))
            assert broken == want and broken.masks != want.masks


def test_lift_refuses_a_body_above_dimension_3():
    """The lifted cone adds a coordinate to the body's, and the ambient
    dimension is capped at 4: the 4D simplex x >= 0, sum(x) <= 2 is
    lattice-free, but its cone would be 5-dimensional."""
    units = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    simplex = convex_hull([(0, 0, 0, 0)] + [tuple(2 * x for x in e) for e in units])
    assert interior_integer_point(simplex) is None
    model = CornerModel.make((F(1, 4),) * 4, units)
    with pytest.raises(GeometryError, match="lift needs a body of dimension at most 3, got 4"):
        lift(model, simplex)


def test_lift_refuses_a_reference_point_off_the_interior():
    # f = (1/2, 1/2) lies on the long edge of the unit triangle
    tri = convex_hull([(0, 0), (1, 0), (0, 1)])
    with pytest.raises(GeometryError, match="reference point must lie in the interior"):
        lift(SQ_MODEL, tri)


def test_height_concavity_randomized():
    rng = make_rng()
    cone = lift(TYPE1_MODEL, TYPE1_T, floor=4)
    done = 0
    while done < 110:
        x = (F(rng.randint(-8, 12), 4), F(rng.randint(-8, 12), 4))
        y = (F(rng.randint(-8, 12), 4), F(rng.randint(-8, 12), 4))
        hx, hy = height_at(cone.poly, x), height_at(cone.poly, y)
        if hx is None or hy is None:
            continue
        t = F(rng.randint(0, 4), 4)
        mid = tuple(t * a + (1 - t) * b for a, b in zip(x, y))
        hm = height_at(cone.poly, mid)
        assert hm is not None and hm >= t * hx + (1 - t) * hy
        done += 1


def test_probe_persistence_type1():
    cone = lift(TYPE1_MODEL, TYPE1_T, floor=4)
    report = probe_rounds(
        cone, EnumerateStrategy(2, PROBE_BOX), 3, [TYPE1_MODEL.f]
    )
    assert report.verdict == "persists_positive_through_budget"
    heights = [p.samples[0][1] for p in report.profiles]
    assert heights == [1, F(1, 3), F(1, 5), F(1, 11)]
    tops = [p.global_max for p in report.profiles]
    assert tops == [1, F(1, 2), F(1, 4), F(1, 8)]


def test_probe_monotone_heights():
    cone = lift(TYPE1_MODEL, TYPE1_T, floor=4)
    report = probe_rounds(
        cone, EnumerateStrategy(1, PROBE_BOX), 3, [TYPE1_MODEL.f, (1, 1)]
    )
    prev = None
    for profile in report.profiles:
        top = profile.global_max
        if prev is not None:
            assert top <= prev
        prev = top


def test_probe_floor_insensitive():
    for floor in (2, 8, 32):
        cone = lift(TYPE1_MODEL, TYPE1_T, floor=floor)
        report = probe_rounds(
            cone, EnumerateStrategy(1, PROBE_BOX), 2, [TYPE1_MODEL.f]
        )
        assert [p.samples[0][1] for p in report.profiles] == [1, F(1, 3), F(1, 5)]


def test_probe_facet_rounds_strategy():
    cone = lift(TYPE1_MODEL, TYPE1_T, floor=4)
    q = cone.poly
    heights = [height_at(q, TYPE1_MODEL.f)]
    for _ in range(2):
        q = apply_round(q, facet_splits(TYPE1_T))
        heights.append(height_at(q, TYPE1_MODEL.f))
    assert heights[0] == 1
    assert all(h > 0 for h in heights)
    assert heights[1] < heights[0]


@pytest.mark.parametrize(
    "strategy",
    [
        EnumerateStrategy(0, PROBE_BOX),
        ExplicitStrategy(SplitSequence.make([])),
    ],
    ids=["enumerate", "explicit"],
)
def test_strategy_empty_split_set(strategy):
    with pytest.raises(GeometryError, match="strategy produced an empty split set"):
        strategy.splits_for_round(1)
    cone = lift(TYPE1_MODEL, TYPE1_T, floor=4)
    with pytest.raises(GeometryError, match="strategy produced an empty split set"):
        probe_rounds(cone, strategy, 1, [TYPE1_MODEL.f])


def test_strategy_splits_for_round():
    s1, s2 = Split.make((1, 0), 0), Split.make((0, 1), 0)
    explicit = ExplicitStrategy(SplitSequence.make([s1, s2]))
    assert [explicit.splits_for_round(r) for r in (1, 2, 3)] == [[s1], [s2], []]
    enum = EnumerateStrategy(1, PROBE_BOX)
    assert enum.splits_for_round(1) is enum.splits_for_round(5) != ()
    # a box of the wrong size gives splits outside the cone's x-space
    cone = lift(TYPE1_MODEL, TYPE1_T, floor=4)
    for box in (PROBE_BOX[:1], PROBE_BOX + ((F(0), F(1)),)):
        with pytest.raises(GeometryError, match="do not fit"):
            probe_rounds(cone, EnumerateStrategy(1, box), 1, [TYPE1_MODEL.f])


def test_probe_enumerates_splits_once_per_strategy(monkeypatch):
    calls = []
    enumerate_splits = ranks.enumerate_splits

    def counting(*args):
        calls.append(args)
        return enumerate_splits(*args)

    monkeypatch.setattr(ranks, "enumerate_splits", counting)
    cone = lift(TYPE1_MODEL, TYPE1_T, floor=4)
    for n in (1, 2):
        report = probe_rounds(cone, EnumerateStrategy(1, PROBE_BOX), 3, [TYPE1_MODEL.f])
        assert report.rounds_applied == 3
        assert len(calls) == n


# -- heights read off the integer rows and generators, against the views


def ref_height_at(q, x):
    """max z over the fiber at x, over the Fraction inequality view."""
    xp = tuple(F(c) for c in x)
    if q.is_empty:
        return None
    best = None
    for a, b in q.inequalities:
        c, partial = a[-1], dot(a[:-1], xp)
        if c == 0 and partial > b:
            return None
        if c > 0 and (best is None or (b - partial) / c < best):
            best = (b - partial) / c
    if best is None:
        raise GeometryError("height is unbounded above at this point")
    if any(a[-1] < 0 and dot(a[:-1], xp) + a[-1] * best > b for a, b in q.inequalities):
        return None
    return best


def ref_max_height(q):
    """Largest z over the Fraction vertex view."""
    if q.is_empty:
        return None
    if any(r[-1] > 0 for r in q.rays):
        raise GeometryError("polyhedron is unbounded in the z direction")
    return max(v[-1] for v in q.vertices)


def outcome(f, *args):
    try:
        return f(*args)
    except GeometryError as exc:
        return "refused", str(exc)


def assert_heights_match(q, witnesses):
    assert outcome(max_height, q) == outcome(ref_max_height, q)
    for x in witnesses:
        assert outcome(height_at, q, x) == outcome(ref_height_at, q, x), (q, x)


def _rational(rng, span=4):
    return F(rng.randint(-span * 3, span * 3), rng.randint(1, 3))


def _seeded_polyhedra(rng, dim):
    """Random hulls in dimension dim: full-dimensional, on a hyperplane
    through z (equality rows with a z-coefficient), on a hyperplane
    x1 = const (empty fibers off it), a point, and with rays."""
    up = (0,) * (dim - 1) + (1,)
    down = (0,) * (dim - 1) + (-1,)
    slant = (1,) + (0,) * (dim - 2) + (-2,)
    for _ in range(6):
        pts = [tuple(_rational(rng) for _ in range(dim)) for _ in range(dim + rng.randint(1, 3))]
        yield convex_hull(pts)
        yield convex_hull([p[:-1] + (sum(p[:-1]) / 2 + 1,) for p in pts])
        yield convex_hull([(F(1, 3),) + p[1:] for p in pts])
        yield convex_hull(pts[:1])
        yield convex_hull(pts, [down])
        yield convex_hull(pts, [slant, down])
        yield convex_hull(pts, [up])
    yield Polyhedron.empty(dim)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_heights_match_fraction_reference(dim):
    rng = make_rng()
    for q in _seeded_polyhedra(rng, dim):
        witnesses = [tuple(_rational(rng, 5) for _ in range(dim - 1)) for _ in range(8)]
        witnesses += [v[:-1] for v in q.vertices]
        witnesses.append((F(1, 3),) + witnesses[0][1:])
        assert_heights_match(q, witnesses)
    with pytest.raises(GeometryError, match="x-space"):
        height_at(convex_hull([(0,) * dim]), (0,) * dim)
    # the empty q's row t <= 0 cuts every fiber
    assert height_at(Polyhedron.empty(dim), (F(1, 3),) * (dim - 1)) is None


def test_heights_match_reference_on_probe_rounds():
    # the heights of acceptance criterion 3, round by round
    cone = lift(TYPE1_MODEL, TYPE1_T, floor=4)
    strategy = EnumerateStrategy(2, PROBE_BOX)
    q = cone.poly
    expected = zip([1, F(1, 3), F(1, 5), F(1, 11)], [1, F(1, 2), F(1, 4), F(1, 8)])
    for r, (height, top) in enumerate(expected):
        if r:
            q = apply_round(q, strategy.splits_for_round(r))
        assert height_at(q, TYPE1_MODEL.f) == ref_height_at(q, TYPE1_MODEL.f) == height
        assert max_height(q) == ref_max_height(q) == top
        assert_heights_match(q, [(0, 0), (1, 1), (F(1, 4), F(3, 4)), (3, 0), (-1, 1)])
    # the 4D lifted cone over L_P, before and after one round
    body = convex_hull([(F(1, 4), F(1, 4), F(3, 2)), (F(-1, 2), F(-1, 2), 0),
                        (F(5, 2), F(-1, 2), 0), (F(-1, 2), F(5, 2), 0)])
    f = (F(1, 2), F(1, 2), F(1, 2))
    cone = lift(CornerModel.make(f, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]), body, floor=1)
    box = tuple((lo - 1, hi + 1) for lo, hi in body.bounding_box())
    witnesses = [f, (0, 0, 0), (1, 0, 1), (F(1, 4), F(1, 4), F(3, 2)), (2, 2, 2)]
    assert_heights_match(cone.poly, witnesses)
    q = apply_round(cone.poly, EnumerateStrategy(1, box).splits_for_round(1))
    assert_heights_match(q, witnesses)


L_P = convex_hull([(F(1, 4), F(1, 4), F(3, 2)), (F(-1, 2), F(-1, 2), 0),
                   (F(5, 2), F(-1, 2), 0), (F(-1, 2), F(5, 2), 0)])
L_P_MODEL = CornerModel.make((F(1, 2), F(1, 2), F(1, 2)), [(1, 0, 0), (0, 1, 0), (0, 0, 1)])


@pytest.mark.parametrize(
    "model, body, floor, box, rounds, work, tops",
    [
        (TYPE1_MODEL, TYPE1_T, 4, PROBE_BOX, 3, [8, 8, 16, 91, 90], [1, F(1, 2), F(1, 4), F(1, 8)]),
        (L_P_MODEL, L_P, 1, None, 1, [7, 7, 11, 85, 111], [1, F(8, 23)]),
    ],
    ids=["type1", "l_p"],
)
def test_probe_work_is_pinned(monkeypatch, model, body, floor, box, rounds, work, tops):
    """The deterministic work of a probe: split hulls, polar joins, DD
    passes, adjacency tests and ray combinations, counted over an
    enumerated probe (bound 1; L_P's box is its own widened by 1) through
    every binding of each function in every module of the package.  A
    change to how much DD work a probe does shows up here, with the same
    maximum heights."""
    cone = lift(model, body, floor=floor)
    box = box or tuple((lo - 1, hi + 1) for lo, hi in body.bounding_box())
    fns = [splits._split_rows, splits._join, geometry._pointed_cone_rays,
           geometry._adjacent, geometry._combine]
    calls = [0] * len(fns)
    for mod in [m for n, m in sys.modules.items() if n.startswith("splitlab.")]:
        for name, value in list(vars(mod).items()):
            for k, fn in enumerate(fns):
                if value is fn:

                    def counting(*args, k=k, fn=fn):
                        calls[k] += 1
                        return fn(*args)

                    monkeypatch.setattr(mod, name, counting)
    report = probe_rounds(cone, EnumerateStrategy(1, box), rounds, [model.f])
    assert calls == work
    assert [p.global_max for p in report.profiles] == tops


QUAD = convex_hull([(F(1, 2), F(-1, 2)), (F(3, 2), F(1, 2)), (F(1, 2), F(3, 2)), (F(-1, 2), F(1, 2))])
T3 = convex_hull([(0, F(3, 2), F(1, 2)), (1, 2, 0), (F(3, 2), F(5, 2), -1), (3, 0, F(-3, 2))])
N3 = convex_hull([(F(-1, 2), F(-3, 2), 2), (4, 0, 3), (4, F(5, 2), F(1, 2)), (4, 3, -1)])


def test_last_round_profile_is_the_round_profile():
    """``_round_profile`` reads a round only at its top vertex and the
    witnesses' fiber tops, and gives ``_profile`` of the whole round.
    Bound-1 rounds 1 and 2, each also as seeded rounds of one split, on
    the lifts of the bench's 2D bodies and L_P under seeded unimodular
    maps and shifts and of T3 and N3, at seeded floors 1..8, with the
    vertex centroid, the body's vertices and a point far outside (an
    empty fiber) as witnesses; and two rounds that empty q: a split with
    both pieces empty, and two splits whose hulls meet nowhere."""
    rng = make_rng()
    bodies = [T3, N3]
    for l in (TYPE1_T, UNIT_SQ, T2, QUAD, L_P):
        m = l.dim
        u = [[int(i == j) for j in range(m)] for i in range(m)]
        for i, j in rng.sample([(i, j) for i in range(m) for j in range(m) if i != j], 2):
            k = rng.choice((-1, 1))
            u[i] = [a + k * b for a, b in zip(u[i], u[j])]
        bodies.append(geometry.apply_unimodular(l, u, [rng.randint(-3, 3) for _ in range(m)]))
    for l in bodies:
        f = tuple(sum(c) / len(l.vertices) for c in zip(*l.vertices))
        model = CornerModel.make(f, [tuple(c - x for c, x in zip(v, f)) for v in l.vertices])
        box = tuple((lo - 1, hi + 1) for lo, hi in l.bounding_box())
        splits = EnumerateStrategy(1, box).splits_for_round(1)
        witnesses = [f, *l.vertices, tuple(x + 100 for x in f)]
        q = lift(model, l, floor=rng.randint(1, 8)).poly
        for _ in range(2):
            for s in (splits, *([one] for one in rng.sample(splits, 3))):
                want = ranks._profile(apply_round(q, s), witnesses)
                assert ranks._round_profile(q, s, witnesses) == want
            q = apply_round(q, splits)
    thin = convex_hull([(F(1, 4), 0), (F(3, 4), 0), (F(1, 2), 1)])
    corner = convex_hull([(*x, z) for x in ((0, F(1, 2)), (F(1, 2), 0), (F(1, 2), F(1, 2)))
                          for z in (0, 1)])
    for q, s, w in ((thin, [Split.make((1,), 0)], (F(1, 2),)),
                    (corner, [Split.make((1, 0), 0), Split.make((0, 1), 0)], (0, F(1, 2)))):
        assert apply_round(q, s).is_empty
        empty = ranks.HeightProfile(((w, None),), None)
        assert ranks._round_profile(q, s, [w]) == ranks._profile(apply_round(q, s), [w]) == empty


def test_executor_slab():
    cone = lift(SQ_MODEL, UNIT_SQ, floor=8)
    report = execute_finite_rank(
        cone, (SplitSequence.make([]), Split.make((1, 0), 0))
    )
    assert report.verdict == "height_nonpositive_at_round_q"
    assert report.q == 1
    assert report.profiles[-1].samples[0][1] == 0  # exact zero at the apex shadow


def test_executor_type2_regression():
    cone = lift(T2_MODEL, T2, floor=8)
    program = (SplitSequence.make([Split.make((0, 1), 0)]), Split.make((1, 0), 0))
    report = execute_finite_rank(cone, program)
    assert report.verdict == "height_nonpositive_at_round_q"
    assert report.q == 5  # frozen regression value
    assert report.q == len(report.sequence.splits)
    assert report.sequence.provenance == ("facet-round",) * 3 + ("user",) * 2
    assert report.rounds_applied == 1
    assert report.profiles[-1].global_max == 0
    # the recorded sequence replays to the same bound
    replay = probe_rounds(
        cone, ExplicitStrategy(report.sequence), report.q, [T2_MODEL.f]
    )
    assert replay.verdict == "height_nonpositive_at_round_q"
    assert replay.q == report.q


def test_executor_rejects_type1_programs():
    cone = lift(TYPE1_MODEL, TYPE1_T, floor=8)
    # no split confines the triangle (lattice width 2), so no program validates
    for pi, pi0 in (((1, 0), 0), ((0, 1), 0), ((1, 1), 0), ((1, 1), 1)):
        with pytest.raises(GeometryError):
            execute_finite_rank(
                cone, (SplitSequence.make([]), Split.make(pi, pi0))
            )
    # a non-intersecting program split is rejected as well
    with pytest.raises(GeometryError):
        execute_finite_rank(
            cone,
            (SplitSequence.make([Split.make((1, 0), 10)]), Split.make((1, 0), 0)),
        )


def test_probe_rounds_refuses_a_budget_below_one():
    # no split would be applied
    cone = lift(SQ_MODEL, UNIT_SQ, floor=8)
    with pytest.raises(GeometryError, match="budget must be a positive"):
        probe_rounds(cone, ExplicitStrategy(SplitSequence.make([])), 0, [SQ_MODEL.f])


def test_executor_refuses_splits_outside_x_space():
    cone = lift(SQ_MODEL, UNIT_SQ, floor=8)
    for englobing in (Split.make((1,), 0), Split.make((1, 0, 0), 0)):
        with pytest.raises(GeometryError, match="do not fit"):
            execute_finite_rank(cone, (SplitSequence.make([]), englobing))
    with pytest.raises(GeometryError, match="do not fit"):
        execute_finite_rank(
            cone, (SplitSequence.make([Split.make((0, 0, 1), 0)]), Split.make((1, 0), 0))
        )


def test_necessity_witness():
    face, point = necessity_witness(TYPE1_T)
    assert set(face.vertices) == set(TYPE1_T.vertices)
    assert convex_hull(face.vertices).relint_contains(point)
    n3 = convex_hull([(F(-1, 2), F(-3, 2), 2), (4, 0, 3), (4, F(5, 2), F(1, 2)), (4, 3, -1)])
    face, point = necessity_witness(n3)
    assert face.dimension == 3 and point == (F(10, 3), F(7, 6), F(7, 6))
    assert convex_hull(face.vertices).relint_contains(point)
    lp = convex_hull(
        [
            (F(1, 4), F(1, 4), F(3, 2)),
            (F(-1, 2), F(-1, 2), 0),
            (F(5, 2), F(-1, 2), 0),
            (F(-1, 2), F(5, 2), 0),
        ]
    )
    assert necessity_witness(lp) is None


def test_rotate_facet_example():
    body = Polyhedron.from_inequalities(
        [((-2, 0), F(1)), ((0, -2), F(1)), ((2, 2), F(1))], 2
    )
    repaired = rotate_facet(body, 2)
    assert repaired.contains_polyhedron(body)
    assert lattice_points(repaired) == lattice_points(body)
    new = set(repaired.facet_inequalities()) - set(body.facet_inequalities())
    assert {(a, b) for a, b in new} == {((7, 8), F(5))}
    with pytest.raises(GeometryError):
        rotate_facet(TYPE1_T, 0)  # every facet plane of the triangle is integer


def _reference_rotate_facet(l, facet_index):
    """The earlier rotate_facet: the same first candidate, then the tilt λ
    doubled up to 60 times until a candidate passes every check."""
    if not l.is_bounded or l.is_empty or l.affine_dim() != l.dim:
        raise GeometryError("facet repair needs a full-dimensional polytope")
    facets = l.facet_inequalities()
    if not 0 <= facet_index < len(facets):
        raise GeometryError("facet index out of range")
    a1, b1 = facets[facet_index]
    if b1.denominator == 1:
        raise GeometryError("facet hyperplane already contains integer points")
    m = l.dim
    beta = ceil(b1)
    _, u, _ = _column_echelon([list(a1)], m)
    d, *kernel = zip(*u)
    x0 = tuple(beta * x for x in d)
    c = integer_solve_rows(list(zip([*kernel, d], [1] + [0] * (m - 1))))
    others = [facets[i] for i in range(len(facets)) if i != facet_index]
    slice_rows = others + [(a1, F(beta)), (tuple(-x for x in a1), F(-beta))]
    level_slice = Polyhedron.from_inequalities(slice_rows, m)
    if level_slice.is_empty:
        k = -1
    else:
        k = floor(min(dot(c, v) for v in level_slice.vertices)) - 1
    anchor_val = dot(c, x0) + k
    lam = 1
    for v in l.vertices:
        lam = max(lam, ceil((dot(c, v) - anchor_val) / (F(beta) - dot(a1, v))) + 1)
    for _ in range(60):
        n = tuple(c[i] + lam * a1[i] for i in range(m))
        candidate = Polyhedron.from_inequalities(others + [(n, F(anchor_val + lam * beta))], m)
        if (
            candidate.is_bounded
            and not candidate.is_empty
            and candidate.contains_polyhedron(l)
            and lattice_points(candidate) == lattice_points(l)
        ):
            new_facets = set(candidate.facet_inequalities()) - set(others)
            if new_facets and all(bb.denominator == 1 for _, bb in new_facets):
                return candidate
        lam *= 2
    raise GeometryError("facet repair did not converge")


# bodies whose facet x <= 1/2 has an empty level slice S (the other facets
# keep them below x = 1) and every tilt of it is redundant, so its repair is
# refused; their facet x + y (+ z) <= 3/4 has a nonempty S and is repaired
S_EMPTY_BODIES = [
    Polyhedron.from_inequalities(
        [((-1, 0), 0), ((0, -1), 0), ((1, 1), F(3, 4)), ((1, 0), F(1, 2))], 2
    ),
    Polyhedron.from_inequalities(
        [((-1, 0), 0), ((0, -1), 0), ((1, 1), F(3, 4)), ((0, 1), F(1, 2))], 2
    ),
    Polyhedron.from_inequalities(
        [((-1, 0, 0), 0), ((0, -1, 0), 0), ((0, 0, -1), 0), ((1, 1, 1), F(3, 4)),
         ((1, 0, 0), F(1, 2))],
        3,
    ),
]


def _lattice_free_polytopes(rng, count):
    """Seeded full-dimensional lattice-free polytopes in 2D and 3D with
    vertices over 2 and 3; every 8th is a planted S_EMPTY_BODIES entry."""
    made = 0
    while made < count:
        if made % 8 == 0:
            yield S_EMPTY_BODIES[made // 8 % len(S_EMPTY_BODIES)]
            made += 1
            continue
        dim = rng.choice((2, 3))
        pts = [
            tuple(F(rng.randint(-3, 6), rng.choice((2, 3))) for _ in range(dim))
            for _ in range(rng.randint(dim + 1, dim + 3))
        ]
        body = convex_hull(pts)
        if body.affine_dim() == dim and interior_integer_point(body) is None:
            yield body
            made += 1


def _repair(fn, body, index):
    try:
        return fn(body, index)
    except GeometryError:
        return None


def test_rotate_facet_matches_doubling_reference():
    repaired = refused = 0
    for body in _lattice_free_polytopes(make_rng(), 80):
        for index, (a, b) in enumerate(body.facet_inequalities()):
            if b.denominator == 1:
                continue
            got = _repair(rotate_facet, body, index)
            want = _repair(_reference_rotate_facet, body, index)
            assert got == want, (body, index)  # == compares dim, gens and rows
            repaired += got is not None
            refused += got is None
    # the 10 planted bodies give at least 10 of each
    assert repaired >= 10 and refused >= 10


@pytest.mark.parametrize(
    "body, index, message, conversions",
    [
        (Polyhedron.from_inequalities([((-1,), 0), ((1,), F(1, 2))], 1), 1,
         "a facet of an interval cannot be repaired", 0),
        (S_EMPTY_BODIES[0], 2, "every tilted facet is redundant", 2),
    ],
    ids=["interval", "s-empty"],
)
def test_rotate_facet_refusals(monkeypatch, body, index, message, conversions):
    """A refusal costs at most the two H->V passes of the level slice and
    of the tilted candidate."""
    calls = []
    convert = ranks._h_to_v

    def counting(rows, dim):
        calls.append(dim)
        return convert(rows, dim)

    monkeypatch.setattr(ranks, "_h_to_v", counting)
    with pytest.raises(GeometryError, match=message):
        rotate_facet(body, index)
    assert len(calls) == conversions


def test_ranks_builds_no_polyhedron_through_a_constructor(monkeypatch):
    """lift, both round drivers and facet repair build every polyhedron
    from integer rows and generators they already hold: none of them calls
    ``from_inequalities``, ``from_generators`` or ``convex_hull``."""
    rotate_body = Polyhedron.from_inequalities([((-2, 0), 1), ((0, -2), 1), ((2, 2), 1)], 2)
    lp = convex_hull([(F(1, 4), F(1, 4), F(3, 2)), (F(-1, 2), F(-1, 2), 0),
                      (F(5, 2), F(-1, 2), 0), (F(-1, 2), F(5, 2), 0)])
    lp_model = CornerModel.make((F(1, 2),) * 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])

    def refuse(*args):
        raise AssertionError("a polyhedron was built through a constructor")

    monkeypatch.setattr(Polyhedron, "from_inequalities", staticmethod(refuse))
    monkeypatch.setattr(Polyhedron, "from_generators", staticmethod(refuse))
    for module in (geometry, cuts):
        monkeypatch.setattr(module, "convex_hull", refuse)
    cone = lift(TYPE1_MODEL, TYPE1_T, floor=4)
    report = probe_rounds(cone, EnumerateStrategy(1, PROBE_BOX), 2, [TYPE1_MODEL.f])
    assert report.rounds_applied == 2
    assert lift(lp_model, lp, floor=1).x_dim == 3
    program = (SplitSequence.make([Split.make((0, 1), 0)]), Split.make((1, 0), 0))
    assert execute_finite_rank(lift(T2_MODEL, T2, floor=8), program).q == 5
    assert rotate_facet(rotate_body, 2).contains_polyhedron(rotate_body)
    with pytest.raises(GeometryError, match="every tilted facet is redundant"):
        rotate_facet(S_EMPTY_BODIES[0], 2)
