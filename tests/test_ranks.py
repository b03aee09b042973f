"""Lifted cones, height probing, the finite-rank executor, facet repair."""

from fractions import Fraction

import pytest

from splitlab import ranks
from splitlab.cuts import CornerModel
from splitlab.geometry import (
    GeometryError,
    Hyperplane,
    Polyhedron,
    convex_hull,
    lattice_points,
)
from splitlab.linalg import dot
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
    # both lift kinds agree when rays go into the corners
    other = lift(TYPE1_MODEL, TYPE1_T, kind="P^L(x,z)", floor=4)
    assert other.poly == cone.poly


def test_lift_base_is_the_body():
    """Kind "P^L" anchors at l's vertices, so its base is l itself; kind
    "P^L(x,z)" keeps the hull of the ray boundary points."""
    for model, l in ((TYPE1_MODEL, TYPE1_T), (SQ_MODEL, UNIT_SQ), (T2_MODEL, T2)):
        cone = lift(model, l, floor=3)
        assert cone.base is l
        assert cone.base == convex_hull(l.vertices)
    corners = CornerModel.make(
        (F(1, 2), F(1, 2)), [(F(3, 2), F(-1, 2)), (F(-1, 2), F(3, 2)), (-1, -1)]
    )
    other = lift(corners, TYPE1_T, kind="P^L(x,z)", floor=3)
    assert other.base == convex_hull([(2, 0), (0, 2), (0, 0)])
    narrow = CornerModel.make((F(1, 2), F(1, 2)), [(1, 0), (0, 1), (-1, -1)])
    other = lift(narrow, TYPE1_T, kind="P^L(x,z)", floor=3)
    assert other.base == convex_hull([(F(3, 2), F(1, 2)), (F(1, 2), F(3, 2)), (0, 0)])
    assert other.base != TYPE1_T


def test_lift_floor_is_an_integer():
    """A non-integral floor and a bool are refused rather than carried into
    the exact arithmetic; an integral value of another type is stored as an
    int."""
    for floor in (F(5, 2), 2.5, 1.1, True):
        with pytest.raises(GeometryError, match="not an integer"):
            lift(TYPE1_MODEL, TYPE1_T, floor=floor)
    for floor, want in ((2.0, 2), (F(4), 4)):
        cone = lift(TYPE1_MODEL, TYPE1_T, floor=floor)
        assert type(cone.floor) is int and cone.floor == want
        assert cone.poly == lift(TYPE1_MODEL, TYPE1_T, floor=want).poly
    with pytest.raises(GeometryError, match="positive"):
        lift(TYPE1_MODEL, TYPE1_T, floor=0)


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
