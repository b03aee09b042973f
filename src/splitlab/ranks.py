"""Lifted cones, height functions and split-rank probing.

The corner relaxation is lifted to (x, z)-space as a cone with apex
(f, 1) whose slice at z = 0 is the lattice-free body; the cut under
study has split rank at most t exactly when t rounds of splits push the
lifted cone's height down to zero.  This module applies split programs
to truncated lifts, records height profiles, certifies persistence
witnesses and repairs facets whose hyperplanes miss the integer lattice.
Strategies (``probe_rounds``) and validated programs
(``execute_finite_rank``) share one loop, ``_drive``, that applies the
rounds, profiles the heights and decides the verdict.  Nothing reads the
last round's polyhedron, so it is evaluated only at its top vertex and at
the witnesses, which is exact: a point in every split's hull lies in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, pairwise, takewhile
from math import gcd
from operator import mul
from typing import Iterable, Optional, Sequence

from .certify import Face, has_2hyperplane_property
from .cuts import CornerModel
from .geometry import (
    MAX_DIM,
    GeometryError,
    IntVec,
    Point,
    Polyhedron,
    _canonical,
    _cut_by,
    _facets,
    _h_to_v,
    _integer,
    _over_denominator,
    _polyhedron,
    _primitive,
    _row_ineq,
    as_point,
    require_lattice_free,
)
from .linalg import _column_echelon, dot, integer_solve_rows, rank
from .splits import (
    Split,
    SplitSequence,
    _live,
    _split_rows,
    apply_round,
    apply_split,
    classify_split,
    enumerate_splits,
    facet_splits,
    split_confines,
)

# the benchmark's tracer pins this alias of an imported function
# (bench/tests/test_bench.py::test_rebinding_covers_aliased_imports)
mat_rank = rank

DEFAULT_FLOOR = 64


@dataclass(frozen=True)
class LiftedCone:
    """The cone with apex (f, 1) over a lattice-free body l in (x, z)-space,
    cut by the floor z >= -floor: a relaxation, which can lower heights."""

    poly: Polyhedron
    apex: Point
    base: Polyhedron  # l itself, the cone's z = 0 slice

    @property
    def x_dim(self) -> int:
        return self.poly.dim - 1


@dataclass(frozen=True)
class HeightProfile:
    """Heights at declared witness points plus the global maximum."""

    samples: tuple[tuple[Point, Optional[Fraction]], ...]
    global_max: Optional[Fraction]


@dataclass(frozen=True)
class ProbeReport:
    rounds_applied: int
    profiles: tuple[HeightProfile, ...]  # index r = state after r rounds
    verdict: str  # height_nonpositive_at_round_q | persists_positive_through_budget
    q: Optional[int]
    sequence: SplitSequence  # every split applied, in order


def _nonempty(items: Sequence) -> Sequence:
    if not items:
        raise GeometryError("strategy produced an empty split set")
    return items


@dataclass(frozen=True)
class EnumerateStrategy:
    """Every enumerated split touching the box, in every round.

    The splits are enumerated once per strategy and kept as a tuple.
    """

    bound: int
    box: tuple[tuple[Fraction, Fraction], ...]

    @cached_property
    def _splits(self) -> tuple[Split, ...]:
        return tuple(enumerate_splits(self.bound, self.box))

    def splits_for_round(self, r: int) -> tuple[Split, ...]:
        return _nonempty(self._splits)


@dataclass(frozen=True)
class ExplicitStrategy:
    """One split of the sequence per round; no splits past its end."""

    sequence: SplitSequence

    def splits_for_round(self, r: int) -> list[Split]:
        seq = _nonempty(self.sequence.splits)
        return [seq[r - 1]] if r <= len(seq) else []


def lift(model: CornerModel, l: Polyhedron, floor: int = DEFAULT_FLOOR) -> LiftedCone:
    """Build the truncated lifted cone of the model over l.

    The cone has vertex (f, 1) and rays dropping through the vertices of l
    to the z = 0 slice, which is l, the cone's base.  The floor z >= -floor
    is a relaxation that makes the cone a polytope; it can lower heights
    (see probe_rounds).

    The double description is read off l's, in integers, with f = nf/df:
    the apex (nf, df, df) and the floor images ((floor + 1)·n·df −
    floor·nf·t, −floor·t·df, t·df) of l's vertices (n, t) span a pyramid
    with the floor row −z − floor·t <= 0, tight on every image, and for
    each facet row (a, c) of l the facet (df·a, −c·df − a·nf, c·df), tight
    on the apex and where it is df²·(floor + 1)·(a·n + c·t) = 0: on the
    images of that facet's vertices.  l's −t <= 0 gives z <= 1, no facet.
    """
    if l.dim >= MAX_DIM:
        raise GeometryError(f"lift needs a body of dimension at most {MAX_DIM - 1}, got {l.dim}")
    floor = _integer(floor)
    if floor < 1:
        raise GeometryError("floor must be a positive integer")
    require_lattice_free(l)
    if not l.interior_contains(model.f):
        raise GeometryError("reference point must lie in the interior")
    nf, df = _over_denominator(model.f)
    m, up = model.dim, (floor + 1) * df
    rows = [
        _primitive((*(df * x for x in a), -c * df - dot(a, nf), c * df), 1)
        for *a, c in l.rows[:-1]
    ]
    gens = [(*nf, df, df)] + [
        _primitive((*(up * x - floor * y * t for x, y in zip(n, nf)), -floor * t * df, t * df), 1)
        for *n, t in l.gens
    ]
    tight = [1 | sum(2 << i for i, b in enumerate(l.masks) if b >> k & 1) for k in range(len(rows))]
    facets, masks = _facets(gens, [*rows, (0,) * m + (-1, -floor)], tight + [(1 << len(gens)) - 2])
    apex = tuple(model.f) + (Fraction(1),)
    return LiftedCone(_polyhedron(m + 1, facets, gens, masks), apex, l)


def height_at(q: Polyhedron, x: Sequence) -> Optional[Fraction]:
    """max{z : (x, z) in q}, or None when the fiber is empty.

    One-variable exact maximization over the integer rows a·x + c·z + e·t
    <= 0 of q, with x = n/d over a common denominator d: row r gives
    s = a·n + e·d, and a row with c = r[-2] = 0 needs s <= 0, while one
    with c > 0 bounds z above by −s/(c·d).  The least bound is the height
    unless a row with c < 0 cuts it off.  The empty q's row t <= 0 has
    c = 0 and s = d > 0, so its fiber is empty at every x.  The result
    is finite for truncated lifts since the floor bounds z below and the
    apex bounds it above.
    """
    n, d = _over_denominator(x)
    if len(n) != (m := q.dim - 1):
        raise GeometryError(f"witness point has {len(n)} coordinates, but the x-space of q has {m}")
    # the homogenizing row −t <= 0 has c = 0 and s = −d, so it always holds
    rows = [(r[-2], dot(r[:-2], n) + r[-1] * d) for r in q.rows]
    if any(c == 0 and s > 0 for c, s in rows):
        return None
    bounds = [(-s, c * d) for c, s in rows if c > 0]
    if not bounds:
        raise GeometryError("height is unbounded above at this point")
    num, den = bounds[0]
    for a, b in bounds[1:]:
        if a * den < num * b:
            num, den = a, b
    # the fiber may still be empty if the floor-side constraints conflict
    if any(c < 0 and s * den + c * num * d > 0 for c, s in rows):
        return None
    return Fraction(num, den)


def _top(gens: Sequence[IntVec]) -> Optional[IntVec]:
    """The first vertex (n, t) with the largest n_z/t, in integers; None with none."""
    top = None
    for g in gens:
        if g[-1] and (top is None or g[-2] * top[-1] > top[-2] * g[-1]):
            top = g
    return top


def max_height(q: Polyhedron) -> Optional[Fraction]:
    """Maximum z over q, the largest n_z/t over its vertices (n, t); None if empty."""
    if any(g[-2] > 0 and not g[-1] for g in q.gens):
        raise GeometryError("polyhedron is unbounded in the z direction")
    top = _top(q.gens)
    return None if top is None else Fraction(top[-2], top[-1])


def _profile(q: Polyhedron, witnesses: Sequence[Point]) -> HeightProfile:
    samples = tuple((w, height_at(q, w)) for w in witnesses)
    return HeightProfile(samples, max_height(q))


def _round_profile(
    q: Polyhedron, splits: Sequence[Split], witnesses: Sequence[Point]
) -> HeightProfile:
    """``_profile(apply_round(q, splits), witnesses)``, read only at the
    round's top vertex and each witness's fiber top, by separation.  R, q
    cut by some live splits' hulls (``_live``), holds the round's result Q;
    it is raw (``_cut_by``), which ``height_at`` and ``max_height`` read as
    they read any rows and generators.  A point p of R lies in Q iff it
    lies in every hull, as it does unless strictly between a split's
    planes.  So R is cut by the hull (``_split_rows``, once per split) of
    the first live split with p strictly between its planes and outside
    its hull, until none is: p then lies in Q, highest there as in R."""
    live, hulls = _live(q, splits), {}

    def cut(r: Polyhedron, p: IntVec) -> Optional[Polyhedron]:
        for i, (_, row, a, vals, lo) in enumerate(live):
            if 0 < sum(map(mul, row, p)) < p[-1]:
                if i not in hulls:  # no rows when R lies in the hull, as in apply_round
                    held = not any(0 < sum(map(mul, row, g)) < g[-1] for g in r.gens)
                    hulls[i] = () if held else _split_rows(q, a, vals, lo)
                if hulls[i] is None:
                    return Polyhedron.empty(q.dim)
                if any(sum(map(mul, h, p)) > 0 for h in hulls[i]):
                    rows, gens, masks = _cut_by(q.dim, r.rows, r.gens, r.masks, hulls[i])
                    return Polyhedron(q.dim, tuple(gens), rows, tuple(masks))
        return None  # p lies in every hull

    r = q
    while (p := _top(r.gens)) and (s := cut(r, p)):
        r = s
    top, samples = max_height(r), []
    for w in witnesses:
        while (h := height_at(r, w)) is not None:
            n, d = _over_denominator((*w, h))
            if not (s := cut(r, (*n, d))):
                break
            r = s
        samples.append((w, h))
    return HeightProfile(tuple(samples), top)


def _in_x_space(cone: LiftedCone, splits: Sequence[Split]) -> Sequence[Split]:
    """The splits, refused unless each lives in the cone's x-space."""
    if any(len(s.pi) != cone.x_dim for s in splits):
        raise GeometryError("split coordinates do not fit the ambient dimension")
    return splits


def _drive(
    cone: LiftedCone,
    rounds: Iterable[Sequence[tuple[Sequence[Split], str]]],
    witnesses: Sequence[Point],
    count_splits: bool = False,
) -> ProbeReport:
    """The round loop of probe_rounds and execute_finite_rank.

    Each round is a list of (splits, tag) steps, applied in order with
    ``apply_round`` (one split is a round of one, as in ``apply_split``).
    The heights are profiled after each round, up to the first round
    whose maximum height is nonpositive; q is the number of rounds then,
    or of splits with count_splits.  The last round is read only at its
    top vertex and the witnesses: a point in every split's hull is in it.
    """
    q = cone.poly
    profiles = [_profile(q, witnesses)]
    applied: list[Split] = []
    tags: list[str] = []
    verdict = "persists_positive_through_budget"
    q_stop: Optional[int] = None
    for steps, later in pairwise(chain(rounds, [None])):
        last = later is None  # nothing reads this round's polyhedron
        for k, (splits, tag) in enumerate(steps, 1):
            if not last or k < len(steps):
                q = apply_round(q, splits)
            applied.extend(splits)
            tags.extend([tag] * len(splits))
        profiles.append(_round_profile(q, splits, witnesses) if last else _profile(q, witnesses))
        top = profiles[-1].global_max
        if top is None or top <= 0:
            verdict = "height_nonpositive_at_round_q"
            q_stop = len(applied) if count_splits else len(profiles) - 1
            break
    seq = SplitSequence.make(applied, tags)
    return ProbeReport(len(profiles) - 1, tuple(profiles), verdict, q_stop, seq)


def probe_rounds(
    cone: LiftedCone,
    strategy: EnumerateStrategy | ExplicitStrategy,
    budget: int,
    witnesses: Sequence[Sequence],
) -> ProbeReport:
    """Apply a split strategy round by round and record heights.

    Each round intersects the results of applying every split of the
    round's set (one split per round for an explicit sequence), each a
    split of the cone's x-space; the rounds run through ``_drive``, the
    loop shared with execute_finite_rank, up to the budget or until the
    strategy has no splits left.  The last round is read only at its top
    vertex and the witnesses (``_round_profile``), exactly, as a point in
    every split's hull lies in the round.  A round at which the maximum
    height becomes nonpositive certifies that
    many rounds as an upper bound on the split rank of the floor-truncated set
    only: the truncation can lower heights, so the untruncated cone may still
    be positive there (T3 reaches height 0 at round 5 with floor 2 but is
    about 0.1094 without the floor).
    """
    if budget < 1:
        raise GeometryError("budget must be a positive number of rounds")
    sets = (_in_x_space(cone, strategy.splits_for_round(r)) for r in range(1, budget + 1))
    rounds = ([(splits, "user")] for splits in takewhile(bool, sets))
    return _drive(cone, rounds, [as_point(w) for w in witnesses])


def necessity_witness(l: Polyhedron) -> Optional[tuple[Face, Point]]:
    """A face blocking every finite split program, with a relint point.

    Returns the first face of the integer hull that lies in no facet of
    l and is not 2-partitionable, with the centroid of its ``points``, or
    None when l has the 2-hyperplane property.
    """
    report = has_2hyperplane_property(l)
    for entry in report.entries:
        cert = entry.certificate
        if cert is not None and cert.outcome == "not_partitionable":
            pts = entry.face.points
            return entry.face, tuple(Fraction(sum(c), len(pts)) for c in zip(*pts))
    return None


# ---------------------------------------------------------------------------
# the finite-rank executor


def execute_finite_rank(
    cone: LiftedCone,
    program: tuple[SplitSequence, Split],
) -> ProbeReport:
    """Drive the lifted cone's height to zero with a validated program.

    One iteration performs, for each program split, a round of facet
    splits around the current shadow polytope followed by the split
    itself, and finishes with the englobing split.  Up to 64 iterations
    run through ``_drive``, the loop shared with probe_rounds.  Every
    application is counted toward q, the reported split-rank upper bound.
    """
    sequence, englobing = program
    _in_x_space(cone, [*sequence.splits, englobing])
    # validate against the shadow sequence in x-space
    shadows = [cone.base]
    for s in sequence.splits:
        cls = classify_split(shadows[-1], s)
        if not cls.intersecting:
            raise GeometryError(
                f"program split {s} is not intersecting for its shadow polytope"
            )
        shadows.append(apply_split(shadows[-1], s))
    if not split_confines(shadows[-1], englobing):
        raise GeometryError(
            f"program split {englobing} does not confine the final shadow to its slab"
        )

    steps: list[tuple[Sequence[Split], str]] = []
    for shadow, s in zip(shadows, sequence.splits):
        steps += [(facet_splits(shadow), "facet-round"), ([s], "user")]
    steps.append(([englobing], "user"))
    return _drive(cone, [steps] * 64, [cone.apex[:-1]], count_splits=True)


# ---------------------------------------------------------------------------
# facet repair


def rotate_facet(l: Polyhedron, facet_index: int) -> Polyhedron:
    """Replace a facet whose hyperplane misses the lattice.

    The facet is l's row a·x + e·t <= 0 at facet_index in the sorted order
    of the inequality views: a1·x <= b1 = −e/g with g = gcd(a), a1 = a/g
    primitive, so by Bezout its plane misses the lattice iff g ∤ e.  For
    β = ⌈b1⌉ = −(e // g) and the other rows' region O with its level slice
    S = O ∩ {a1·x = β}, the result is O cut by (c + λ·a1)·x <= k + λ·β.
    Here d, kernel is a unimodular basis with a1·d = 1 and a1·kernel = 0,
    the integer c is 1 on kernel[0] and 0 on d and the other kernel
    vectors, k = ⌊min c over S⌋ − 1 (−1 for S empty) and λ = max(1,
    ⌈(c·v − k)/(β − a1·v)⌉ + 1 over l's vertices v), so l meets the row
    strictly.  The row is primitive (1 on kernel[0]); its plane holds
    β·d + k·kernel[0].  S and the result each take one H->V pass over
    integer rows, and k and λ are read off the generators (n, t) of S and l.
    This one candidate is exact:
    - S nonempty: c > k on S, so the result misses S; it is convex and
      holds l, so it lies in a1·x < β, is bounded, has l's integer points
      and differs from O: the row is a facet.
    - S empty: O lies below β, where the row only loosens as λ grows, so
      if it is no facet now it is none for any λ; that is refused.
    - Dimension 1: the facet is a point, and moving it out to an integer
      adds that integer; that is refused.
    That the result contains l and has its integer points is checked.
    """
    if not l.is_bounded or l.affine_dim() != l.dim:
        raise GeometryError("facet repair needs a full-dimensional polytope")
    facets = sorted(l._facet_rows, key=_row_ineq)
    if not 0 <= facet_index < len(facets):
        raise GeometryError("facet index out of range")
    *a, e = facets[facet_index]
    g = gcd(*a)
    if e % g == 0:
        raise GeometryError("facet hyperplane already contains integer points")
    m = l.dim
    if m == 1:
        raise GeometryError("a facet of an interval cannot be repaired without adding an integer")
    a1, beta = tuple(x // g for x in a), -(e // g)
    _, u, _ = _column_echelon([list(a1)], m)
    d, *kernel = zip(*u)
    # the rows form a unimodular matrix, so c is integer
    c = integer_solve_rows(list(zip([*kernel, d], [1] + [0] * (m - 1))))
    others, homog = [r for i, r in enumerate(facets) if i != facet_index], l.rows[-1]
    level = [(*a1, -beta), (*(-x for x in a1), beta)]
    # S is bounded, as l = O ∩ {a1·x <= b1} is, so every t > 0 on S
    slice_gens, _ = _h_to_v([*others, *level, homog], m)
    k = min((dot(c, n) // t for *n, t in slice_gens), default=0) - 1
    # l lies below b1 < β, so every β·t − a1·n > 0
    lam = max(1, *(1 - (k * t - dot(c, n)) // (beta * t - dot(a1, n)) for *n, t in l.gens))
    row = (*(x + lam * y for x, y in zip(c, a1)), -k - lam * beta)
    rows = [*others, row, homog]
    repaired = _canonical(m, rows, *_h_to_v(rows, m))
    # the row is primitive, being 1 on kernel[0], and none of l's rows, as l
    # lies strictly below it: it is a facet of the result iff it is kept
    if row not in repaired.rows:
        raise GeometryError("facet repair is impossible: every tilted facet is redundant")
    if not (repaired.contains_polyhedron(l) and repaired._lattice_points == l._lattice_points):
        raise GeometryError("facet repair postcondition failed: l or its integer points lost")
    return repaired
