"""Lifted cones, height functions and split-rank probing.

The corner relaxation is lifted to (x, z)-space as a cone with apex
(f, 1) whose slice at z = 0 is the lattice-free body; the cut under
study has split rank at most t exactly when t rounds of splits push the
lifted cone's height down to zero.  This module applies split programs
to truncated lifts, records height profiles, certifies persistence
witnesses and repairs facets whose hyperplanes miss the integer lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import ceil, floor as math_floor
from typing import Optional, Sequence, Union

from .certify import Face, has_2hyperplane_property
from .cuts import CornerModel, boundary_hull
from .geometry import (
    GeometryError,
    Hyperplane,
    Point,
    Polyhedron,
    _canonical,
    _integer,
    _over_denominator,
    _primitive,
    as_point,
    lattice_points,
    require_lattice_free,
)
from .linalg import _column_echelon, dot, integer_solve_rows, rank
from .splits import (
    Split,
    SplitSequence,
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
    """A cone over a lattice-free body in (x, z)-space, cut by the floor
    z >= -floor: a relaxation of the cone, which can lower heights."""

    poly: Polyhedron
    apex: Point
    floor: int
    kind: str  # "P^L" or "P^L(x,z)"
    base: Polyhedron  # the z = 0 slice before truncation artifacts

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
    sequence: Optional[SplitSequence] = None


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


Strategy = Union[EnumerateStrategy, ExplicitStrategy]


def lift(
    model: CornerModel,
    l: Polyhedron,
    kind: str = "P^L",
    floor: int = DEFAULT_FLOOR,
) -> LiftedCone:
    """Build the truncated lifted cone of the model over l.

    The cone has vertex (f, 1) and rays dropping to the z = 0 slice:
    through the vertices of l for kind "P^L", through the ray boundary
    points for kind "P^L(x,z)".  The base is the hull of the anchors: l
    itself for kind "P^L".  The floor z >= -floor is a relaxation that
    makes the cone a polytope; it can lower heights (see probe_rounds).

    The double description is read off the base's, in integers, with
    f = nf/df: a base row (a, c) gives the cone row (df·a, −c·df − a·nf,
    c·df), the floor adds −z − floor·t <= 0, and the generators are the
    apex (nf, df, df) and, for each base vertex (n, t), its image on the
    floor ((floor + 1)·n·df − floor·nf·t, −floor·t·df, t·df).
    """
    if kind not in ("P^L", "P^L(x,z)"):
        raise GeometryError(f"unknown lift kind {kind!r}")
    floor = _integer(floor)
    if floor < 1:
        raise GeometryError("floor must be a positive integer")
    require_lattice_free(l)
    if not l.interior_contains(model.f):
        raise GeometryError("reference point must lie in the interior")
    base = l if kind == "P^L" else boundary_hull(model, l)
    nf, df = _over_denominator(model.f)
    m, up = model.dim, (floor + 1) * df
    rows = [
        _primitive((*(df * x for x in a), -c * df - dot(a, nf), c * df), 1) for *a, c in base.rows
    ]
    rows += [(0,) * m + (-1, -floor), (0,) * (m + 1) + (-1,)]
    gens = [(*nf, df, df)] + [
        _primitive((*(up * x - floor * y * t for x, y in zip(n, nf)), -floor * t * df, t * df), 1)
        for *n, t in base.gens
    ]
    masks = [sum(1 << k for k, r in enumerate(rows) if dot(r, g) == 0) for g in gens]
    apex = tuple(model.f) + (Fraction(1),)
    return LiftedCone(_canonical(m + 1, rows, gens, masks), apex, floor, kind, base)


def height_at(q: Polyhedron, x: Sequence) -> Optional[Fraction]:
    """max{z : (x, z) in q}, or None when the fiber is empty.

    One-variable exact maximization over the integer rows a·x + c·z + e·t
    <= 0 of q, with x = n/d over a common denominator d: row r gives
    s = a·n + e·d, and a row with c = r[-2] = 0 needs s <= 0, while one
    with c > 0 bounds z above by −s/(c·d).  The least bound is the height
    unless a row with c < 0 cuts it off.  The result is finite for
    truncated lifts since the floor bounds z below and the apex bounds it
    above.
    """
    n, d = _over_denominator(x)
    if len(n) != q.dim - 1:
        raise GeometryError("witness point must live in the x-space of q")
    if q.is_empty:
        return None
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


def max_height(q: Polyhedron) -> Optional[Fraction]:
    """Maximum z over q, the largest n_z/t over its vertices (n, t);
    None encodes the empty polyhedron."""
    if q.is_empty:
        return None
    if any(g[-2] > 0 and not g[-1] for g in q.gens):
        raise GeometryError("polyhedron is unbounded in the z direction")
    num, den = 0, 0
    for g in q.gens:
        if g[-1] and (den == 0 or g[-2] * den > num * g[-1]):
            num, den = g[-2], g[-1]
    return Fraction(num, den)


def _profile(q: Polyhedron, witnesses: Sequence[Point]) -> HeightProfile:
    samples = tuple((w, height_at(q, w)) for w in witnesses)
    return HeightProfile(samples, max_height(q))


def _in_x_space(cone: LiftedCone, splits: Sequence[Split]) -> Sequence[Split]:
    """The splits, refused unless each lives in the cone's x-space."""
    if any(len(s.pi) != cone.x_dim for s in splits):
        raise GeometryError("split coordinates do not fit the ambient dimension")
    return splits


def probe_rounds(
    cone: LiftedCone,
    strategy: Strategy,
    budget: int,
    witnesses: Sequence[Sequence],
) -> ProbeReport:
    """Apply a split strategy round by round and record heights.

    Each round intersects the results of applying every split of the
    round's set (one split per round for an explicit sequence), each a
    split of the cone's x-space.  A round at which the maximum height
    becomes nonpositive certifies that many rounds as an upper bound on
    the split rank of the floor-truncated set only: the truncation can
    lower heights, so the untruncated cone may still be positive there
    (T3 reaches height 0 at round 5 with floor 2 but is about 0.1094
    without the floor).
    """
    if budget < 1:
        raise GeometryError("budget must be a positive number of rounds")
    wit = [as_point(w) for w in witnesses]
    q = cone.poly
    profiles = [_profile(q, wit)]
    applied: list[Split] = []
    verdict = "persists_positive_through_budget"
    q_round: Optional[int] = None
    rounds_done = 0
    for r in range(1, budget + 1):
        splits = _in_x_space(cone, strategy.splits_for_round(r))
        if not splits:
            break
        q = apply_round(q, splits)
        applied.extend(splits)
        rounds_done = r
        profiles.append(_profile(q, wit))
        top = profiles[-1].global_max
        if top is None or top <= 0:
            verdict = "height_nonpositive_at_round_q"
            q_round = r
            break
    seq = SplitSequence.make(applied, ["user"] * len(applied))
    return ProbeReport(rounds_done, tuple(profiles), verdict, q_round, seq)


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
    cap: int = 64,
) -> ProbeReport:
    """Drive the lifted cone's height to zero with a validated program.

    One iteration performs, for each program split, a round of facet
    splits around the current shadow polytope followed by the split
    itself, and finishes with the englobing split.  Every application is
    counted toward q, the reported split-rank upper bound.
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

    witnesses = [cone.apex[:-1]]
    q = cone.poly
    profiles = [_profile(q, witnesses)]
    applied: list[Split] = []
    tags: list[str] = []
    verdict = "persists_positive_through_budget"
    q_final: Optional[int] = None
    rounds_done = 0
    facet_rounds = [facet_splits(shadow) for shadow in shadows[:-1]]
    for _ in range(cap):
        for fs, s in zip(facet_rounds, sequence.splits):
            q = apply_round(q, fs)
            applied.extend(fs)
            tags.extend(["facet-round"] * len(fs))
            q = apply_split(q, s)
            applied.append(s)
            tags.append("user")
        q = apply_split(q, englobing)
        applied.append(englobing)
        tags.append("user")
        rounds_done += 1
        profiles.append(_profile(q, witnesses))
        top = profiles[-1].global_max
        if top is None or top <= 0:
            verdict = "height_nonpositive_at_round_q"
            q_final = len(applied)
            break
    return ProbeReport(
        rounds_done,
        tuple(profiles),
        verdict,
        q_final,
        SplitSequence.make(applied, tags),
    )


# ---------------------------------------------------------------------------
# facet repair


def rotate_facet(l: Polyhedron, facet_index: int) -> Polyhedron:
    """Replace a facet whose hyperplane misses the lattice.

    The new facet hyperplane passes through a lattice point on the next
    integer level of the facet normal, placed far from the polytope, and
    is tilted until the polytope fits under it; the result strictly
    contains l, has the same integer points, and its repaired facet
    plane holds integer points.
    """
    if not l.is_bounded or l.is_empty or l.affine_dim() != l.dim:
        raise GeometryError("facet repair needs a full-dimensional polytope")
    facets = l.facet_inequalities()
    if not 0 <= facet_index < len(facets):
        raise GeometryError("facet index out of range")
    a1, b1 = facets[facet_index]
    if Hyperplane.make(a1, b1).has_integer_point():
        raise GeometryError("facet hyperplane already contains integer points")
    m = l.dim
    beta = ceil(b1)  # next lattice level; b1 is fractional here
    # a unimodular completion of the primitive a1: column 0 is d with
    # a1.d = 1, the others span the lattice inside the level sets
    _, u, _ = _column_echelon([list(a1)], m)
    d, *kernel = zip(*u)
    x0 = tuple(beta * x for x in d)
    # dual vector c with c.kernel[0] = 1, c.kernel[j>0] = 0, c.d = 0 (c.d = 1
    # when m = 1); the rows form a unimodular matrix, so c is integer
    c = integer_solve_rows(list(zip([*kernel, d], [1] + [0] * (m - 1))))

    others = [facets[i] for i in range(len(facets)) if i != facet_index]
    # anchor the new hyperplane strictly outside the slice at the next level
    slice_rows = others + [
        (a1, Fraction(beta)),
        (tuple(-x for x in a1), Fraction(-beta)),
    ]
    level_slice = Polyhedron.from_inequalities(slice_rows, m)
    if level_slice.is_empty:
        k = -1
    else:
        k = math_floor(min(dot(c, v) for v in level_slice.vertices)) - 1
    anchor_val = dot(c, x0) + k
    lam = 1
    for v in l.vertices:
        gap = Fraction(beta) - dot(a1, v)
        need = (dot(c, v) - anchor_val) / gap
        lam = max(lam, ceil(need) + 1)
    for _ in range(60):
        n = tuple(c[i] + lam * a1[i] for i in range(m))
        offset = anchor_val + lam * beta
        candidate = Polyhedron.from_inequalities(others + [(n, Fraction(offset))], m)
        if (
            candidate.is_bounded
            and not candidate.is_empty
            and candidate.contains_polyhedron(l)
            and lattice_points(candidate) == lattice_points(l)
        ):
            new_facets = set(candidate.facet_inequalities()) - set(others)
            if new_facets and all(
                Hyperplane.make(aa, bb).has_integer_point() for aa, bb in new_facets
            ):
                return candidate
        lam *= 2
    raise GeometryError("facet repair did not converge")
