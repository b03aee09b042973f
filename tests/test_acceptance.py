"""Acceptance gate: the seven primary criteria, each with a runtime budget.

Every test prints one PASS/FAIL line (visible under pytest -s or in the
captured output of a failure) and asserts both the exact expected values
and the runtime budget.
"""

import time
from fractions import Fraction
from itertools import product

from splitlab.certify import (
    has_2hyperplane_property,
    infinite_rank_2d,
    is_2partitionable,
)
from splitlab.cuts import CornerModel
from splitlab.geometry import (
    Polyhedron,
    apply_unimodular,
    convex_hull,
    lattice_points,
)
from splitlab.linalg import dot
from splitlab.ranks import (
    EnumerateStrategy,
    execute_finite_rank,
    lift,
    probe_rounds,
    rotate_facet,
)
from splitlab.splits import Split, SplitSequence

from conftest import make_rng

F = Fraction

TYPE1_T = convex_hull([(0, 0), (2, 0), (0, 2)])
TYPE1_MODEL = CornerModel.make(
    (F(1, 2), F(1, 2)),
    [(F(-1, 2), F(-1, 2)), (F(3, 2), F(-1, 2)), (F(-1, 2), F(3, 2))],
)

T1_POINTS = [(0, 0, 1), (1, 0, 1), (0, 1, 1)]
T0_POINTS = [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (1, 1, 0), (0, 2, 0)]

L_P = convex_hull(
    [
        (F(1, 4), F(1, 4), F(3, 2)),
        (F(-1, 2), F(-1, 2), 0),
        (F(5, 2), F(-1, 2), 0),
        (F(-1, 2), F(5, 2), 0),
    ]
)
L_PRIME = convex_hull(
    [
        (0, 0, F(-1, 2)),
        (F(5, 2), 0, F(-1, 2)),
        (0, F(5, 2), F(-1, 2)),
        (0, 0, F(3, 2)),
        (F(1, 2), 0, F(3, 2)),
        (0, F(1, 2), F(3, 2)),
    ]
)


def gate(number: int, label: str, budget_s: float):
    """Time the criterion body and print the single PASS/FAIL line."""

    class _Gate:
        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, exc_type, exc, tb):
            elapsed = time.perf_counter() - self.t0
            ok = exc_type is None and elapsed < budget_s
            print(
                f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {label} "
                f"({elapsed:.2f}s / budget {budget_s:.0f}s)"
            )
            if exc_type is None:
                assert elapsed < budget_s, f"criterion {number} over budget"
            return False

    return _Gate()


def test_criterion_1_tetrahedra():
    with gate(1, "3D tetrahedra 2-hyperplane goldens", 5):
        assert has_2hyperplane_property(L_P).overall is True
        report = has_2hyperplane_property(L_PRIME)
        assert report.overall is False
        bad = [
            e
            for e in report.entries
            if e.certificate is not None
            and e.certificate.outcome == "not_partitionable"
        ]
        assert len(bad) == 1
        assert set(bad[0].face.points) == {
            tuple(map(F, p)) for p in T0_POINTS
        }


def test_criterion_2_partitionability_goldens():
    with gate(2, "2-partitionability goldens", 10):
        cert = is_2partitionable(T1_POINTS)
        assert cert.outcome == "partitionable"
        assert all(dot(cert.split.pi, p) == cert.split.pi0 for p in cert.s1)
        assert all(dot(cert.split.pi, p) == cert.split.pi0 + 1 for p in cert.s2)
        # the planes x1 = 0 and x1 = 1 carry a valid bipartition of T1
        s1 = [p for p in T1_POINTS if p[0] == 0]
        s2 = [p for p in T1_POINTS if p[0] == 1]
        assert s1 and s2 and len(s1) + len(s2) == len(T1_POINTS)
        # T0 negative, cross-validated by exhaustive enumeration up to norm 3
        assert is_2partitionable(T0_POINTS).outcome == "not_partitionable"
        for pi in product(range(-3, 4), repeat=3):
            if not any(pi):
                continue
            vals = {dot(pi, p) for p in T0_POINTS}
            assert not (len(vals) == 2 and max(vals) - min(vals) == 1)


def test_criterion_3_infinite_rank_probe():
    with gate(3, "infinite-rank predicate and persistence probe", 180):
        assert infinite_rank_2d(TYPE1_MODEL, TYPE1_T) is True
        cone = lift(TYPE1_MODEL, TYPE1_T, floor=4)
        box = ((F(-1), F(3)), (F(-1), F(3)))
        report = probe_rounds(cone, EnumerateStrategy(2, box), 3, [TYPE1_MODEL.f])
        assert report.verdict == "persists_positive_through_budget"
        heights = [p.samples[0][1] for p in report.profiles]
        assert heights == [1, F(1, 3), F(1, 5), F(1, 11)]
        assert all(h > 0 for h in heights)
        # removing the corner ray flips the predicate
        partial = CornerModel.make(
            (F(1, 2), F(1, 2)),
            [
                (F(3, 2), F(-1, 2)),
                (F(-1, 2), F(3, 2)),
                (F(-1, 2), F(-1, 4)),
                (F(-1, 4), F(-1, 2)),
            ],
        )
        assert infinite_rank_2d(partial, TYPE1_T) is False


def test_criterion_4_finite_rank_executor():
    with gate(4, "finite-rank executor goldens", 60):
        slab = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
        slab_model = CornerModel.make(
            (F(1, 2), F(1, 2)), [(1, 0), (-1, 0), (0, 1), (0, -1)]
        )
        cone = lift(slab_model, slab, floor=8)
        report = execute_finite_rank(
            cone, (SplitSequence.make([]), Split.make((1, 0), 0))
        )
        assert report.q == 1
        assert report.profiles[-1].samples[0][1] == 0
        t2 = convex_hull([(0, F(-1, 2)), (0, F(3, 2)), (2, F(1, 2))])
        t2_model = CornerModel.make(
            (F(1, 2), F(1, 2)), [(F(-1, 2), -1), (F(-1, 2), 1), (F(3, 2), 0)]
        )
        cone = lift(t2_model, t2, floor=8)
        program = (
            SplitSequence.make([Split.make((0, 1), 0)]),
            Split.make((1, 0), 0),
        )
        report = execute_finite_rank(cone, program)
        assert report.verdict == "height_nonpositive_at_round_q"
        assert report.profiles[-1].global_max <= 0
        assert report.q == 5  # frozen regression value


def test_criterion_5_rank_equivalence_consistency():
    with gate(5, "randomized infinite-rank vs 2-hyperplane consistency", 600):
        from test_properties import (
            invert_unimodular,
            model_to_vertices,
            random_unimodular,
            transport_model,
            transport_split,
        )

        rng = make_rng()
        square = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
        t2 = convex_hull([(0, F(-1, 2)), (0, F(3, 2)), (2, F(1, 2))])
        quad = convex_hull(
            [
                (F(1, 2), -F(1, 2)),
                (F(3, 2), F(1, 2)),
                (F(1, 2), F(3, 2)),
                (-F(1, 2), F(1, 2)),
            ]
        )
        seeds = [
            (TYPE1_T, None),
            (square, (SplitSequence.make([]), Split.make((1, 0), 0))),
            (t2, (SplitSequence.make([Split.make((0, 1), 0)]), Split.make((1, 0), 0))),
            (quad, None),
        ]
        instances = 0
        for _ in range(6):
            for body, program in seeds:
                u = random_unimodular(rng, 2)
                u_inv = invert_unimodular(u)
                shift = (rng.randint(-3, 3), rng.randint(-3, 3))
                image = apply_unimodular(body, u, shift)
                model = transport_model(
                    model_to_vertices(body, (F(1, 2), F(1, 2))), u, shift
                )
                has_2hp = has_2hyperplane_property(image).overall
                if infinite_rank_2d(model, image):
                    assert not has_2hp  # evidence only without the property
                if program is not None:
                    moved = (
                        SplitSequence.make(
                            [
                                transport_split(s, u_inv, shift)
                                for s in program[0].splits
                            ]
                        ),
                        transport_split(program[1], u_inv, shift),
                    )
                    run = execute_finite_rank(lift(model, image, floor=8), moved)
                    assert run.verdict == "height_nonpositive_at_round_q"
                    assert has_2hp  # executor success only with the property
                instances += 1
        assert instances >= 20


def test_criterion_6_kernel_property_suites():
    with gate(6, "kernel property suites (>= 100 cases each)", 300):
        import test_cuts
        import test_geometry
        import test_linalg
        import test_properties
        import test_ranks
        import test_splits

        test_geometry.test_hull_round_trip_randomized()
        test_geometry.test_lattice_points_vs_box_scan_randomized()
        test_linalg.test_integer_solve_vs_brute_force()
        test_cuts.test_gauge_homogeneity_and_sublinearity_randomized()
        test_ranks.test_height_concavity_randomized()
        test_splits.test_split_monotonicity_randomized()
        test_splits.test_englobing_idempotence_randomized()
        test_properties.test_floor_insensitivity_randomized()


def test_criterion_7_facet_repair():
    with gate(7, "facet repair on 10 non-lattice facets", 10):
        rng = make_rng()
        repaired_count = 0
        while repaired_count < 10:
            # random triangle with one facet scaled off the lattice
            sx, sy = rng.randint(1, 3), rng.randint(1, 3)
            body = Polyhedron.from_inequalities(
                [
                    ((-2 * sx, 0), F(1)),
                    ((0, -2 * sy), F(1)),
                    ((2, 2), F(rng.choice((1, 3)))),
                ],
                2,
            )
            facets = body.facet_inequalities()
            idx = next(
                i
                for i, (a, b) in enumerate(facets)
                if b.denominator != 1
            )
            repaired = rotate_facet(body, idx)
            assert repaired.contains_polyhedron(body)
            assert lattice_points(repaired) == lattice_points(body)
            new = set(repaired.facet_inequalities()) - set(facets)
            assert new and all(
                b.denominator == 1 for a, b in new
            )
            repaired_count += 1
