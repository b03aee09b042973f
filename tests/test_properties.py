"""Randomized consistency suites over unimodular images of seed bodies.

Every instance is a unimodular transform plus integer shift of a seed
lattice-free body, so ground truth (classification, the 2-hyperplane
property, known split programs) transports along the map.
"""

from fractions import Fraction

from splitlab.certify import has_2hyperplane_property, infinite_rank_2d
from splitlab.cuts import CornerModel
from splitlab.geometry import (
    Polyhedron,
    apply_unimodular,
    convex_hull,
    lattice_points,
    require_lattice_free,
)
from splitlab.linalg import dot, integer_solve_rows
from splitlab.ranks import (
    EnumerateStrategy,
    execute_finite_rank,
    height_at,
    lift,
    probe_rounds,
)
from splitlab.splits import Split, SplitSequence, apply_split

from conftest import make_rng

F = Fraction

TYPE1_T = convex_hull([(0, 0), (2, 0), (0, 2)])
UNIT_SQ = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
T2 = convex_hull([(0, F(-1, 2)), (0, F(3, 2)), (2, F(1, 2))])
QUAD = convex_hull(
    [(F(1, 2), -F(1, 2)), (F(3, 2), F(1, 2)), (F(1, 2), F(3, 2)), (-F(1, 2), F(1, 2))]
)
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


def random_unimodular(rng, dim):
    """Product of random integer shears: determinant one by construction."""
    u = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    for _ in range(rng.randint(1, 3)):
        i, j = rng.sample(range(dim), 2)
        a = rng.randint(-2, 2)
        for k in range(dim):
            u[i][k] += a * u[j][k]
    return tuple(tuple(row) for row in u)


def invert_unimodular(u):
    """A unimodular matrix has an integer inverse: column j solves u·x = e_j."""
    dim = len(u)
    cols = [
        integer_solve_rows([(row, int(i == j)) for i, row in enumerate(u)]) for j in range(dim)
    ]
    return tuple(tuple(cols[j][i] for j in range(dim)) for i in range(dim))


def transport_split(s: Split, u_inv, shift) -> Split:
    dim = len(s.pi)
    pi = tuple(
        sum(s.pi[i] * u_inv[i][j] for i in range(dim)) for j in range(dim)
    )
    return Split.make(pi, s.pi0 + dot(pi, shift))


def transport_model(m: CornerModel, u, shift) -> CornerModel:
    dim = m.dim
    f = tuple(
        sum(u[i][j] * m.f[j] for j in range(dim)) + shift[i] for i in range(dim)
    )
    rays = [
        tuple(sum(u[i][j] * r[j] for j in range(dim)) for i in range(dim))
        for r in m.rays
    ]
    return CornerModel.make(f, rays)


def model_to_vertices(body: Polyhedron, f) -> CornerModel:
    return CornerModel.make(
        f, [tuple(v[i] - f[i] for i in range(body.dim)) for v in body.vertices]
    )


def test_transport_sanity():
    rng = make_rng()
    u = random_unimodular(rng, 2)
    u_inv = invert_unimodular(u)
    shift = (3, -2)
    image = apply_unimodular(TYPE1_T, u, shift)
    s = Split.make((1, 0), 0)
    s2 = transport_split(s, u_inv, shift)
    assert apply_unimodular(apply_split(TYPE1_T, s), u, shift) == apply_split(image, s2)


def test_rank_equivalence_consistency_randomized():
    # >= 20 instances: infinite-rank evidence only without the 2-hyperplane
    # property; executor success only with it
    rng = make_rng()
    seeds_2d = [
        (TYPE1_T, (F(1, 2), F(1, 2)), None),
        (UNIT_SQ, (F(1, 2), F(1, 2)),
         (SplitSequence.make([]), Split.make((1, 0), 0))),
        (T2, (F(1, 2), F(1, 2)),
         (SplitSequence.make([Split.make((0, 1), 0)]), Split.make((1, 0), 0))),
        (QUAD, (F(1, 2), F(1, 2)), None),
    ]
    instances = 0
    executor_successes = 0
    infinite_evidence = 0
    for _ in range(5):
        for body, f, program in seeds_2d:
            u = random_unimodular(rng, 2)
            u_inv = invert_unimodular(u)
            shift = (rng.randint(-3, 3), rng.randint(-3, 3))
            image = apply_unimodular(body, u, shift)
            require_lattice_free(image)
            model = transport_model(model_to_vertices(body, f), u, shift)
            report = has_2hyperplane_property(image)
            verdict = infinite_rank_2d(model, image)
            if verdict:
                infinite_evidence += 1
                assert not report.overall
            if program is not None:
                seq, eng = program
                moved = (
                    SplitSequence.make(
                        [transport_split(s, u_inv, shift) for s in seq.splits]
                    ),
                    transport_split(eng, u_inv, shift),
                )
                cone = lift(model, image, floor=8)
                run = execute_finite_rank(cone, moved)
                assert run.verdict == "height_nonpositive_at_round_q"
                executor_successes += 1
                assert report.overall
            instances += 1
    # 3D seed bodies round out the sample
    for body, expected in ((L_P, True), (L_PRIME, False)):
        for _ in range(2):
            u = random_unimodular(rng, 3)
            shift = tuple(rng.randint(-2, 2) for _ in range(3))
            image = apply_unimodular(body, u, shift)
            require_lattice_free(image)
            assert has_2hyperplane_property(image).overall == expected
            instances += 1
    assert instances >= 20
    assert executor_successes >= 10
    assert infinite_evidence >= 5


def test_floor_insensitivity_randomized():
    # heights above the shallower floor never depend on the truncation depth
    rng = make_rng()
    box = ((F(-2), F(4)), (F(-2), F(4)))
    done = 0
    while done < 100:
        u = random_unimodular(rng, 2)
        shift = (rng.randint(-2, 2), rng.randint(-2, 2))
        image = apply_unimodular(TYPE1_T, u, shift)
        model = transport_model(
            model_to_vertices(TYPE1_T, (F(1, 2), F(1, 2))), u, shift
        )
        shallow = lift(model, image, floor=3)
        deep = lift(model, image, floor=9)
        x = tuple(
            c + F(rng.randint(-4, 4), 4) for c in model.f
        )
        h_deep = height_at(deep.poly, x)
        if h_deep is not None and h_deep > -3:
            assert height_at(shallow.poly, x) == h_deep
        done += 1
    # probe trajectories agree as well
    model = model_to_vertices(TYPE1_T, (F(1, 2), F(1, 2)))
    runs = []
    for floor in (3, 9):
        cone = lift(model, TYPE1_T, floor=floor)
        report = probe_rounds(cone, EnumerateStrategy(1, box), 2, [model.f])
        runs.append([p.samples[0][1] for p in report.profiles])
    assert runs[0] == runs[1]


def test_integer_preservation_randomized():
    # splits never cut off an integer point that satisfies the disjunction
    rng = make_rng()
    done = 0
    while done < 100:
        pts = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(4)]
        q = convex_hull(pts)
        pi = (rng.randint(-2, 2), rng.randint(-2, 2))
        from splitlab.linalg import vec_gcd

        if not any(pi) or vec_gcd(pi) != 1:
            continue
        s = Split.make(pi, rng.randint(-4, 4))
        out = apply_split(q, s)
        for z in lattice_points(q):
            val = dot(s.pi, z)
            if val <= s.pi0 or val >= s.pi0 + 1:
                assert out.contains(z)
        done += 1
