"""Input refusals that the other suites never reach: each raises
GeometryError with its own message."""

import re
from fractions import Fraction

import pytest

from splitlab import serialize
from splitlab.certify import classify_2d
from splitlab.cuts import CornerModel, boundary_hull
from splitlab.geometry import GeometryError, Polyhedron, apply_unimodular, convex_hull
from splitlab.ranks import height_at, lift
from splitlab.splits import Split, classify_split, embed_normal, split_confines, sweep_sequence_2d

F = Fraction

TRIANGLE = convex_hull([(0, 0), (2, 0), (0, 2)])
HALF = (F(1, 2), F(1, 2))
EMPTY = Polyhedron.empty(2)
RAY = Polyhedron.from_generators([(0, 0)], [(1, 0)])
SQUARE_ROWS = [
    {"a": ["1", "0"], "b": "1"},
    {"a": ["-1", "0"], "b": "0"},
    {"a": ["0", "-1"], "b": "0"},
    {"a": ["0", "1"], "b": "1"},
]

REFUSALS = {
    "generators_in_5d": (
        lambda: Polyhedron.from_generators([(0,) * 5]),
        "ambient dimension must be in 1..4, got 5",
    ),
    "generators_of_mixed_lengths": (
        lambda: Polyhedron.from_generators([(0, 0), (1, 0, 0)]),
        "generators have mismatched dimensions",
    ),
    "no_generators": (
        lambda: Polyhedron.from_generators([]),
        "cannot infer dimension from empty input; use Polyhedron.empty",
    ),
    "hull_of_nothing": (
        lambda: convex_hull([]),
        "cannot infer dimension from empty input; use Polyhedron.empty",
    ),
    "box_of_empty": (lambda: EMPTY.bounding_box(), "empty polyhedron has no bounding box"),
    "box_of_unbounded": (lambda: RAY.bounding_box(), "unbounded polyhedron has no bounding box"),
    "unimodular_3x2": (
        lambda: apply_unimodular(TRIANGLE, ((1, 0), (0, 1), (0, 0)), (0, 0)),
        "transformation matrix shape mismatch",
    ),
    "corner_ray_in_3d": (
        lambda: CornerModel.make(HALF, [(1, 0, 0)]),
        "ray dimension mismatch",
    ),
    "boundary_hull_outside": (
        lambda: boundary_hull(CornerModel.make((F(5, 2), F(1, 2)), [(1, 0)]), TRIANGLE),
        "reference point must lie in the interior",
    ),
    "witness_off_dim": (
        lambda: height_at(
            lift(CornerModel.make(HALF, [(-1, -1), (3, -1), (-1, 3)]), TRIANGLE).poly, (1, 2, 3)
        ),
        "witness point has 3 coordinates, but the x-space of q has 2",
    ),
    "normal_too_long": (
        lambda: embed_normal((1, 0, 0), 2),
        "split coordinates do not fit the ambient dimension",
    ),
    "classify_split_empty": (
        lambda: classify_split(EMPTY, Split.make((1, 0), 0)),
        "classification needs a nonempty polyhedron",
    ),
    "confines_empty": (
        lambda: split_confines(EMPTY, Split.make((1, 0), 0)),
        "confinement needs a nonempty polyhedron",
    ),
    "sweep_empty": (
        lambda: sweep_sequence_2d(EMPTY, Split.make((0, 1), 0), HALF),
        "sweep hypothesis failed: empty polyhedron",
    ),
    "classify_2d_in_3d": (
        lambda: classify_2d(convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])),
        "classification is only defined in dimension 2",
    ),
    "classify_2d_unbounded": (
        lambda: classify_2d(RAY),
        "classification needs a bounded polyhedron",
    ),
    "classify_2d_segment": (
        lambda: classify_2d(convex_hull([(0, 0), (1, 0)])),
        "classification needs a full-dimensional polytope",
    ),
    "vertices_off_dim": (
        lambda: serialize.polyhedron_from_dict({"dim": 2, "vertices": [["0", "0", "0"]]}),
        "generator dimension mismatch",
    ),
    "inequalities_off_dim": (
        lambda: serialize.polyhedron_from_dict(
            {"dim": 2, "inequalities": [{"a": ["1", "0", "0"], "b": "1"}]}
        ),
        "inequality dimension mismatch",
    ),
    "representations_disagree": (
        lambda: serialize.polyhedron_from_dict(
            {"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"]], "inequalities": SQUARE_ROWS}
        ),
        "vertex and inequality representations disagree",
    ),
    "sequence_without_splits": (
        lambda: serialize.sequence_from_dict({}),
        "split sequence JSON needs a 'splits' field",
    ),
    "provenance_of_wrong_length": (
        lambda: serialize.sequence_from_dict(
            {"splits": [{"pi": ["1", "0"], "pi0": "0"}], "provenance": ["a", "b"]}
        ),
        "one provenance tag per split required",
    ),
    "provenance_not_strings": (
        lambda: serialize.sequence_from_dict(
            {"splits": [{"pi": ["1", "0"], "pi0": "0"}], "provenance": [{"x": 1}]}
        ),
        "provenance tags must be strings",
    ),
    "rational_of_bool": (lambda: serialize.parse_rational(True), "not a rational: True"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusal(case):
    call, message = REFUSALS[case]
    with pytest.raises(GeometryError, match=f"^{re.escape(message)}$"):
        call()
