"""JSON/CSV serialization: exact rationals, round trips, determinism."""

from fractions import Fraction

import pytest

from splitlab import serialize
from splitlab.cuts import CornerModel, CutCoefficients
from splitlab.geometry import GeometryError, Polyhedron, convex_hull
from splitlab.ranks import EnumerateStrategy, lift, probe_rounds
from splitlab.splits import Split, SplitSequence

from conftest import make_rng

F = Fraction


def test_rational_round_trip():
    # 7 is a JSON integer, read as it is
    for text, value in (("1/2", F(1, 2)), ("-3/4", F(-3, 4)), ("5", F(5)), ("0", F(0)), (7, F(7))):
        assert serialize.parse_rational(text) == value
        assert serialize.parse_rational(serialize.emit_rational(value)) == value
    assert serialize.emit_rational(F(4, 2)) == "2"
    with pytest.raises(GeometryError):
        serialize.parse_rational("1/0")
    with pytest.raises(GeometryError):
        serialize.parse_rational("abc")
    # exponents are refused: parsing one takes time superlinear in its value
    for text in ("1e2", "1E2", "2.5e-1", " 1e10000000 "):
        with pytest.raises(GeometryError, match="^not a rational"):
            serialize.parse_rational(text)


def test_decimal_rendering():
    assert serialize.emit_decimal(F(1, 3)) == "0.333333333333"
    assert serialize.emit_decimal(F(-1, 3)) == "-0.333333333334"
    assert serialize.emit_decimal(F(1, 2)) == "0.500000000000"
    assert serialize.emit_decimal(F(2)) == "2.000000000000"


def test_rational_views_of_each_input_type(rng):
    """emit_rational and emit_decimal give the same bytes for an int, a
    str, a Fraction and an integral Fraction of one value: fixed cases,
    then seeded values, each rendered from all of its forms."""
    cases = [
        (3, "3", "3.000000000000"),
        (-7, "-7", "-7.000000000000"),
        ("-6/4", "-3/2", "-1.500000000000"),
        ("0", "0", "0.000000000000"),
        (F(-1, 3), "-1/3", "-0.333333333334"),
        (F(8, 4), "2", "2.000000000000"),
        (F(0), "0", "0.000000000000"),
    ]
    for x, rational, decimal in cases:
        assert (serialize.emit_rational(x), serialize.emit_decimal(x)) == (rational, decimal)
    for _ in range(200):
        value = F(rng.randint(-50, 50), rng.choice((1, 1, 2, 3, 7, 12)))
        forms = [value, str(value), f"{value.numerator * 3}/{value.denominator * 3}"]
        if value.denominator == 1:
            forms.append(value.numerator)
        emitted = {(serialize.emit_rational(x), serialize.emit_decimal(x)) for x in forms}
        assert emitted == {(serialize.emit_rational(value), serialize.emit_decimal(value))}
        assert serialize.parse_rational(emitted.pop()[0]) == value


def test_polyhedron_round_trip():
    p = convex_hull([(0, 0), (2, 0), (0, 2)])
    data = serialize.polyhedron_to_dict(p)
    assert serialize.polyhedron_from_dict(data) == p
    # inequality-only payload parses to the same canonical object
    ineq_only = {"dim": 2, "inequalities": data["inequalities"]}
    assert serialize.polyhedron_from_dict(ineq_only) == p
    vert_only = {"dim": 2, "vertices": data["vertices"]}
    assert serialize.polyhedron_from_dict(vert_only) == p


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_empty_polyhedron_round_trip(dim):
    e = Polyhedron.empty(dim)
    assert Polyhedron.from_inequalities(e.inequalities, dim) == e
    assert serialize.polyhedron_from_dict(serialize.polyhedron_to_dict(e)) == e


@pytest.mark.parametrize("dim", [True, False, 0, "1", 1.0])
def test_polyhedron_dimension_must_be_a_positive_integer(dim):
    """A bool is an int to isinstance, so true would read as dimension 1;
    it is refused like every other non-integer, as parse_rational does."""
    doc = {"dim": dim, "vertices": [["0"], ["1/2"]]}
    with pytest.raises(GeometryError, match="^polyhedron dimension must be a positive integer$"):
        serialize.polyhedron_from_dict(doc)
    doc["dim"] = 1
    assert serialize.polyhedron_from_dict(doc) == convex_hull([(0,), (F(1, 2),)])


def test_polyhedron_representation_mismatch():
    with pytest.raises(GeometryError):
        serialize.polyhedron_from_dict(
            {
                "dim": 2,
                "vertices": [["0", "0"], ["1", "0"]],
                "inequalities": [{"a": ["1", "0"], "b": "5"}],
            }
        )
    with pytest.raises(GeometryError):
        serialize.polyhedron_from_dict({"dim": 2})


def test_polyhedron_round_trip_randomized():
    rng = make_rng()
    for _ in range(100):
        pts = [
            (F(rng.randint(-6, 6), rng.choice((1, 2, 3))),
             F(rng.randint(-6, 6), rng.choice((1, 2, 3))))
            for _ in range(4)
        ]
        p = convex_hull(pts)
        assert serialize.polyhedron_from_dict(serialize.polyhedron_to_dict(p)) == p


def test_model_and_split_round_trip():
    m = CornerModel.make((F(1, 2), F(1, 2)), [(1, 0), (0, 1), (-1, -1)])
    doc = {"f": ["1/2", "1/2"], "rays": [["1", "0"], ["0", "1"], ["-1", "-1"]]}
    assert serialize.corner_model_from_dict(doc) == m
    s = Split.make((1, -2), 3)
    assert serialize.split_from_dict(serialize.split_to_dict(s)) == s
    with pytest.raises(GeometryError):
        serialize.split_from_dict({"pi": ["1/2", "1"], "pi0": "0"})
    seq = SplitSequence.make([s, s.partner()], ["user", "sweep"])
    assert serialize.sequence_from_dict(serialize.sequence_to_dict(seq)) == seq


def test_cut_dict():
    out = serialize.cut_to_dict(CutCoefficients((F(1), F(1, 3))))
    assert out == {
        "psi": ["1", "1/3"],
        "psi_decimal": ["1.000000000000", "0.333333333333"],
    }


def test_probe_report_csv():
    t = convex_hull([(0, 0), (2, 0), (0, 2)])
    m = CornerModel.make(
        (F(1, 2), F(1, 2)),
        [(F(-1, 2), F(-1, 2)), (F(3, 2), F(-1, 2)), (F(-1, 2), F(3, 2))],
    )
    cone = lift(m, t, floor=4)
    box = ((F(-1), F(3)), (F(-1), F(3)))
    report = probe_rounds(cone, EnumerateStrategy(1, box), 1, [m.f, (0, 0)])
    csv = serialize.probe_report_to_csv(report)
    lines = csv.strip().split("\n")
    assert lines[0] == "round,witness,height,decimal"
    assert lines[1] == "0,0,1,1.000000000000"
    assert lines[2] == "0,1,0,0.000000000000"
    assert lines[3] == "1,0,1/3,0.333333333333"
    data = serialize.probe_report_to_dict(report)
    assert data["verdict"] == "persists_positive_through_budget"
    assert data["profiles"][1]["samples"][0]["height"] == "1/3"


def test_dumps_deterministic():
    p = convex_hull([(0, 0), (1, 0), (0, 1)])
    a = serialize.dumps(serialize.polyhedron_to_dict(p))
    b = serialize.dumps(serialize.polyhedron_to_dict(convex_hull([(0, 1), (1, 0), (0, 0)])))
    assert a == b
    assert a.endswith("\n")


@pytest.mark.parametrize(
    "parse, data",
    [
        (serialize.polyhedron_from_dict, {"dim": 2, "rays": {"x": 1}}),
        (serialize.polyhedron_from_dict, {"dim": 2, "vertices": ["12"]}),
        (serialize.polyhedron_from_dict, {"dim": 2, "inequalities": [{"a": "1", "b": "0"}]}),
        (serialize.polyhedron_from_dict, {"dim": 2, "inequalities": [["1", "0"]]}),
        (serialize.corner_model_from_dict, {"f": ["1/2"], "rays": 3}),
        (serialize.split_from_dict, {"pi": 1, "pi0": "0"}),
        (serialize.sequence_from_dict, {"splits": {"pi": ["1"], "pi0": "0"}}),
        (serialize.sequence_from_dict, {"splits": [], "provenance": 0}),
    ],
)
def test_malformed_shapes_raise_geometry_error(parse, data):
    with pytest.raises(GeometryError):
        parse(data)
