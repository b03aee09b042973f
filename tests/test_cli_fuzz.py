"""The CLI contract on arbitrary documents: every subcommand, in each format
it renders, exits 0 or 2, writes nothing to stdout when it exits 2, and
lets no exception escape.

The documents are random JSON trees over the file-format keys and
well-formed random polyhedra, corner models and splits in dimensions 1-4.
Hypothesis runs derandomized, so the examples are the same on every run.
"""

import contextlib
import io
import json
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from splitlab.cli import main

from test_golden import format_options

# refused: Fraction's parse time grows superlinearly with an exponent's value
EXPONENTS = ["1e2", "-5E-1", "1e10000000"]
KEYS = ("dim", "vertices", "rays", "inequalities", "a", "b", "f", "pi", "pi0", "splits")
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-5, 5)
    | st.sampled_from(["0", "1", "-1", "1/2", "-3/2", "1/0", "x", ""] + EXPONENTS)
)
TREES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=2), inner, max_size=4),
    max_leaves=12,
)
RATIONAL = st.builds(
    lambda n, d: str(n) if d == 1 else f"{n}/{d}", st.integers(-2, 3), st.sampled_from([1, 2, 3])
)


def _point(dim):
    return st.lists(RATIONAL, min_size=dim, max_size=dim)


def _centroid(points):
    """The vertex centroid as JSON rationals, so most models sit inside the body."""
    coords = [sum(Fraction(p[i]) for p in points) / len(points) for i in range(len(points[0]))]
    return [str(c) for c in coords]


@st.composite
def documents(draw):
    """(model, body, split), mostly in one dimension, each replaced by a
    random tree now and then."""
    dim = draw(st.integers(1, 4))
    body = {"dim": dim}
    if draw(st.booleans()):
        body["vertices"] = draw(st.lists(_point(dim), min_size=1, max_size=dim + 3))
        if draw(st.integers(0, 3)) == 0:
            body["rays"] = draw(st.lists(_point(dim), max_size=2))
        f = _centroid(body["vertices"])
        if draw(st.integers(0, 9)) == 0:
            body["vertices"][0][0] = draw(st.sampled_from(EXPONENTS))
    else:
        row = st.fixed_dictionaries({"a": _point(dim), "b": RATIONAL})
        body["inequalities"] = draw(st.lists(row, max_size=2 * dim + 2))
        f = draw(_point(dim))
    mdim = dim if draw(st.integers(0, 3)) else draw(st.integers(1, 4))
    if mdim != dim:
        f = draw(_point(mdim))
    model = {"f": f, "rays": draw(st.lists(_point(mdim), min_size=1, max_size=mdim + 2))}
    split = {"pi": [str(x) for x in draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim))],
             "pi0": str(draw(st.integers(-2, 2)))}
    docs = [model, body, split]
    for i in range(3):
        if draw(st.integers(0, 4)) == 0:
            docs[i] = draw(TREES)
    return docs


COMMANDS = {
    "cut": lambda f: ["cut", f["model"], f["body"]],
    "check2hp": lambda f: ["check2hp", f["body"]],
    "probe": lambda f: [
        "probe", f["model"], f["body"], "--floor", "1", "--bound", "1", "--rounds", "1",
    ],
    "classify2d": lambda f: ["classify2d", f["model"], f["body"]],
    "rotate-facet": lambda f: ["rotate-facet", f["body"], "--facet", "1"],
    "sweep2d": lambda f: ["sweep2d", f["body"], f["split"], "--apex", "1/2,1/2"],
}


@settings(
    derandomize=True,
    database=None,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    command=st.sampled_from(sorted(COMMANDS)),
    docs=documents(),
    data=st.data(),
)
def test_every_document_exits_0_or_2(tmp_path_factory, command, docs, data):
    options = data.draw(st.sampled_from(sorted(format_options(command).values())))
    folder = tmp_path_factory.getbasetemp()
    files = {}
    for name, doc in zip(("model", "body", "split"), docs):
        path = folder / f"fuzz_{name}.json"
        path.write_text(json.dumps(doc))
        files[name] = str(path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(COMMANDS[command](files) + options)
    assert code in (0, 2), (command, docs)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
