"""Byte-for-byte CLI reports: every subcommand in every --format it offers.

The inputs are the README examples (body, corner model and split), the
rotate-facet and sweep2d bodies of ``test_cli.py``, the 3D bodies ``L_P``
and ``L_PRIME`` of the acceptance tests, the 3D body T3 of the ROADMAP
with its vertex centroid and one ray per vertex, probed in text only
(its maximum height reaches 0 at round 2 of bound 4), and the unit
square with its four unit rays and the one split x <= 0 or x >= 1, a
probe that reaches height 0 at round 1 and has an empty fiber at its
second witness; the expected
stdout of each case lives in ``tests/golden/<case>.<format>``, for each
format the subcommand's parser offers (``json`` alone, passed as no
option, for a subcommand without ``--format``).  After a
deliberate change of a report, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py

and record the change.
"""

import argparse
import contextlib
import io
import sys
from pathlib import Path

import pytest

from splitlab.cli import build_parser, main

GOLDEN = Path(__file__).resolve().parent / "golden"


def format_options(command: str) -> dict[str, list[str]]:
    """The formats a subcommand renders, read off the parser, each with the
    options that select it: a subcommand without ``--format`` writes JSON."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    fmt = next((a for a in sub.choices[command]._actions if a.dest == "format"), None)
    if fmt is None:
        return {"json": []}
    return {f: ["--format", f] for f in fmt.choices}


def _input(name: str) -> str:
    return str(GOLDEN / "inputs" / name)


CASES = {
    "cut": ["cut", _input("model.json"), _input("body.json")],
    "check2hp": ["check2hp", _input("body.json")],
    "check2hp_lp": ["check2hp", _input("l_p.json")],
    "check2hp_lprime": ["check2hp", _input("l_prime.json")],
    "probe": [
        "probe", _input("model.json"), _input("body.json"),
        "--floor", "8", "--bound", "2", "--rounds", "3",
    ],
    "probe_bound3_rounds5": [
        "probe", _input("model.json"), _input("body.json"), "--bound", "3", "--rounds", "5",
    ],
    "probe_program": [
        "probe", _input("model.json"), _input("body.json"), "--program", _input("program.json"),
    ],
    "probe_terminates": [
        "probe", _input("square_model.json"), _input("square.json"),
        "--program", _input("square_program.json"), "--witness", "1/2,1/2", "--witness", "100,100",
    ],
    "probe_t3": [
        "probe", _input("t3_model.json"), _input("t3_body.json"), "--bound", "4", "--rounds", "2",
    ],
    "classify2d": ["classify2d", _input("model.json"), _input("body.json")],
    "rotate_facet": ["rotate-facet", _input("rotate_body.json"), "--facet", "2"],
    "sweep2d": [
        "sweep2d", _input("sweep_body.json"), _input("split.json"), "--apex", "3/2,7/8",
    ],
}


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


# the cases kept to some formats: each format of T3 runs its own probe, and
# its JSON lists the 17,920 splits applied, 2.2 MB
FORMATS = {"probe_t3": ["text"]}

# (case, format, argv) for every case in every format its command renders
RUNS = [
    (case, fmt, argv + options)
    for case, argv in sorted(CASES.items())
    for fmt, options in format_options(argv[0]).items()
    if fmt in FORMATS.get(case, [fmt])
]


@pytest.mark.parametrize("case, fmt, argv", RUNS, ids=[f"{c}-{f}" for c, f, _ in RUNS])
def test_golden_stdout(case, fmt, argv):
    code, out = _run(argv)
    assert code == 0
    assert out.encode() == (GOLDEN / f"{case}.{fmt}").read_bytes()


if __name__ == "__main__":
    for case, fmt, argv in RUNS:
        code, out = _run(argv)
        if code != 0:
            sys.exit(f"{case} {fmt} exited {code}")
        (GOLDEN / f"{case}.{fmt}").write_bytes(out.encode())
