"""Command-line surface of the split-rank laboratory.

One binary with subcommands; every command reads JSON inputs, runs the
exact-arithmetic computation and writes a deterministic report, JSON by
default.  ``--format`` offers only what a command renders: ``text`` for
cut, check2hp and classify2d, ``csv`` and ``text`` for probe; rotate-facet
and sweep2d write JSON and take no ``--format``.  Exit code 0 on success,
2 on any validation error in the inputs or arguments.  ``main(argv)``
may be called repeatedly in one process: the argument parser is built on
the first call and reused, and nothing else carries over between calls.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache
from typing import Optional

from . import serialize
from .certify import _infinite_rank_2d, classify_2d, has_2hyperplane_property
from .cuts import intersection_cut
from .geometry import GeometryError
from .ranks import (
    DEFAULT_FLOOR,
    EnumerateStrategy,
    ExplicitStrategy,
    lift,
    probe_rounds,
    rotate_facet,
)
from .splits import sweep_sequence_2d


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise GeometryError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise GeometryError(f"{path} is not valid JSON: {exc}") from exc


def _write(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise GeometryError(f"cannot write {out}: {exc}") from exc


def _parse_witness(text: str) -> tuple[Fraction, ...]:
    return tuple(serialize.parse_rational(part) for part in text.split(","))


def cmd_cut(args) -> str:
    model = serialize.corner_model_from_dict(_load_json(args.model))
    l = serialize.polyhedron_from_dict(_load_json(args.body))
    cut = intersection_cut(model, l)
    if args.format == "text":
        terms = " + ".join(
            f"{serialize.emit_rational(c)}*s{j + 1}" for j, c in enumerate(cut.psi)
        )
        return f"{terms} >= 1\n"
    return serialize.dumps(serialize.cut_to_dict(cut))


def cmd_check2hp(args) -> str:
    l = serialize.polyhedron_from_dict(_load_json(args.body))
    report = has_2hyperplane_property(l)
    if args.format == "text":
        lines = [f"2-hyperplane property: {report.overall}"]
        for entry in report.entries:
            cert = entry.certificate
            status = (
                "contained in a facet" if entry.contained_in_facet else cert.outcome
            )
            lines.append(f"  {serialize._face_description(entry)}: {status}")
        return "\n".join(lines) + "\n"
    return serialize.dumps(serialize.twohp_report_to_dict(report))


def cmd_probe(args) -> str:
    if args.program is not None and args.bound is not None:
        raise GeometryError("--bound applies to enumerated splits, not to --program")
    model = serialize.corner_model_from_dict(_load_json(args.model))
    l = serialize.polyhedron_from_dict(_load_json(args.body))
    cone = lift(model, l, floor=args.floor)
    if args.program is not None:
        seq = serialize.sequence_from_dict(_load_json(args.program))
        strategy = ExplicitStrategy(seq)
        # at least one round, so that the strategy refuses an empty program
        budget = args.rounds if args.rounds is not None else len(seq.splits) or 1
    else:
        box = tuple((lo - 1, hi + 1) for lo, hi in l.bounding_box())
        strategy = EnumerateStrategy(1 if args.bound is None else args.bound, box)
        budget = args.rounds if args.rounds is not None else 3
    witnesses = [_parse_witness(w) for w in args.witness] or [model.f]
    report = probe_rounds(cone, strategy, budget, witnesses)
    if args.format == "csv":
        return serialize.probe_report_to_csv(report)
    if args.format == "text":
        lines = [f"verdict: {report.verdict}", f"rounds applied: {report.rounds_applied}"]
        if report.q is not None:
            lines.append(f"q: {report.q}")
        for r, profile in enumerate(report.profiles):
            mh = profile.global_max
            shown = "empty" if mh is None else serialize.emit_rational(mh)
            lines.append(f"  round {r}: max height {shown}")
        return "\n".join(lines) + "\n"
    return serialize.dumps(serialize.probe_report_to_dict(report))


def cmd_classify2d(args) -> str:
    model = serialize.corner_model_from_dict(_load_json(args.model))
    l = serialize.polyhedron_from_dict(_load_json(args.body))
    cls = classify_2d(l)
    verdict = _infinite_rank_2d(model, l, cls)
    if args.format == "text":
        return f"classification: {cls.kind}\ninfinite rank: {verdict}\n"
    out = serialize.classification_to_dict(cls)
    out["infinite_rank"] = verdict
    return serialize.dumps(out)


def cmd_rotate_facet(args) -> str:
    l = serialize.polyhedron_from_dict(_load_json(args.body))
    repaired = rotate_facet(l, args.facet)
    return serialize.dumps(serialize.polyhedron_to_dict(repaired))


def cmd_sweep2d(args) -> str:
    q = serialize.polyhedron_from_dict(_load_json(args.body))
    split = serialize.split_from_dict(_load_json(args.split))
    apex = _parse_witness(args.apex)
    seq = sweep_sequence_2d(q, split, apex)
    return serialize.dumps(serialize.sequence_to_dict(seq))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitlab",
        description="exact-arithmetic laboratory for intersection cuts and split rank",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *formats):
        if formats:
            p.add_argument("--format", choices=["json", *formats], default="json")
        p.add_argument("--out", default=None, help="write the report to a file")
        p.set_defaults(parser=p)

    p = sub.add_parser("cut", help="intersection cut of a corner model")
    p.add_argument("model", help="corner model JSON file")
    p.add_argument("body", help="lattice-free polytope JSON file")
    add_common(p, "text")
    p.set_defaults(func=cmd_cut)

    p = sub.add_parser("check2hp", help="decide the two-hyperplane property")
    p.add_argument("body", help="lattice-free polytope JSON file")
    add_common(p, "text")
    p.set_defaults(func=cmd_check2hp)

    p = sub.add_parser("probe", help="probe split rank of the lifted cone")
    p.add_argument("model", help="corner model JSON file")
    p.add_argument("body", help="lattice-free polytope JSON file")
    p.add_argument("--floor", type=int, default=DEFAULT_FLOOR, help="truncation depth")
    p.add_argument("--bound", type=int, help="max-norm bound for enumerated splits (default 1)")
    p.add_argument("--rounds", type=int, default=None, help="round budget")
    p.add_argument(
        "--witness",
        action="append",
        default=[],
        metavar='"x1,x2[,x3]"',
        help="height witness point (repeatable; default: the corner point)",
    )
    p.add_argument("--program", default=None, help="explicit split sequence JSON file")
    add_common(p, "csv", "text")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("classify2d", help="classify a 2D body and test infinite rank")
    p.add_argument("model", help="corner model JSON file")
    p.add_argument("body", help="lattice-free polytope JSON file")
    add_common(p, "text")
    p.set_defaults(func=cmd_classify2d)

    p = sub.add_parser("rotate-facet", help="repair a facet hyperplane missing the lattice")
    p.add_argument("body", help="polytope JSON file")
    p.add_argument("--facet", type=int, required=True, help="facet index to repair")
    add_common(p)
    p.set_defaults(func=cmd_rotate_facet)

    p = sub.add_parser("sweep2d", help="confining split sequence above a Chvatal plane")
    p.add_argument("body", help="2D polyhedron JSON file")
    p.add_argument("split", help="Chvatal split JSON file")
    p.add_argument("--apex", required=True, metavar='"x1,x2"', help="pyramid apex point")
    add_common(p)
    p.set_defaults(func=cmd_sweep2d)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The one parser ``main`` uses in this process; parsing leaves it
    unchanged, so each call starts from the same state."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    # parse_args would refuse a subcommand's leftover arguments under the
    # top-level usage; the subcommand refuses them under its own
    args, extra = _parser().parse_known_args(argv)
    if extra:
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        _write(args.func(args), args.out)
    except GeometryError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
