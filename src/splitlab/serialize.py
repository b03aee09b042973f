"""Exact-rational JSON and CSV serialization for all laboratory objects.

Rationals travel as strings "p/q" (or "p" for integers) so nothing is
ever rounded on disk; every numeric field is accompanied by a 12-digit
decimal rendering for human readers.  Emission order is fixed, so equal
objects always serialize to byte-identical JSON.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Optional, Sequence

from .certify import (
    Classification2D,
    FaceEntry,
    PartitionCertificate,
    TwoHPReport,
)
from .cuts import CornerModel, CutCoefficients
from .geometry import GeometryError, Point, Polyhedron
from .ranks import HeightProfile, ProbeReport
from .splits import Split, SplitSequence

DECIMAL_DIGITS = 12


# ---------------------------------------------------------------------------
# rationals


def parse_rational(text: Any) -> Fraction:
    if isinstance(text, bool):
        raise GeometryError(f"not a rational: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    # Fraction's parse time grows superlinearly with an exponent's value
    if not isinstance(text, str) or "e" in text or "E" in text:
        raise GeometryError(f"not a rational: {text!r}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise GeometryError(f"not a rational: {text!r}") from exc


def emit_rational(x: Fraction) -> str:
    if type(x) is not Fraction:
        x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def emit_decimal(x: Fraction) -> str:
    """Truncated (toward minus infinity) rendering to ``DECIMAL_DIGITS`` places."""
    if type(x) is not Fraction:
        x = Fraction(x)
    scaled = (x.numerator * 10**DECIMAL_DIGITS) // x.denominator
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), 10**DECIMAL_DIGITS)
    return f"{sign}{whole}.{frac:0{DECIMAL_DIGITS}d}"


def _list(value: Any, what: str) -> list:
    if not isinstance(value, list):
        raise GeometryError(f"{what} must be a JSON list")
    return value


def parse_point(items: Sequence) -> Point:
    return tuple(parse_rational(c) for c in _list(items, "coordinates"))


def emit_point(p: Sequence) -> list[str]:
    return [emit_rational(c) for c in p]


# ---------------------------------------------------------------------------
# polyhedra and corner models


def polyhedron_to_dict(p: Polyhedron) -> dict:
    return {
        "dim": p.dim,
        "vertices": [emit_point(v) for v in p.vertices],
        "rays": [emit_point(r) for r in p.rays],
        "inequalities": [
            {"a": [str(int(c)) for c in a], "b": emit_rational(b)}
            for a, b in p.inequalities
        ],
    }


def polyhedron_from_dict(data: dict) -> Polyhedron:
    if not isinstance(data, dict) or "dim" not in data:
        raise GeometryError("polyhedron JSON needs a 'dim' field")
    dim = data["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise GeometryError("polyhedron dimension must be a positive integer")
    verts = [parse_point(v) for v in _list(data.get("vertices", []), "'vertices'")]
    rays = [parse_point(r) for r in _list(data.get("rays", []), "'rays'")]
    rows = _list(data.get("inequalities", []), "'inequalities'")
    ineqs = [_parse_inequality(row) for row in rows]
    for v in verts + rays:
        if len(v) != dim:
            raise GeometryError("generator dimension mismatch")
    if verts or rays:
        p = Polyhedron.from_generators(verts, rays)
        if ineqs:
            # both representations given: they must describe the same set
            q = Polyhedron.from_inequalities(ineqs, dim)
            if q != p:
                raise GeometryError(
                    "vertex and inequality representations disagree"
                )
        return p
    if ineqs:
        return Polyhedron.from_inequalities(ineqs, dim)
    raise GeometryError("polyhedron JSON carries no generators or inequalities")


def _parse_inequality(row: Any) -> tuple:
    if not isinstance(row, dict) or not isinstance(row.get("a"), list) or "b" not in row:
        raise GeometryError("each inequality needs a list 'a' and a 'b'")
    return parse_point(row["a"]), parse_rational(row["b"])


def corner_model_from_dict(data: dict) -> CornerModel:
    if not isinstance(data, dict) or "f" not in data or "rays" not in data:
        raise GeometryError("corner model JSON needs 'f' and 'rays' fields")
    rays = [parse_point(r) for r in _list(data["rays"], "'rays'")]
    return CornerModel.make(parse_point(data["f"]), rays)


def cut_to_dict(cut: CutCoefficients) -> dict:
    return {
        "psi": [emit_rational(c) for c in cut.psi],
        "psi_decimal": [emit_decimal(c) for c in cut.psi],
    }


# ---------------------------------------------------------------------------
# splits


def split_to_dict(s: Split) -> dict:
    return {"pi": [str(x) for x in s.pi], "pi0": str(s.pi0)}


def split_from_dict(data: dict) -> Split:
    if not isinstance(data, dict) or "pi" not in data or "pi0" not in data:
        raise GeometryError("split JSON needs 'pi' and 'pi0' fields")
    pi = parse_point(data["pi"])
    pi0 = parse_rational(data["pi0"])
    if any(x.denominator != 1 for x in pi) or pi0.denominator != 1:
        raise GeometryError("split data must be integer")
    return Split.make([int(x) for x in pi], int(pi0))


def sequence_to_dict(seq: SplitSequence) -> dict:
    return {
        "splits": [split_to_dict(s) for s in seq.splits],
        "provenance": list(seq.provenance),
    }


def sequence_from_dict(data: dict) -> SplitSequence:
    if not isinstance(data, dict) or "splits" not in data:
        raise GeometryError("split sequence JSON needs a 'splits' field")
    splits = [split_from_dict(s) for s in _list(data["splits"], "'splits'")]
    prov = data.get("provenance")
    if prov is not None and not all(isinstance(t, str) for t in _list(prov, "'provenance'")):
        raise GeometryError("provenance tags must be strings")
    return SplitSequence.make(splits, prov)


# ---------------------------------------------------------------------------
# reports


def _face_description(entry: FaceEntry) -> str:
    d = entry.face.dimension
    verts = ", ".join(
        "(" + ", ".join(emit_rational(c) for c in v) + ")" for v in entry.face.vertices
    )
    kind = {0: "vertex", 1: "edge"}.get(d, f"{d}-face")
    return f"{kind} with vertices {verts}"


def certificate_to_dict(cert: PartitionCertificate) -> dict:
    return {
        "outcome": cert.outcome,
        "split": split_to_dict(cert.split) if cert.split is not None else None,
        "s1": [emit_point(p) for p in cert.s1],
        "s2": [emit_point(p) for p in cert.s2],
    }


def twohp_report_to_dict(report: TwoHPReport) -> dict:
    return {
        "overall": report.overall,
        "faces": [
            {
                "description": _face_description(entry),
                "dim": entry.face.dimension,
                "vertices": [emit_point(v) for v in entry.face.vertices],
                "contained_in_facet": entry.contained_in_facet,
                "certificate": (
                    certificate_to_dict(entry.certificate)
                    if entry.certificate is not None
                    else None
                ),
            }
            for entry in report.entries
        ],
    }


def classification_to_dict(cls: Classification2D) -> dict:
    return {
        "kind": cls.kind,
        "integer_points_on_boundary": [
            emit_point(p) for p in cls.integer_points_on_boundary
        ],
    }


def _height_fields(h: Optional[Fraction]) -> dict:
    if h is None:
        return {"height": None, "height_decimal": None}
    return {"height": emit_rational(h), "height_decimal": emit_decimal(h)}


def _profile_to_dict(round_index: int, profile: HeightProfile) -> dict:
    top = _height_fields(profile.global_max)
    return {
        "round": round_index,
        "samples": [
            {"point": emit_point(p), **_height_fields(h)}
            for p, h in profile.samples
        ],
        "max_height": top["height"],
        "max_height_decimal": top["height_decimal"],
    }


def probe_report_to_dict(report: ProbeReport) -> dict:
    return {
        "rounds_applied": report.rounds_applied,
        "verdict": report.verdict,
        "q": report.q,
        "profiles": [
            _profile_to_dict(i, p) for i, p in enumerate(report.profiles)
        ],
        "sequence": sequence_to_dict(report.sequence),
    }


def probe_report_to_csv(report: ProbeReport) -> str:
    """Flat trace: one row per (round, witness) pair."""
    lines = ["round,witness,height,decimal"]
    for r, profile in enumerate(report.profiles):
        for j, (_, h) in enumerate(profile.samples):
            if h is None:
                lines.append(f"{r},{j},,")
            else:
                lines.append(f"{r},{j},{emit_rational(h)},{emit_decimal(h)}")
    return "\n".join(lines) + "\n"


def dumps(obj: dict) -> str:
    """Canonical JSON text: fixed key order, two-space indent, newline."""
    return json.dumps(obj, indent=2) + "\n"
