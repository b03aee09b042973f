"""Independent checks of splitlab results, in the benchmark's own arithmetic.

Nothing here imports splitlab.  Every check takes plain numbers (ints and
Fractions) and returns a list of problems; an empty list means the result
is verified.  The expected values the checks compare against come from
``frozen.json`` (values recorded from the seed commit) transported along
the unimodular map that generated the input.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

Point = tuple


def point(p: Iterable) -> Point:
    return tuple(Fraction(c) for c in p)


def is_integer_point(p: Sequence) -> bool:
    return all(Fraction(c).denominator == 1 for c in p)


def dot(a: Sequence, b: Sequence):
    return sum(x * y for x, y in zip(a, b))


def rank(rows: Sequence[Sequence]) -> int:
    """Rank over the rationals by plain Gaussian elimination."""
    work = [[Fraction(x) for x in r] for r in rows]
    r = 0
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(r + 1, len(work)):
            if work[i][c] != 0:
                f = work[i][c] / work[r][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        r += 1
    return r


def in_affine_hull(p: Sequence, pts: Sequence[Sequence]) -> bool:
    """True iff p lies in the affine hull of pts."""
    base = pts[0]
    dirs = [[x - y for x, y in zip(q, base)] for q in pts[1:]]
    extra = [x - y for x, y in zip(p, base)]
    if not any(extra):
        return True
    return rank(dirs + [extra]) == rank(dirs) if dirs else False


def nonincreasing(seq: Sequence[Optional[Fraction]]) -> list[str]:
    """Heights never grow from one round to the next (None = empty fiber)."""
    problems = []
    for i in range(1, len(seq)):
        prev, cur = seq[i - 1], seq[i]
        if cur is None:
            continue
        if prev is None or cur > prev:
            problems.append(f"height grew at round {i}: {prev} -> {cur}")
    return problems


def check_partition(pi, pi0, s1, s2, population) -> list[str]:
    """The split (pi, pi0) puts s1 on pi.x = pi0 and s2 on pi.x = pi0 + 1,
    and s1, s2 are nonempty, disjoint and together exactly the population."""
    problems = []
    if not s1 or not s2:
        problems.append("a partition class is empty")
    pts1, pts2 = {point(p) for p in s1}, {point(p) for p in s2}
    if pts1 & pts2:
        problems.append("partition classes overlap")
    if pts1 | pts2 != {point(p) for p in population}:
        problems.append("partition classes do not cover the point set")
    if len(pts1) != len(s1) or len(pts2) != len(s2):
        problems.append("a partition class repeats a point")
    try:
        ipi = [int(Fraction(x)) for x in pi]
        ipi0 = int(Fraction(pi0))
    except (TypeError, ValueError):
        return problems + ["split data is not integer"]
    if any(Fraction(x).denominator != 1 for x in pi) or Fraction(pi0).denominator != 1:
        problems.append("split data is not integer")
    if not any(ipi):
        problems.append("split direction is zero")
    for p in pts1:
        if dot(ipi, p) != ipi0:
            problems.append(f"{p} is not on the plane pi.x = pi0")
    for p in pts2:
        if dot(ipi, p) != ipi0 + 1:
            problems.append(f"{p} is not on the plane pi.x = pi0 + 1")
    return problems


def orientation(a, b, c) -> Fraction:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def strictly_inside_triangle(p: Sequence, tri: Sequence[Sequence]) -> bool:
    a, b, c = (point(v) for v in tri)
    p = point(p)
    total = orientation(a, b, c)
    if total == 0:
        return False
    signs = [orientation(a, b, p), orientation(b, c, p), orientation(c, a, p)]
    return all(s * total > 0 for s in signs)


def check_refusal_witness(witness, tri) -> list[str]:
    """A lattice-free refusal must name an integer point interior to the input."""
    if witness is None:
        return ["valid non-lattice-free input was not refused"]
    if not is_integer_point(witness):
        return [f"refusal witness {tuple(witness)} is not an integer point"]
    if not strictly_inside_triangle(witness, tri):
        return [f"refusal witness {tuple(witness)} is not interior to the input"]
    return []


def check_2hp_certificates(report: dict, population: Sequence[Point]) -> tuple[list, list]:
    """Verify every certificate of a normalized 2-hyperplane report.

    ``report`` is ``{"overall": bool, "faces": [{"vertices", "contained",
    "cert"}]}`` with ``cert`` None or ``{"outcome", "pi", "pi0", "s1",
    "s2"}``.  ``population`` is the set of all integer points of the body;
    a face's integer points are those of the population in the face's
    affine hull, because the face is a face of their convex hull.  Returns
    the problems and the point sets of the faces claimed not 2-partitionable.
    """
    problems: list = []
    claimed_bad: list = []
    pop = [point(p) for p in population]
    pop_set = set(pop)
    for f in report["faces"]:
        verts = [point(v) for v in f["vertices"]]
        if not verts or any(v not in pop_set for v in verts):
            problems.append(f"face vertices {verts} are not integer points of the body")
            continue
        members = [p for p in pop if in_affine_hull(p, verts)]
        cert = f["cert"]
        if f["contained"]:
            if cert is not None:
                problems.append("a face in a facet carries a certificate")
            continue
        if cert is None:
            problems.append("a face outside the facets has no certificate")
            continue
        outcome = cert["outcome"]
        if outcome == "partitionable":
            problems += check_partition(cert["pi"], cert["pi0"], cert["s1"], cert["s2"], members)
        elif outcome == "trivially_partitionable":
            if len(members) > 1 or {point(p) for p in cert["s1"]} != set(members) or cert["s2"]:
                problems.append("trivial partition claimed for a face with several points")
        elif outcome == "not_partitionable":
            claimed_bad.append(frozenset(members))
        else:
            problems.append(f"unknown certificate outcome {outcome!r}")
    if report["overall"] != (not claimed_bad):
        problems.append("overall verdict contradicts the face certificates")
    return problems, claimed_bad


def check_2hp(report: dict, truth: dict, population: Sequence[Point], bad_sets) -> list[str]:
    """Verify a normalized 2-hyperplane report against the transported truth:
    verdict, face counts, certificates, and which faces are not 2-partitionable."""
    problems, claimed_bad = check_2hp_certificates(report, population)
    if report["overall"] != truth["overall"]:
        problems.append(f"overall verdict {report['overall']} != {truth['overall']}")
    faces = report["faces"]
    if len(faces) != truth["faces"]:
        problems.append(f"{len(faces)} faces reported, expected {truth['faces']}")
    contained = sum(1 for f in faces if f["contained"])
    if contained != truth["contained"]:
        problems.append(f"{contained} faces in facets, expected {truth['contained']}")
    expected_bad = {frozenset(point(p) for p in s) for s in bad_sets}
    if set(claimed_bad) != expected_bad or len(claimed_bad) != len(expected_bad):
        problems.append("the faces certified not 2-partitionable differ from the expected ones")
    return problems


def decimal12(x: Fraction) -> str:
    """Fixed-point rendering truncated toward minus infinity, 12 digits."""
    x = Fraction(x)
    scaled = (x.numerator * 10**12) // x.denominator
    sign = "-" if scaled < 0 else ""
    whole, part = divmod(abs(scaled), 10**12)
    return f"{sign}{whole}.{part:012d}"


def rational_text(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def integer_points_of_rows(rows, box) -> set:
    """Integer points of {x : a.x <= b for (a, b) in rows} inside a 2D box."""
    (xlo, xhi), (ylo, yhi) = box
    out = set()
    for x in range(xlo, xhi + 1):
        for y in range(ylo, yhi + 1):
            if all(a[0] * x + a[1] * y <= b for a, b in rows):
                out.add((Fraction(x), Fraction(y)))
    return out
