"""Seeded job streams for the three benchmark workloads.

Every input is a unimodular image x -> U x + t of one of the bodies of the
acceptance tests, so its exact answer is known without trusting the code
under test: 2-hyperplane verdicts, face structure, classification kinds,
cut coefficients and the finite-rank executor's verdict, heights and q
are invariant under such maps, and integer points, splits and witnesses
move along with the map.  Probe heights under enumerated split rounds are
only invariant under the shift t, so probes draw U from a fixed catalogue
whose heights were recorded in ``frozen.json`` from the seed commit.

Jobs come in blocks.  Each block holds the same multiset of job kinds
(and, for probes, of catalogue entries); the seed draws their order, the
shifts and the other maps, so two seeds differ in their inputs but hardly
in the cost mix a run sees.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction as F
from typing import Any, Callable, Iterator

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
FROZEN_PATH = os.path.join(HERE, "frozen.json")

H = F(1, 2)

# Base bodies of the acceptance tests (vertex lists) and corner points.
BASES = {
    "type1": {"vertices": [(0, 0), (2, 0), (0, 2)], "f": (H, H)},
    "square": {"vertices": [(0, 0), (1, 0), (0, 1), (1, 1)], "f": (H, H)},
    "t2": {"vertices": [(0, -H), (0, F(3, 2)), (2, H)], "f": (H, H)},
    "quad": {"vertices": [(H, -H), (F(3, 2), H), (H, F(3, 2)), (-H, H)], "f": (H, H)},
    "lp": {
        "vertices": [(F(1, 4), F(1, 4), F(3, 2)), (-H, -H, 0), (F(5, 2), -H, 0), (-H, F(5, 2), 0)],
        "f": (H, H, H),
    },
    "lprime": {
        "vertices": [
            (0, 0, -H), (F(5, 2), 0, -H), (0, F(5, 2), -H),
            (0, 0, F(3, 2)), (H, 0, F(3, 2)), (0, H, F(3, 2)),
        ],
        "f": None,
    },
}
BODIES_2D = ("type1", "square", "t2", "quad")

# Finite-rank programs of acceptance criterion 4: (sequence, englobing split).
PROGRAMS = {
    "square": ([], ((1, 0), 0)),
    "t2": ([((0, 1), 0)], ((1, 0), 0)),
}

# Catalogue maps for probes; heights are frozen per entry.
CAT2 = [
    ((1, 0), (0, 1)),
    ((1, 1), (0, 1)),
    ((1, 0), (1, 1)),
    ((1, -1), (0, 1)),
    ((1, 0), (-1, 1)),
    ((2, 1), (1, 1)),
    ((1, 1), (1, 2)),
]
CAT3 = [
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((1, 0, 0), (0, 1, 0), (0, 1, 1)),
    ((1, 0, 0), (1, 1, 0), (0, 0, 1)),
    ((1, 0, 0), (0, 0, -1), (0, 1, 1)),
]

# Job parameters.  They are part of the frozen values' meaning.
PROBE2D = {"bound": 1, "rounds": 3, "floor": 4}
PROBE3D = {"bound": 1, "rounds": 1, "floor": 1}
CLI_PROBE = {"bound": 1, "rounds": 1, "floor": 4}
EXECUTOR_FLOOR = 8
SWEEP = {
    "q": [(0, -1), (3, -1), (0, 0), (3, 0), (1, F(3, 4)), (2, F(3, 4))],
    "split": ((0, 1), 0),
    "apex": (F(3, 2), F(7, 8)),
}
ROTATE_BODY = [((-1, 0), H), ((0, -1), H), ((1, 1), H)]  # a.x <= b, no lattice on facets
SHIFT = 6


def load_frozen() -> dict:
    with open(FROZEN_PATH) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# unimodular maps


def _inverse(u) -> tuple:
    """Exact inverse of a unimodular integer matrix."""
    n = len(u)
    work = [[F(x) for x in row] + [F(int(i == j)) for j in range(n)] for i, row in enumerate(u)]
    for c in range(n):
        p = next(i for i in range(c, n) if work[i][c] != 0)
        work[c], work[p] = work[p], work[c]
        pv = work[c][c]
        work[c] = [x / pv for x in work[c]]
        for i in range(n):
            if i != c and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[c])]
    inv = tuple(tuple(int(x) for x in row[n:]) for row in work)
    if any(F(x).denominator != 1 for row in work for x in row[n:]):
        raise ValueError("matrix is not unimodular")
    return inv


@dataclass(frozen=True)
class Affine:
    """x -> U x + t with U unimodular."""

    u: tuple
    t: tuple
    u_inv: tuple = field(default=None)

    def __post_init__(self):
        if self.u_inv is None:
            object.__setattr__(self, "u_inv", _inverse(self.u))

    @property
    def dim(self) -> int:
        return len(self.u)

    def point(self, p) -> tuple:
        n = self.dim
        return tuple(sum(self.u[i][j] * F(p[j]) for j in range(n)) + self.t[i] for i in range(n))

    def split(self, pi, pi0) -> tuple:
        """Image of the split (pi, pi0): pi' = pi U^-1, pi0' = pi0 + pi'.t."""
        n = self.dim
        new = tuple(sum(pi[i] * self.u_inv[i][j] for i in range(n)) for j in range(n))
        return new, pi0 + sum(a * b for a, b in zip(new, self.t))


def random_shift(rng: random.Random, dim: int) -> tuple:
    return tuple(rng.randint(-SHIFT, SHIFT) for _ in range(dim))


def random_unimodular(rng: random.Random, dim: int) -> tuple:
    """Product of one to two random unit shears."""
    u = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(rng.randint(1, 2)):
        i, j = rng.sample(range(dim), 2)
        a = rng.choice((-1, 1))
        for k in range(dim):
            u[i][k] += a * u[j][k]
    return tuple(tuple(r) for r in u)


def fs(x) -> str:
    return oracle.rational_text(F(x))


def _fr(x):
    return None if x is None else F(x)


# ---------------------------------------------------------------------------
# jobs


@dataclass
class Job:
    """One closed-loop request: ``run`` calls splitlab, ``verify`` checks it."""

    family: str
    desc: dict
    run: Callable[[], Any]
    verify: Callable[[Any], list]


class Context:
    """What every job needs: the splitlab package, frozen values, a scratch dir.

    Jobs look splitlab functions up on the package at call time, so the
    tracer's rebinding of module attributes reaches them.
    """

    def __init__(self, sl, frozen: dict, tmpdir: str | None = None):
        self.sl = sl
        self.frozen = frozen
        self.tmpdir = tmpdir
        self._files = 0

    def write_doc(self, payload, raw: str | None = None) -> str:
        self._files += 1
        path = os.path.join(self.tmpdir, f"d{self._files}.json")
        with open(path, "w") as fh:
            fh.write(raw if raw is not None else json.dumps(payload))
        return path


def _model_rays(vertices, f):
    return [tuple(v[i] - f[i] for i in range(len(f))) for v in vertices]


def _expanded_box(vertices):
    dim = len(vertices[0])
    return tuple(
        (min(v[i] for v in vertices) - 1, max(v[i] for v in vertices) + 1) for i in range(dim)
    )


def _verify_heights(heights, maxima, truth) -> list:
    problems = oracle.nonincreasing(heights)
    if heights != [_fr(h) for h in truth["heights"]]:
        problems.append(f"heights {list(map(str, heights))} != frozen {truth['heights']}")
    if maxima != [_fr(h) for h in truth["max"]]:
        problems.append(f"max heights {list(map(str, maxima))} != frozen {truth['max']}")
    return problems


def _verify_probe_report(rep, truth) -> list:
    heights = [p.samples[0][1] for p in rep.profiles]
    maxima = [p.global_max for p in rep.profiles]
    problems = _verify_heights(heights, maxima, truth)
    if rep.rounds_applied != len(rep.profiles) - 1:
        problems.append("rounds_applied does not match the profiles")
    done = maxima[-1] is None or maxima[-1] <= 0
    verdict = "height_nonpositive_at_round_q" if done else "persists_positive_through_budget"
    if rep.verdict != verdict:
        problems.append(f"verdict {rep.verdict} != {verdict}")
    if rep.q != (rep.rounds_applied if done else None):
        problems.append(f"q {rep.q} does not match the verdict")
    return problems


def probe_job(ctx: Context, base: str, dim: int, cat: int, shift, params: dict, key: str) -> Job:
    catalogue = CAT2 if dim == 2 else CAT3
    a = Affine(catalogue[cat], shift)
    verts = [a.point(v) for v in BASES[base]["vertices"]]
    f = a.point(BASES[base]["f"])
    truth = ctx.frozen[key][base][cat]
    box = _expanded_box(verts)
    sl = ctx.sl

    def run():
        l = sl.convex_hull(verts)
        model = sl.CornerModel.make(f, _model_rays(verts, f))
        cone = sl.lift(model, l, floor=params["floor"])
        return sl.probe_rounds(cone, sl.EnumerateStrategy(params["bound"], box), params["rounds"], [f])

    desc = {"kind": key, "base": base, "cat": cat, "shift": shift}
    return Job(f"{key}.{base}", desc, run, lambda rep: _verify_probe_report(rep, truth))


def executor_job(ctx: Context, base: str, a: Affine) -> Job:
    verts = [a.point(v) for v in BASES[base]["vertices"]]
    f = a.point(BASES[base]["f"])
    seq, englobing = PROGRAMS[base]
    moved = [a.split(pi, pi0) for pi, pi0 in seq]
    last = a.split(*englobing)
    truth = ctx.frozen["executor"][base]
    sl = ctx.sl

    def run():
        l = sl.convex_hull(verts)
        model = sl.CornerModel.make(f, _model_rays(verts, f))
        cone = sl.lift(model, l, floor=EXECUTOR_FLOOR)
        program = (
            sl.SplitSequence.make([sl.Split.make(pi, pi0) for pi, pi0 in moved]),
            sl.Split.make(*last),
        )
        return sl.execute_finite_rank(cone, program)

    def verify(rep):
        heights = [p.samples[0][1] for p in rep.profiles]
        maxima = [p.global_max for p in rep.profiles]
        problems = _verify_heights(heights, maxima, truth)
        if rep.verdict != "height_nonpositive_at_round_q":
            problems.append(f"executor verdict {rep.verdict}")
        if rep.q != truth["q"]:
            problems.append(f"executor q {rep.q} != frozen {truth['q']}")
        return problems

    desc = {"kind": "executor", "base": base, "u": a.u, "shift": a.t}
    return Job(f"executor.{base}", desc, run, verify)


def normalize_2hp(report) -> dict:
    faces = []
    for e in report.entries:
        cert = e.certificate
        c = None
        if cert is not None:
            c = {
                "outcome": cert.outcome,
                "pi": cert.split.pi if cert.split is not None else None,
                "pi0": cert.split.pi0 if cert.split is not None else None,
                "s1": cert.s1,
                "s2": cert.s2,
            }
        faces.append({"vertices": e.face.vertices, "contained": e.contained_in_facet, "cert": c})
    return {"overall": report.overall, "faces": faces}


def normalize_2hp_json(data: dict) -> dict:
    faces = []
    for f in data["faces"]:
        cert = f["certificate"]
        c = None
        if cert is not None:
            split = cert["split"]
            c = {
                "outcome": cert["outcome"],
                "pi": split["pi"] if split else None,
                "pi0": split["pi0"] if split else None,
                "s1": cert["s1"],
                "s2": cert["s2"],
            }
        faces.append({"vertices": f["vertices"], "contained": f["contained_in_facet"], "cert": c})
    return {"overall": data["overall"], "faces": faces}


def _body_truth(ctx: Context, base: str, a: Affine):
    truth = ctx.frozen["bodies"][base]
    population = [a.point(p) for p in truth["points"]]
    bad = [[a.point(p) for p in s] for s in truth["bad_sets"]]
    return truth, population, bad


def twohp_job(ctx: Context, base: str, a: Affine) -> Job:
    verts = [a.point(v) for v in BASES[base]["vertices"]]
    truth, population, bad = _body_truth(ctx, base, a)
    sl = ctx.sl

    def run():
        return sl.has_2hyperplane_property(sl.convex_hull(verts))

    def verify(report):
        return oracle.check_2hp(normalize_2hp(report), truth, population, bad)

    desc = {"kind": "2hp", "base": base, "u": a.u, "shift": a.t}
    return Job(f"2hp.{base}", desc, run, verify)


def classify_job(ctx: Context, base: str, a: Affine) -> Job:
    verts = [a.point(v) for v in BASES[base]["vertices"]]
    f = a.point(BASES[base]["f"])
    truth = ctx.frozen["classify"][base]
    _, population, _ = _body_truth(ctx, base, a)
    sl = ctx.sl

    def run():
        l = sl.convex_hull(verts)
        model = sl.CornerModel.make(f, _model_rays(verts, f))
        return sl.classify_2d(l), sl.infinite_rank_2d(model, l)

    def verify(out):
        cls, verdict = out
        problems = []
        if cls.kind != truth["kind"]:
            problems.append(f"kind {cls.kind} != {truth['kind']}")
        if verdict != truth["infinite_rank"]:
            problems.append(f"infinite rank {verdict} != {truth['infinite_rank']}")
        if set(cls.integer_points_on_boundary) != set(population):
            problems.append("classification lists the wrong integer points")
        return problems

    desc = {"kind": "classify", "base": base, "u": a.u, "shift": a.t}
    return Job(f"classify.{base}", desc, run, verify)


def partition_job(ctx: Context, rng: random.Random, dim: int, n: int, small: int | None) -> Job:
    """A 2-partitionability instance with a known answer.

    Positive (``small`` = size of the first class): points on the planes
    x1 = 0 and x1 = 1 of the canonical frame.  Negative (``small`` None):
    a superset of {0, e_i, 2 e_i}, whose lattice width is at least 2 in
    every direction, so no split can carry it on two adjacent planes.
    """
    a = Affine(random_unimodular(rng, dim), random_shift(rng, dim))
    pts: set = set()
    if small is not None:
        spread = 8 if dim == 2 else 3
        while len(pts) < small:
            pts.add((0,) + tuple(rng.randint(-spread, spread) for _ in range(dim - 1)))
        while len(pts) < n:
            pts.add((1,) + tuple(rng.randint(-spread, spread) for _ in range(dim - 1)))
    else:
        pts.add((0,) * dim)
        for i in range(dim):
            for k in (1, 2):
                pts.add(tuple(k * int(j == i) for j in range(dim)))
        while len(pts) < n:
            pts.add(tuple(rng.randint(-1, 2) for _ in range(dim)))
    image = [tuple(int(c) for c in a.point(p)) for p in sorted(pts)]
    rng.shuffle(image)
    sl = ctx.sl

    def run():
        return sl.is_2partitionable(image)

    def verify(cert):
        if small is None:
            if cert.outcome != "not_partitionable" or cert.split is not None:
                return [f"lattice-width-2 set reported {cert.outcome}"]
            return []
        if cert.outcome != "partitionable":
            return [f"two-plane set reported {cert.outcome}"]
        return oracle.check_partition(cert.split.pi, cert.split.pi0, cert.s1, cert.s2, image)

    kind = "pos" if small is not None else "neg"
    desc = {"kind": f"partition.{kind}", "points": image}
    return Job(f"partition.{kind}{dim}d", desc, run, verify)


def refusal_job(ctx: Context, rng: random.Random, side: int) -> Job:
    """A triangle with interior integer points: must be refused with a witness."""
    a = Affine(random_unimodular(rng, 2), random_shift(rng, 2))
    tri = [a.point(v) for v in ((0, 0), (side, 0), (0, side))]
    sl = ctx.sl

    def run():
        try:
            sl.has_2hyperplane_property(sl.convex_hull(tri))
        except sl.NotLatticeFreeError as exc:
            return ("refused", exc.witness)
        return ("accepted", None)

    def verify(out):
        return oracle.check_refusal_witness(out[1], tri)

    desc = {"kind": "refusal", "side": side, "u": a.u, "shift": a.t}
    return Job("refusal", desc, run, verify)


# ---------------------------------------------------------------------------
# CLI jobs


def _poly_doc(verts) -> dict:
    return {"dim": len(verts[0]), "vertices": [[fs(c) for c in v] for v in verts]}


def _model_doc(f, rays) -> dict:
    return {"f": [fs(c) for c in f], "rays": [[fs(c) for c in r] for r in rays]}


def _cli_call(ctx: Context, argv: list):
    """In-process ``splitlab`` command: returns (exit code, stdout, stderr)."""
    cli = ctx.sl.cli

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse refusals
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    return run


def cli_job(ctx: Context, family: str, argv: list, verify, desc: dict) -> Job:
    """A command that must succeed; ``verify`` checks its stdout."""

    def checked(res):
        code, out, err = res
        if code != 0:
            return [f"exit {code}: {err.strip()[-200:]}"]
        try:
            return verify(out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unparseable output: {exc!r}"]

    return Job(family, desc, _cli_call(ctx, argv), checked)


def cli_error_job(ctx: Context, family: str, argv: list, desc: dict, witness_tri=None) -> Job:
    """A document the CLI must refuse: exit 2, nothing on stdout, and for a
    body that is not lattice-free an interior integer point on stderr."""

    def verify(res):
        code, out, err = res
        problems = []
        if code != 2:
            problems.append(f"exit {code} instead of 2")
        if out:
            problems.append("refused document wrote to stdout")
        if witness_tri is not None:
            # "... interior integer point (a, b)"
            text = err[err.rfind("(") + 1 : err.rfind(")")]
            try:
                w = tuple(F(x) for x in text.split(","))
            except ValueError:
                w = None
            problems += oracle.check_refusal_witness(w, witness_tri)
        return problems

    return Job(family, desc, _cli_call(ctx, argv), verify)


def cli_body_jobs(ctx: Context, base: str, cat: int, shift) -> list:
    """Every command and format on one image of a 2D body."""
    a = Affine(CAT2[cat], shift)
    verts = [a.point(v) for v in BASES[base]["vertices"]]
    f = a.point(BASES[base]["f"])
    mpath = ctx.write_doc(_model_doc(f, _model_rays(verts, f)))
    bpath = ctx.write_doc(_poly_doc(verts))
    truth, population, bad = _body_truth(ctx, base, a)
    psi = ctx.frozen["cut"][base]
    cls = ctx.frozen["classify"][base]
    probe = ctx.frozen["cli_probe"][base][cat]
    desc = {"kind": "cli", "base": base, "cat": cat, "shift": shift}
    p = CLI_PROBE
    probe_args = ["--floor", str(p["floor"]), "--bound", str(p["bound"]), "--rounds", str(p["rounds"])]
    heights = [_fr(h) for h in probe["heights"]]
    maxima = [_fr(h) for h in probe["max"]]
    done = maxima[-1] is None or maxima[-1] <= 0
    verdict = "height_nonpositive_at_round_q" if done else "persists_positive_through_budget"

    def v_cut_json(out):
        return [] if json.loads(out)["psi"] == psi else ["cut coefficients differ"]

    def v_cut_text(out):
        want = " + ".join(f"{c}*s{j + 1}" for j, c in enumerate(psi)) + " >= 1\n"
        return [] if out == want else ["cut text differs"]

    def v_2hp_json(out):
        return oracle.check_2hp(normalize_2hp_json(json.loads(out)), truth, population, bad)

    def v_2hp_text(out):
        lines = out.splitlines()
        problems = []
        if lines[0] != f"2-hyperplane property: {truth['overall']}":
            problems.append("check2hp text verdict differs")
        if len(lines) != 1 + truth["faces"]:
            problems.append("check2hp text face count differs")
        return problems

    def v_cls_json(out):
        data = json.loads(out)
        problems = []
        if data["kind"] != cls["kind"] or data["infinite_rank"] != cls["infinite_rank"]:
            problems.append("classification differs")
        pts = {tuple(F(c) for c in q) for q in data["integer_points_on_boundary"]}
        if pts != set(population):
            problems.append("classification lists the wrong integer points")
        return problems

    def v_cls_text(out):
        want = f"classification: {cls['kind']}\ninfinite rank: {cls['infinite_rank']}\n"
        return [] if out == want else ["classification text differs"]

    def v_probe_json(out):
        data = json.loads(out)
        got_h = [_fr(pr["samples"][0]["height"]) for pr in data["profiles"]]
        got_m = [_fr(pr["max_height"]) for pr in data["profiles"]]
        problems = _verify_heights(got_h, got_m, probe)
        if data["verdict"] != verdict:
            problems.append(f"probe verdict {data['verdict']} != {verdict}")
        for pr in data["profiles"]:
            h = pr["samples"][0]
            if h["height"] is not None and h["height_decimal"] != oracle.decimal12(F(h["height"])):
                problems.append("probe decimal rendering differs from the exact height")
        return problems

    def v_probe_csv(out):
        want = ["round,witness,height,decimal"] + [
            f"{r},0,{oracle.rational_text(h)},{oracle.decimal12(h)}" if h is not None else f"{r},0,,"
            for r, h in enumerate(heights)
        ]
        return [] if out == "\n".join(want) + "\n" else ["probe csv differs"]

    def v_probe_text(out):
        lines = [f"verdict: {verdict}", f"rounds applied: {len(heights) - 1}"]
        if done:
            lines.append(f"q: {len(heights) - 1}")
        for r, m in enumerate(maxima):
            lines.append(f"  round {r}: max height {'empty' if m is None else oracle.rational_text(m)}")
        return [] if out == "\n".join(lines) + "\n" else ["probe text differs"]

    plan = [
        ("cut", ["cut", mpath, bpath], v_cut_json),
        ("cut", ["cut", mpath, bpath, "--format", "text"], v_cut_text),
        ("check2hp", ["check2hp", bpath], v_2hp_json),
        ("check2hp", ["check2hp", bpath, "--format", "text"], v_2hp_text),
        ("classify2d", ["classify2d", mpath, bpath], v_cls_json),
        ("classify2d", ["classify2d", mpath, bpath, "--format", "text"], v_cls_text),
        ("probe", ["probe", mpath, bpath, *probe_args], v_probe_json),
        ("probe", ["probe", mpath, bpath, *probe_args, "--format", "csv"], v_probe_csv),
        ("probe", ["probe", mpath, bpath, *probe_args, "--format", "text"], v_probe_text),
    ]
    return [cli_job(ctx, f"cli.{cmd}", argv, v, desc) for cmd, argv, v in plan]


def cli_rotate_job(ctx: Context, rng: random.Random) -> Job:
    """rotate-facet: the result contains the input, keeps its integer points,
    and replaces exactly the chosen facet by one whose plane holds integer points."""
    a = Affine(random_unimodular(rng, 2), random_shift(rng, 2))
    rows = []
    for normal, b in ROTATE_BODY:
        pi, pi0 = a.split(normal, 0)  # transports a.x <= b to a'.y <= b + a'.t
        rows.append((pi, b + pi0))
    verts = [a.point(v) for v in ((-H, -H), (-H, 1), (1, -H))]
    doc = {"dim": 2, "inequalities": [{"a": [str(c) for c in n], "b": fs(b)} for n, b in rows]}
    path = ctx.write_doc(doc)
    facet = rng.randrange(3)

    def verify(out):
        data = json.loads(out)
        new_rows = [(tuple(int(c) for c in r["a"]), F(r["b"])) for r in data["inequalities"]]
        problems = []
        for v in verts:
            if any(n[0] * v[0] + n[1] * v[1] > b for n, b in new_rows):
                problems.append("the repaired body does not contain the input")
        old = set(rows)
        added = [r for r in new_rows if r not in old]
        if len(new_rows) != 3 or len(added) != 1:
            problems.append("rotate-facet did not replace exactly one facet")
        elif added[0][1].denominator != 1:
            problems.append("the new facet plane holds no integer points")
        out_verts = [tuple(F(c) for c in v) for v in data["vertices"]]
        if not out_verts:
            return problems + ["the repaired body is empty"]
        box = [
            (math.floor(min(v[i] for v in out_verts)), math.ceil(max(v[i] for v in out_verts)))
            for i in range(2)
        ]
        if oracle.integer_points_of_rows(new_rows, box) != oracle.integer_points_of_rows(rows, box):
            problems.append("the repaired body gained or lost integer points")
        return problems

    desc = {"kind": "cli.rotate", "u": a.u, "shift": a.t, "facet": facet}
    return cli_job(ctx, "cli.rotate-facet", ["rotate-facet", path, "--facet", str(facet)], verify, desc)


def cli_sweep_job(ctx: Context, rng: random.Random) -> Job:
    a = Affine(((1, 0), (0, 1)), random_shift(rng, 2))
    q = [a.point(v) for v in SWEEP["q"]]
    pi, pi0 = a.split(*SWEEP["split"])
    apex = a.point(SWEEP["apex"])
    qpath = ctx.write_doc(_poly_doc(q))
    spath = ctx.write_doc({"pi": [str(c) for c in pi], "pi0": str(pi0)})
    want = [a.split(tuple(s[0]), s[1]) for s in ctx.frozen["sweep"]]

    def verify(out):
        data = json.loads(out)
        got = [(tuple(int(c) for c in s["pi"]), int(s["pi0"])) for s in data["splits"]]
        problems = [] if got == want else [f"sweep splits {got} != {want}"]
        if data["provenance"] != ["sweep"] * len(got):
            problems.append("sweep provenance differs")
        return problems

    argv = ["sweep2d", qpath, spath, "--apex=" + ",".join(fs(c) for c in apex)]
    return cli_job(ctx, "cli.sweep2d", argv, verify, {"kind": "cli.sweep", "shift": a.t})


def cli_error_jobs(ctx: Context, rng: random.Random) -> list:
    a = Affine(random_unimodular(rng, 2), random_shift(rng, 2))
    tri = [a.point(v) for v in ((0, 0), (3, 0), (0, 3))]
    t1 = [a.point(v) for v in BASES["type1"]["vertices"]]
    f = a.point(BASES["type1"]["f"])
    model = ctx.write_doc(_model_doc(f, _model_rays(t1, f)))
    body = ctx.write_doc(_poly_doc(t1))
    fat = ctx.write_doc(_poly_doc(tri))
    lp = ctx.write_doc(_poly_doc(BASES["lp"]["vertices"]))
    broken = ctx.write_doc(None, raw='{"dim": 2, "vertices": [["0", "0"], ')
    missing = os.path.join(ctx.tmpdir, "missing.json")
    disagree = ctx.write_doc(
        dict(_poly_doc(t1), inequalities=[{"a": ["1", "1"], "b": "100"}])
    )
    bad_split = ctx.write_doc({"pi": ["1/2", "1"], "pi0": "0"})
    desc = {"kind": "cli.error", "u": a.u, "shift": a.t}
    return [
        cli_error_job(ctx, "cli.error", ["cut", model, fat], desc, witness_tri=tri),
        cli_error_job(ctx, "cli.error", ["check2hp", broken], desc),
        cli_error_job(ctx, "cli.error", ["check2hp", missing], desc),
        cli_error_job(ctx, "cli.error", ["classify2d", model, lp], desc),
        cli_error_job(ctx, "cli.error", ["check2hp", disagree], desc),
        cli_error_job(ctx, "cli.error", ["probe", model, body, "--witness", "1,2,3"], desc),
        cli_error_job(ctx, "cli.error", ["sweep2d", body, bad_split, "--apex", "1/2,1/2"], desc),
    ]


# ---------------------------------------------------------------------------
# blocks and streams


def probe_block(ctx: Context, rng: random.Random) -> list:
    jobs = []
    for base in ("type1", "quad"):
        for cat in range(len(CAT2)):
            jobs.append(probe_job(ctx, base, 2, cat, random_shift(rng, 2), PROBE2D, "probe2d"))
    for cat in range(len(CAT3)):
        jobs.append(probe_job(ctx, "lp", 3, cat, random_shift(rng, 3), PROBE3D, "probe3d"))
    for base in ("square", "t2") * 5:
        jobs.append(executor_job(ctx, base, Affine(random_unimodular(rng, 2), random_shift(rng, 2))))
    return jobs


def certify_block(ctx: Context, rng: random.Random) -> list:
    def amap(dim):
        return Affine(random_unimodular(rng, dim), random_shift(rng, dim))

    jobs = []
    for base in ("lp", "lp", "lprime", "lprime"):
        jobs.append(twohp_job(ctx, base, amap(3)))
    for base in BODIES_2D:
        jobs.append(twohp_job(ctx, base, amap(2)))
        jobs.append(classify_job(ctx, base, amap(2)))
    for dim, n, small in ((2, 3, 1), (3, 5, 2), (2, 8, 2), (3, 10, 3), (3, 12, 3), (2, 14, 4)):
        jobs.append(partition_job(ctx, rng, dim, n, small))
    for dim, n in ((2, 9), (2, 11), (3, 10), (3, 12)):
        jobs.append(partition_job(ctx, rng, dim, n, None))
    for side in (20, 40, 60):
        jobs.append(refusal_job(ctx, rng, side))
    return jobs


def cli_block(ctx: Context, rng: random.Random) -> list:
    jobs = []
    for base in ("type1", "quad", "t2"):
        jobs += cli_body_jobs(ctx, base, rng.randrange(len(CAT2)), random_shift(rng, 2))
    jobs += [cli_rotate_job(ctx, rng) for _ in range(2)]
    jobs += [cli_sweep_job(ctx, rng) for _ in range(2)]
    jobs += cli_error_jobs(ctx, rng)
    return jobs


BLOCKS = {"probe": probe_block, "certify": certify_block, "cli": cli_block}
WORKLOADS = tuple(BLOCKS)


def block_stream(ctx: Context, workload: str, seed: int) -> Iterator[list]:
    """Endless sequence of job blocks for one workload, each block shuffled."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        block = BLOCKS[workload](ctx, rng)
        rng.shuffle(block)
        yield block


def warmup_job(ctx: Context, workload: str) -> Job:
    """A fixed cheap job that loads every code path setup should pay for."""
    ident = Affine(((1, 0), (0, 1)), (0, 0))
    if workload == "probe":
        return executor_job(ctx, "square", ident)
    if workload == "certify":
        return twohp_job(ctx, "type1", ident)
    return cli_body_jobs(ctx, "type1", 0, (0, 0))[0]
