"""Record the exact values the benchmark's oracle compares against.

Run once, at the commit whose answers are taken as ground truth:

    python3 bench/freeze.py            # writes bench/frozen.json

Besides recording each value it checks, on a few random maps, the
transport claims the workloads rely on (heights invariant under integer
shifts, executor q and 2-hyperplane structure invariant under unimodular
maps), so a claim that does not hold stops the freeze.
"""

from __future__ import annotations

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import splitlab as sl  # noqa: E402

import workloads as w  # noqa: E402


def _s(x):
    return None if x is None else w.fs(x)


def _pt(p):
    return [w.fs(c) for c in p]


def probe_values(rep) -> dict:
    return {
        "heights": [_s(p.samples[0][1]) for p in rep.profiles],
        "max": [_s(p.global_max) for p in rep.profiles],
    }


def probe(base: str, u, shift, params) -> dict:
    a = w.Affine(u, shift)
    verts = [a.point(v) for v in w.BASES[base]["vertices"]]
    f = a.point(w.BASES[base]["f"])
    cone = sl.lift(sl.CornerModel.make(f, w._model_rays(verts, f)), sl.convex_hull(verts), floor=params["floor"])
    strategy = sl.EnumerateStrategy(params["bound"], w._expanded_box(verts))
    return probe_values(sl.probe_rounds(cone, strategy, params["rounds"], [f]))


def probe_catalogue(base: str, catalogue, params, rng) -> list:
    out = []
    for u in catalogue:
        dim = len(u)
        ref = probe(base, u, (0,) * dim, params)
        moved = probe(base, u, w.random_shift(rng, dim), params)
        assert moved == ref, f"probe heights of {base} under {u} move with the shift"
        out.append(ref)
    return out


def executor(base: str, a: w.Affine) -> dict:
    verts = [a.point(v) for v in w.BASES[base]["vertices"]]
    f = a.point(w.BASES[base]["f"])
    seq, last = w.PROGRAMS[base]
    cone = sl.lift(sl.CornerModel.make(f, w._model_rays(verts, f)), sl.convex_hull(verts), floor=w.EXECUTOR_FLOOR)
    program = (
        sl.SplitSequence.make([sl.Split.make(*a.split(pi, pi0)) for pi, pi0 in seq]),
        sl.Split.make(*a.split(*last)),
    )
    rep = sl.execute_finite_rank(cone, program)
    return dict(probe_values(rep), q=rep.q)


def body(base: str) -> dict:
    l = sl.convex_hull(w.BASES[base]["vertices"])
    report = sl.has_2hyperplane_property(l)
    bad = [
        [_pt(p) for p in sl.lattice_points(e.face)]
        for e in report.entries
        if e.certificate is not None and e.certificate.outcome == "not_partitionable"
    ]
    return {
        "points": [_pt(p) for p in sl.lattice_points(l)],
        "overall": report.overall,
        "faces": len(report.entries),
        "contained": sum(1 for e in report.entries if e.contained_in_facet),
        "bad_sets": bad,
    }


def body_structure(base: str, a: w.Affine) -> tuple:
    report = sl.has_2hyperplane_property(sl.convex_hull([a.point(v) for v in w.BASES[base]["vertices"]]))
    outcomes = sorted(e.certificate.outcome for e in report.entries if e.certificate is not None)
    return report.overall, len(report.entries), outcomes


def main() -> None:
    rng = random.Random(20170123)
    frozen = {
        "probe2d": {b: probe_catalogue(b, w.CAT2, w.PROBE2D, rng) for b in ("type1", "quad")},
        "probe3d": {"lp": probe_catalogue("lp", w.CAT3, w.PROBE3D, rng)},
        "cli_probe": {b: probe_catalogue(b, w.CAT2, w.CLI_PROBE, rng) for b in ("type1", "quad", "t2")},
        "executor": {},
        "bodies": {},
        "classify": {},
        "cut": {},
    }
    ident = w.Affine(((1, 0), (0, 1)), (0, 0))
    for base in w.PROGRAMS:
        ref = executor(base, ident)
        for _ in range(4):
            a = w.Affine(w.random_unimodular(rng, 2), w.random_shift(rng, 2))
            assert executor(base, a) == ref, f"executor result of {base} moves with the map"
        frozen["executor"][base] = ref
    for base in w.BASES:
        frozen["bodies"][base] = body(base)
        dim = len(w.BASES[base]["vertices"][0])
        ref = body_structure(base, w.Affine(tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim)), (0,) * dim))
        for _ in range(4):
            a = w.Affine(w.random_unimodular(rng, dim), w.random_shift(rng, dim))
            assert body_structure(base, a) == ref, f"2-hyperplane structure of {base} moves with the map"
    for base in w.BODIES_2D:
        verts = w.BASES[base]["vertices"]
        f = w.BASES[base]["f"]
        l = sl.convex_hull(verts)
        model = sl.CornerModel.make(f, w._model_rays(verts, f))
        frozen["classify"][base] = {
            "kind": sl.classify_2d(l).kind,
            "infinite_rank": sl.infinite_rank_2d(model, l),
        }
        frozen["cut"][base] = [w.fs(c) for c in sl.intersection_cut(model, l).psi]
    q = sl.convex_hull(w.SWEEP["q"])
    seq = sl.sweep_sequence_2d(q, sl.Split.make(*w.SWEEP["split"]), w.SWEEP["apex"])
    frozen["sweep"] = [[list(s.pi), s.pi0] for s in seq.splits]
    with open(w.FROZEN_PATH, "w") as fh:
        json.dump(frozen, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {w.FROZEN_PATH}")


if __name__ == "__main__":
    main()
