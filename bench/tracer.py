"""In-process tracing of splitlab by rebinding its functions.

``Tracer.install`` replaces, in every loaded ``splitlab`` module, each name
whose value *is* one of the package's functions by a wrapper that records
a span, and does the same for the methods of ``Polyhedron``.  Aliases such
as ``ranks.mat_rank`` (an import of ``linalg.rank``) are rebound too, since
the match is by identity and not by name.  ``uninstall`` restores every
binding it changed.

Spans (name, start, end, parent, job) are kept in flat arrays and written
out once, by ``dump``.  A span's self time is its duration minus the
durations of its direct children, which are sequential and nested inside
it.  Counters are updated by observers that look at a wrapped call's
arguments and result.
"""

from __future__ import annotations

import gzip
import math
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter
from types import FunctionType

PACKAGE = "splitlab"
# Called once per coordinate, row or lattice point: wrapping them would
# multiply the tracing cost, and their time is still counted, as self time
# of the calling layer.
LEAVES = frozenset(
    {
        "dot", "vec_gcd", "vec_add", "vec_sub", "vec_scale", "scale_primitive",
        "as_point", "embed_normal", "scale_dir", "emit_rational", "emit_decimal",
        "emit_point", "emit_point_decimal", "parse_rational", "parse_point",
        "contains", "relint_contains", "interior_contains", "equalities",
        "facet_inequalities", "affine_dim", "bounding_box",
    }
)
# Private double-description steps: part of the DD layer, called across modules.
PRIVATE_DD = frozenset({"_pointed_cone_rays", "_h_to_v", "_v_to_h"})
DD_SPANS = frozenset(
    {
        "geometry.Polyhedron.from_generators", "geometry.Polyhedron.from_inequalities",
        "geometry.cone_rays", "geometry._pointed_cone_rays", "geometry._h_to_v", "geometry._v_to_h",
    }
)
CHECKS = ("certify.has_2hyperplane_property", "certify.classify_2d")
ROUND_PARENTS = frozenset({"ranks.probe_rounds", "ranks.execute_finite_rank", "splits.round_of_splits"})


def _traced(name: str) -> bool:
    return name in PRIVATE_DD or not (name.startswith("_") or name in LEAVES)


def _box_points(p) -> int:
    if not p.vertices or p.rays:
        return 0
    total = 1
    for i in range(p.dim):
        lo = min(v[i] for v in p.vertices)
        hi = max(v[i] for v in p.vertices)
        total *= max(0, math.floor(hi) - math.ceil(lo) + 1)
    return total


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.self_time: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counters: defaultdict = defaultdict(int)
        self.maxima: defaultdict = defaultdict(int)
        self.active: Counter = Counter()
        self.stack: list[list] = []  # [name, span index, time covered by children]
        self.job = -1
        self._undo: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name: str, fn):
        name_id = self._name_id.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        observe = OBSERVERS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            idx = len(tracer.span_name)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(parent[1] if parent else -1)
            tracer.span_job.append(tracer.job)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            frame = [name, idx, 0.0]
            stack.append(frame)
            tracer.active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.counters[f"{name}.raised"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                tracer.active[name] -= 1
                dur = end - start
                tracer.span_start[idx] = start
                tracer.span_end[idx] = end
                tracer.self_time[name] += dur - frame[2]
                tracer.calls[name] += 1
                if parent is not None:
                    parent[2] += dur
            if observe is not None:
                observe(tracer, parent[0] if parent else None, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        targets: dict[int, tuple[str, FunctionType]] = {}
        polyhedron = None
        for m in modules:
            short = m.__name__.split(".")[-1]
            for attr, val in vars(m).items():
                if isinstance(val, FunctionType) and val.__module__ == m.__name__ and _traced(attr):
                    targets[id(val)] = (f"{short}.{attr}", val)
            if m.__name__ == f"{PACKAGE}.geometry":
                polyhedron = m.Polyhedron
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in targets.items()}
        for m in modules:
            for attr, val in list(vars(m).items()):
                if id(val) in wrappers and targets[id(val)][1] is val:
                    self._undo.append((m, attr, val))
                    setattr(m, attr, wrappers[id(val)])
        if polyhedron is not None:
            for attr, raw in list(vars(polyhedron).items()):
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                if not isinstance(fn, FunctionType) or attr.startswith("_") or attr in LEAVES:
                    continue
                wrapper = self._wrap(f"geometry.Polyhedron.{attr}", fn)
                self._undo.append((polyhedron, attr, raw))
                setattr(polyhedron, attr, staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, val = self._undo.pop()
            setattr(obj, attr, val)

    # -- results -------------------------------------------------------------

    def self_s(self, predicate) -> float:
        return sum(t for name, t in self.self_time.items() if predicate(name))

    def metrics(self) -> dict:
        c, k, mx = self.calls, self.counters, self.maxima

        def layer(prefix):
            return self.self_s(lambda n: n.startswith(prefix + "."))

        def ratio(a, b):
            return a / b if b else 0.0

        apply_calls = c["splits.apply_split"]
        partition_calls = c["certify.is_2partitionable"]
        serialize_parse = self.self_s(
            lambda n: n.startswith("serialize.") and ("parse" in n or n.endswith("_from_dict"))
        )
        return {
            "linalg.rank.calls": c["linalg.rank"],
            "linalg.solve.calls": c["linalg.solve"],
            "linalg.nullspace.calls": c["linalg.nullspace"],
            "linalg.integer_solve_rows.calls": c["linalg.integer_solve_rows"],
            "linalg.self_s": layer("linalg"),
            "geometry.from_generators.calls": c["geometry.Polyhedron.from_generators"],
            "geometry.from_inequalities.calls": c["geometry.Polyhedron.from_inequalities"],
            "geometry.cone_rays.calls": c["geometry.cone_rays"],
            "geometry.cone_rays.rows_in": k["geometry.cone_rays.rows_in"],
            "geometry.cone_rays.rays_out": k["geometry.cone_rays.rays_out"],
            "geometry.dd.self_s": self.self_s(lambda n: n in DD_SPANS),
            "geometry.coeff_bits.max": mx["geometry.coeff_bits"],
            "geometry.lattice_points.calls": c["geometry.lattice_points"],
            "geometry.lattice_points.points_out": k["geometry.lattice_points.points_out"],
            "geometry.lattice_points.box_points": k["geometry.lattice_points.box_points"],
            "geometry.lattice_points.yield": ratio(
                k["geometry.lattice_points.points_out"], k["geometry.lattice_points.box_points"]
            ),
            "geometry.lattice_points.self_s": self.self_time["geometry.lattice_points"],
            "geometry.interior_integer_point.self_s": self.self_time["geometry.interior_integer_point"],
            "cuts.gauge.calls": c["cuts.gauge"],
            "cuts.self_s": layer("cuts"),
            "splits.apply_split.calls": apply_calls,
            "splits.apply_split.unchanged": k["splits.apply_split.unchanged"],
            "splits.apply_split.useful_ratio": ratio(apply_calls - k["splits.apply_split.unchanged"], apply_calls),
            "splits.enumerate_splits.splits_out": k["splits.enumerate_splits.splits_out"],
            "splits.round_of_splits.calls": c["splits.round_of_splits"],
            "splits.self_s": layer("splits"),
            "ranks.rounds": k["ranks.rounds"],
            "ranks.round.intersects": k["ranks.round.intersects"],
            "ranks.round.vertices_max": mx["ranks.round.vertices"],
            "ranks.height_at.calls": c["ranks.height_at"],
            "ranks.self_s": layer("ranks"),
            "certify.is_2partitionable.calls": partition_calls,
            "certify.is_2partitionable.points": k["certify.is_2partitionable.points"],
            "certify.is_2partitionable.solves_per_call": ratio(k["certify.partition_solves"], partition_calls),
            "certify.faces.faces_out": k["certify.faces.faces_out"],
            "certify.lattice_points_per_check": ratio(k["certify.check_lattice_points"], k["certify.checks"]),
            "certify.self_s": layer("certify"),
            "serialize.parse.self_s": serialize_parse,
            "serialize.emit.self_s": layer("serialize") - serialize_parse,
            "serialize.bytes_out": k["serialize.bytes_out"],
            "cli.main.self_s": layer("cli"),
            "cli.exit2": k["cli.exit2"],
            "cli.escaped": k["cli.main.raised"],
        }

    def dump(self, path: str) -> int:
        """Write every span as a tab-separated line; returns the span count."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart\tend\tparent\tjob\n")
            names = self.names
            for i in range(len(self.span_name)):
                fh.write(
                    f"{i}\t{names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                    f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\t{self.span_job[i]}\n"
                )
        return len(self.span_name)


# ---------------------------------------------------------------------------
# observers: (tracer, parent span name, args, kwargs, result) -> None


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _cone_rays(t, parent, args, kwargs, result):
    lines, rays = result
    t.counters["geometry.cone_rays.rows_in"] += len(_arg(args, kwargs, 0, "rows"))
    t.counters["geometry.cone_rays.rays_out"] += len(rays)
    bits = max((abs(x).bit_length() for v in lines + rays for x in v), default=0)
    if bits > t.maxima["geometry.coeff_bits"]:
        t.maxima["geometry.coeff_bits"] = bits


def _lattice_points(t, parent, args, kwargs, result):
    t.counters["geometry.lattice_points.points_out"] += len(result)
    t.counters["geometry.lattice_points.box_points"] += _box_points(_arg(args, kwargs, 0, "p"))
    if any(t.active[name] for name in CHECKS):
        t.counters["certify.check_lattice_points"] += 1


def _check(t, parent, args, kwargs, result):
    if not any(t.active[name] for name in CHECKS):
        t.counters["certify.checks"] += 1


def _apply_split(t, parent, args, kwargs, result):
    if result == _arg(args, kwargs, 0, "q"):
        t.counters["splits.apply_split.unchanged"] += 1


def _enumerate_splits(t, parent, args, kwargs, result):
    t.counters["splits.enumerate_splits.splits_out"] += len(result)


def _rounds(t, parent, args, kwargs, result):
    t.counters["ranks.rounds"] += result.rounds_applied


def _intersect(t, parent, args, kwargs, result):
    if parent in ROUND_PARENTS:
        t.counters["ranks.round.intersects"] += 1
        if len(result.vertices) > t.maxima["ranks.round.vertices"]:
            t.maxima["ranks.round.vertices"] = len(result.vertices)


def _partition(t, parent, args, kwargs, result):
    t.counters["certify.is_2partitionable.points"] += len(_arg(args, kwargs, 0, "points"))


def _integer_solve_rows(t, parent, args, kwargs, result):
    if t.active["certify.is_2partitionable"]:
        t.counters["certify.partition_solves"] += 1


def _faces(t, parent, args, kwargs, result):
    t.counters["certify.faces.faces_out"] += len(result)


def _bytes_out(t, parent, args, kwargs, result):
    t.counters["serialize.bytes_out"] += len(result.encode())


def _cli_main(t, parent, args, kwargs, result):
    if result == 2:
        t.counters["cli.exit2"] += 1


OBSERVERS = {
    "geometry.cone_rays": _cone_rays,
    "geometry.lattice_points": _lattice_points,
    "certify.has_2hyperplane_property": _check,
    "certify.classify_2d": _check,
    "splits.apply_split": _apply_split,
    "splits.enumerate_splits": _enumerate_splits,
    "ranks.probe_rounds": _rounds,
    "ranks.execute_finite_rank": _rounds,
    "geometry.Polyhedron.intersect": _intersect,
    "certify.is_2partitionable": _partition,
    "linalg.integer_solve_rows": _integer_solve_rows,
    "certify.faces": _faces,
    "serialize.dumps": _bytes_out,
    "serialize.probe_report_to_csv": _bytes_out,
    "cli.main": _cli_main,
}
