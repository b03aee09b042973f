"""splitlab benchmark: one seeded closed-loop workload per process.

    python3 bench/run.py --workload probe --seed 1 --seconds 36 --trace 0

One client sends one job at a time and sends the next when the previous
one has returned (closed loop, no threads).  Every job's result is checked
by ``oracle`` against values that do not come from the code under test; a
wrong or unverifiable result, an exception escaping splitlab or a refusal
of a valid input counts as a failed job.

Jobs come in blocks with a fixed mix (see ``workloads``).  ``--trace 0``
times whole blocks untraced until ``--seconds`` have passed and at least
``MIN_JOBS`` jobs ran, so that ten or more lie above the 90th percentile,
and prints the end-to-end metrics.  Job costs are reported in units of a
reference kernel timed right before and after each job ("ref", see
``reference_kernel``), which cancels the drift of the shared host's speed;
the wall-clock figures go to stderr and the result record.  ``--trace 1`` runs a fixed list of
jobs, the first ``TRACE_BLOCKS`` blocks of the seed's stream: each job
once untraced and once with every splitlab function wrapped by
``tracer.Tracer``.  It checks that both return equal results and prints
the per-layer metrics, whose counts therefore repeat exactly for a seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(environment, per-family figures, known defects) is written to
``.bench_results/`` in the checkout, and the spans of a traced run next
to it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(ROOT, ".bench_results")
SCRATCH = os.path.join(ROOT, ".bench_tmp")

MIN_JOBS = 110
HARD_STOP = 120.0  # seconds of timed phase after which a run ends regardless
SETUP_SAMPLES = 5
TRACE_BLOCKS = {"probe": 1, "certify": 6, "cli": 8}

KNOWN_DEFECTS = {
    "strip_cap": "check2hp on the lattice-free strip 0 <= 7x+11y <= 1, |x| <= 200 "
    "stops at the partition cap of 20 instead of certifying the property",
    "keyerror_doc": 'check2hp on {"dim":2,"inequalities":[{"b":"1"}]} escapes '
    "with a KeyError instead of exiting 2",
}


class SetupError(Exception):
    """The checkout cannot be benchmarked (no splitlab sources in it)."""


@dataclass
class Record:
    family: str
    seconds: float
    problems: list
    ref: float | None = None  # reference-kernel time around the job


_REF_ROWS = [[Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 4) for j in range(6)] for i in range(5)]


def reference_kernel() -> float:
    """Seconds taken by a fixed exact elimination (5 x 6 Fractions, about a
    millisecond), independent of splitlab.

    The host's speed drifts by tens of percent within seconds, so every job
    is timed next to this kernel and reported in its units ("ref"): the
    ratio is what the program costs, whatever the machine is doing.
    """
    start = time.perf_counter()
    work = [list(r) for r in _REF_ROWS]
    r = 0
    for c in range(6):
        pivot = next((i for i in range(r, 5) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        work[r] = [x / work[r][c] for x in work[r]]
        for i in range(5):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        r += 1
    len({tuple(row) for row in work})
    return time.perf_counter() - start


def import_splitlab():
    """Import splitlab from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "splitlab", "__init__.py")):
        raise SetupError(f"no splitlab sources under {SRC}")
    sys.path.insert(0, SRC)
    import splitlab
    import splitlab.cli  # noqa: F401  (the cli workload calls it in-process)

    where = os.path.dirname(os.path.abspath(splitlab.__file__))
    if where != os.path.join(SRC, "splitlab"):
        raise SetupError(f"splitlab was imported from {where}, not from {SRC}")
    return splitlab


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "splitlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_sha():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def setup(workload: str, seed: int):
    """Import splitlab, build the job stream and run one warm-up job."""
    sl = import_splitlab()
    import workloads

    os.makedirs(SCRATCH, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH)
    ctx = workloads.Context(sl, workloads.load_frozen(), tmpdir)
    stream = workloads.block_stream(ctx, workload, seed)
    warm = workloads.warmup_job(ctx, workload)
    problems = run_job(warm)[2]
    if problems:
        raise SetupError(f"warm-up job failed: {problems}")
    return sl, ctx, stream


def run_job(job):
    """(output, seconds, problems) of one job; exceptions count as problems."""
    start = time.perf_counter()
    try:
        out = job.run()
    except Exception as exc:  # an exception escaping splitlab fails the job
        elapsed = time.perf_counter() - start
        tb = traceback.format_exception_only(type(exc), exc)[-1].strip()
        return ("raised", tb), elapsed, [f"exception escaped: {tb}"]
    elapsed = time.perf_counter() - start
    try:
        problems = job.verify(out)
    except Exception as exc:  # a result the oracle cannot read is unverifiable
        problems = [f"unverifiable result: {exc!r}"]
    return out, elapsed, problems


def measure_setup(workload: str, seed: int) -> list:
    """Wall time of fresh processes that only set up, one after another."""
    times = []
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SetupError(f"setup process failed: {proc.stderr.strip()[-500:]}")
    return times


def known_defects(sl, ctx) -> dict:
    """Run each named defect once, untimed; 'present' means it still shows."""
    import oracle
    import workloads

    status = {}
    strip = [((7, 11), 1), ((-7, -11), 0), ((1, 0), 200), ((-1, 0), 200)]
    population = [
        (x, y) for x in range(-200, 201) for lvl in (0, 1) for y in [(lvl - 7 * x) // 11] if 7 * x + 11 * y == lvl
    ]
    try:
        report = sl.has_2hyperplane_property(sl.Polyhedron.from_inequalities(strip, 2))
        norm = workloads.normalize_2hp(report)
        problems, _ = oracle.check_2hp_certificates(norm, population)
        ok = report.overall is True and not problems
        status["strip_cap"] = "fixed" if ok else "present: wrong or unverified answer"
    except Exception as exc:
        status["strip_cap"] = f"present: {type(exc).__name__}: {exc}"
    path = ctx.write_doc({"dim": 2, "inequalities": [{"b": "1"}]})
    job = workloads.cli_error_job(ctx, "cli.error", ["check2hp", path], {})
    _, _, problems = run_job(job)
    status["keyerror_doc"] = "fixed" if not problems else f"present: {problems[0]}"
    return {name: {"defect": KNOWN_DEFECTS[name], "status": status[name]} for name in KNOWN_DEFECTS}


def percentile_summary(lat: list) -> dict:
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) >= 2 else lat[0]
    return {
        "p50": statistics.median(lat),
        "p90": p90,
        "above_p90": sum(1 for x in lat if x > p90),
        "samples": len(lat),
    }


def timed_run(stream, seconds: float):
    """Closed loop: next job only after the previous one returned and was
    checked.  Stops at the block boundary nearest to ``seconds`` (once
    ``MIN_JOBS`` ran), so every run sees whole blocks of the same mix."""
    records = []
    start = time.perf_counter()
    for blocks, block in enumerate(stream, 1):
        for job in block:
            before = reference_kernel()
            _, elapsed, problems = run_job(job)
            ref = (before + reference_kernel()) / 2
            records.append(Record(job.family, elapsed, problems, ref))
        spent = time.perf_counter() - start
        if spent >= max(HARD_STOP, seconds):
            break
        if len(records) >= MIN_JOBS and spent + 0.5 * spent / blocks >= seconds:
            break
    return records


def summarize(records) -> tuple[dict, list]:
    families: dict = {}
    for r in records:
        f = families.setdefault(r.family, {"jobs": 0, "failed": 0, "seconds": 0.0})
        f["jobs"] += 1
        f["failed"] += bool(r.problems)
        f["seconds"] += r.seconds
    failures = [{"family": r.family, "problems": r.problems[:3]} for r in records if r.problems][:20]
    return families, failures


def end_to_end(workload: str, seed: int, seconds: float):
    setup_times = measure_setup(workload, seed)
    sl, ctx, stream = setup(workload, seed)
    try:
        records = timed_run(stream, seconds)
        defects = known_defects(sl, ctx)
    finally:
        shutil.rmtree(ctx.tmpdir, ignore_errors=True)
    families, failures = summarize(records)
    n_ok = sum(1 for r in records if not r.problems)
    cost = [r.seconds / r.ref for r in records]
    wall = percentile_summary([r.seconds for r in records])
    ref_cost = percentile_summary(cost)
    metrics = {
        "jobs_per_kref": 1000 * n_ok / sum(cost),
        "job_ref.p50": ref_cost["p50"],
        "job_ref.p90": ref_cost["p90"],
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    wall["jobs_per_s"] = n_ok / sum(r.seconds for r in records)
    extra = {
        "cost_ref": ref_cost,
        "wall_s": wall,
        "ref_kernel_s": statistics.median(r.ref for r in records),
        "setup_samples": setup_times,
        "families": families,
        "failures": failures,
        "known_defects": defects,
    }
    return records, metrics, extra


def traced(workload: str, seed: int):
    import tracer as tracing

    sl, ctx, stream = setup(workload, seed)
    jobs = [job for _ in range(TRACE_BLOCKS[workload]) for job in next(stream)]
    tracer = tracing.Tracer()
    plain, traced_runs = [], []
    try:
        # each job untraced, then traced right after, so drift in machine
        # speed cancels out of the overhead ratio
        for i, job in enumerate(jobs):
            plain.append(run_job(job))
            tracer.job = i
            tracer.install()
            try:
                traced_runs.append(run_job(job))
            finally:
                tracer.uninstall()
        defects = known_defects(sl, ctx)
    finally:
        shutil.rmtree(ctx.tmpdir, ignore_errors=True)
    records = []
    mismatches = []
    for job, plain_run, traced_run in zip(jobs, plain, traced_runs):
        records.append(Record(job.family, plain_run[1], plain_run[2]))
        problems = list(traced_run[2])
        if traced_run[0] != plain_run[0]:
            mismatches.append(job.family)
            problems.append("traced result differs from the untraced one")
        records.append(Record(job.family, traced_run[1], problems))
    untraced_s = sum(r[1] for r in plain)
    traced_s = sum(r[1] for r in traced_runs)
    os.makedirs(RESULTS, exist_ok=True)
    spans = tracer.dump(os.path.join(RESULTS, f"spans-{workload}-seed{seed}.tsv.gz"))
    metrics = tracer.metrics()
    metrics["trace.overhead"] = traced_s / untraced_s
    families, failures = summarize(records)
    extra = {
        "trace_jobs": len(jobs),
        "untraced_job_s": untraced_s,
        "traced_job_s": traced_s,
        "spans": spans,
        "output_mismatches": mismatches,
        "families": families,
        "failures": failures,
        "known_defects": defects,
    }
    return records, metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    try:
        with open(SPEC) as fh:
            spec = json.load(fh)
        if args.setup_only:
            _, ctx, _ = setup(args.workload, args.seed)
            shutil.rmtree(ctx.tmpdir, ignore_errors=True)
            return 0
        if args.trace:
            records, metrics, extra = traced(args.workload, args.seed)
        else:
            records, metrics, extra = end_to_end(args.workload, args.seed, args.seconds)
    except (SetupError, OSError, ImportError) as exc:
        sys.stderr.write(f"benchmark cannot run: {exc}\n")
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}
    failed = sum(1 for r in records if r.problems)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }
    record = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        python=platform.python_version(),
        nproc=os.cpu_count(),
        git_sha=git_sha(),
        source_sha256=source_digest(),
        **extra,
    )
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    for name, m in metrics.items():
        sys.stderr.write(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}\n")
    if "wall_s" in extra:
        wall = extra["wall_s"]
        sys.stderr.write(
            f"{args.workload} wall clock: {wall['jobs_per_s']:.4g} jobs/s, p50 {wall['p50']:.4g} s, "
            f"p90 {wall['p90']:.4g} s over {wall['samples']} jobs ({wall['above_p90']} above p90); "
            f"reference kernel {extra['ref_kernel_s'] * 1e3:.4g} ms\n"
        )
    for name, d in extra["known_defects"].items():
        sys.stderr.write(f"known defect {name}: {d['status']}\n")
    for f in extra["failures"]:
        sys.stderr.write(f"FAILED {f['family']}: {'; '.join(f['problems'])}\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
