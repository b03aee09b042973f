"""Self-tests of the benchmark: generator, oracle, tracer and entry point.

    python3 -m pytest bench/tests -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import splitlab  # noqa: E402
import splitlab.cli  # noqa: E402

import compare  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def scratch():
    """A temporary directory inside the checkout, as the benchmark itself uses."""
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    path = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(ROOT, ".bench_tmp"))
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture
def ctx(scratch):
    return workloads.Context(splitlab, workloads.load_frozen(), scratch)


def first_blocks(ctx, workload, seed, n=2):
    stream = workloads.block_stream(ctx, workload, seed)
    return [job for _ in range(n) for job in next(stream)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(ctx, workload):
    def descs(seed):
        return [json.dumps(j.desc, default=str) for j in first_blocks(ctx, workload, seed)]

    assert descs(7) == descs(7)
    assert descs(7) != descs(8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_block_mix_is_seed_independent(ctx, workload):
    def mix(seed):
        return sorted(j.family for j in next(workloads.block_stream(ctx, workload, seed)))

    assert mix(1) == mix(2)


def cheap_jobs(ctx):
    """A few fast jobs of every kind the tracer must not disturb."""
    ident = workloads.Affine(((1, 0), (0, 1)), (2, -1))
    rng = __import__("random").Random(5)
    jobs = [
        workloads.executor_job(ctx, "t2", ident),
        workloads.twohp_job(ctx, "type1", ident),
        workloads.classify_job(ctx, "quad", ident),
        workloads.partition_job(ctx, rng, 2, 6, 2),
        workloads.refusal_job(ctx, rng, 6),
    ]
    jobs += workloads.cli_body_jobs(ctx, "type1", 1, (1, 1))[:6]
    jobs += workloads.cli_error_jobs(ctx, rng)
    return jobs


def test_traced_outputs_equal_untraced(ctx):
    jobs = cheap_jobs(ctx)
    plain = [job.run() for job in jobs]
    t = tracer.Tracer()
    t.install()
    try:
        traced = [job.run() for job in jobs]
    finally:
        t.uninstall()
    assert traced == plain
    for job, out in zip(jobs, traced):
        assert job.verify(out) == [], job.family
    assert t.calls["cli.main"] == 13
    assert t.counters["cli.exit2"] == 7
    assert t.calls["ranks.execute_finite_rank"] == 1


def test_oracle_flags_corrupted_height(ctx):
    job = workloads.executor_job(ctx, "square", workloads.Affine(((1, 1), (0, 1)), (0, 3)))
    rep = job.run()
    assert job.verify(rep) == []
    sample = rep.profiles[-1].samples[0]
    bad_profile = dataclasses.replace(rep.profiles[-1], samples=((sample[0], sample[1] + 2),))
    corrupted = dataclasses.replace(rep, profiles=rep.profiles[:-1] + (bad_profile,))
    problems = job.verify(corrupted)
    assert any("height grew" in p for p in problems)
    assert any("frozen" in p for p in problems)


def test_oracle_flags_wrong_partition(ctx):
    job = workloads.partition_job(ctx, __import__("random").Random(3), 3, 7, 3)
    cert = job.run()
    assert job.verify(cert) == []
    moved = dataclasses.replace(cert, s1=cert.s1[1:], s2=cert.s2 + cert.s1[:1])
    assert job.verify(moved)
    shifted = dataclasses.replace(cert, split=splitlab.Split.make(cert.split.pi, cert.split.pi0 + 1))
    assert job.verify(shifted)
    assert oracle.check_partition((1, 0), 0, [(0, 0)], [(1, 0)], [(0, 0), (1, 0), (2, 0)])


def test_oracle_flags_bad_refusal_witness():
    tri = [(0, 0), (4, 0), (0, 4)]
    assert oracle.check_refusal_witness((1, 1), tri) == []
    assert oracle.check_refusal_witness((2, 2), tri)  # on the boundary
    assert oracle.check_refusal_witness((1, 0), tri)
    assert oracle.check_refusal_witness(None, tri)


def test_rebinding_covers_aliased_imports():
    original = splitlab.linalg.rank
    assert splitlab.ranks.mat_rank is original
    t = tracer.Tracer()
    t.install()
    try:
        assert splitlab.ranks.mat_rank is splitlab.linalg.rank
        assert splitlab.linalg.rank is not original
        assert splitlab.geometry.rank is splitlab.linalg.rank
        assert splitlab.ranks.mat_rank([[1, 0], [0, 1]]) == 2
        assert t.calls["linalg.rank"] == 1
        assert splitlab.Polyhedron.from_generators is not None
        splitlab.convex_hull([(0, 0), (1, 0), (0, 1)])
        assert t.calls["geometry.convex_hull"] == 1
        assert t.calls["geometry.Polyhedron.from_generators"] == 1
    finally:
        t.uninstall()
    assert splitlab.ranks.mat_rank is original
    assert splitlab.linalg.rank is original
    assert splitlab.Polyhedron.from_generators.__name__ == "from_generators"
    assert not hasattr(splitlab.Polyhedron.from_generators, "__wrapped__")


def test_self_time_excludes_children():
    t = tracer.Tracer()
    t.install()
    try:
        splitlab.convex_hull([(0, 0), (3, 0), (0, 3)])
    finally:
        t.uninstall()
    total = t.span_end[0] - t.span_start[0]
    assert t.names[t.span_name[0]] == "geometry.convex_hull"
    assert sum(t.self_time.values()) == pytest.approx(total, rel=1e-6)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(BENCH, "layers.json")) as fh:
        layers = json.load(fh)
    per_layer = {m["name"] for m in spec["per_layer"]}
    produced = set(tracer.Tracer().metrics()) | {"trace.overhead"}
    assert per_layer == produced
    mapped = {name for layer in layers["layers"] for name in layer["metrics"]}
    assert mapped == per_layer


def test_compare_verdicts():
    parent = {s: 1.0 + 0.01 * (s % 3) for s in range(10)}
    faster = {s: 0.7 + 0.01 * (s % 3) for s in range(10)}
    slower = {s: 1.3 + 0.01 * (s % 3) for s in range(10)}
    assert compare.verdict(parent, faster, "lower", 0.1, False) == "improved"
    assert compare.verdict(parent, slower, "lower", 0.1, False) == "worse"
    assert compare.verdict(parent, dict(parent), "lower", 0.1, False) == "unchanged"
    noisy = {s: 1.0 + 0.5 * (s % 2) for s in range(10)}
    assert compare.verdict(noisy, dict(noisy), "lower", 0.1, False) == "unresolved"
    assert compare.verdict(parent, faster, "lower", 0.1, True).startswith("unresolved")


def test_entry_point_fails_without_sources(scratch):
    shutil.copytree(BENCH, os.path.join(scratch, "bench"), ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=scratch, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
