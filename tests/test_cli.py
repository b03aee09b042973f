"""Command-line interface: subcommands, formats, exit codes, determinism."""

import json
from time import perf_counter

import pytest

from splitlab import cli
from splitlab.cli import main

from test_golden import CASES, GOLDEN, format_options

MODEL = {
    "f": ["1/2", "1/2"],
    "rays": [["-1/2", "-1/2"], ["3/2", "-1/2"], ["-1/2", "3/2"]],
}
BODY = {"dim": 2, "vertices": [["0", "0"], ["2", "0"], ["0", "2"]]}
FAT = {"dim": 2, "vertices": [["0", "0"], ["3", "0"], ["0", "3"]]}
SLAB_MODEL = {"f": ["1/2", "1/2"], "rays": [["1", "0"], ["-1", "0"]]}
SLAB = {
    "dim": 2,
    "vertices": [["0", "-1"], ["1", "-1"], ["0", "2"], ["1", "2"]],
}


@pytest.fixture
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cut_json(files, capsys):
    code, out, _ = run(capsys, "cut", files("m.json", MODEL), files("l.json", BODY))
    assert code == 0
    data = json.loads(out)
    assert data["psi"] == ["1", "1", "1"]
    assert data["psi_decimal"] == ["1.000000000000"] * 3


def test_cut_text_and_slab(files, capsys):
    code, out, _ = run(
        capsys,
        "cut",
        files("m.json", MODEL),
        files("l.json", BODY),
        "--format",
        "text",
    )
    assert code == 0
    assert out == "1*s1 + 1*s2 + 1*s3 >= 1\n"
    code, out, _ = run(
        capsys, "cut", files("sm.json", SLAB_MODEL), files("sl.json", SLAB)
    )
    assert code == 0
    assert json.loads(out)["psi"] == ["2", "2"]


def test_cut_rejects_non_lattice_free(files, capsys):
    code, _, err = run(capsys, "cut", files("m.json", MODEL), files("l.json", FAT))
    assert code == 2
    assert err == "error: body is not lattice-free; interior integer point (1, 1)\n"


def test_check2hp(files, capsys):
    code, out, _ = run(capsys, "check2hp", files("l.json", BODY))
    assert code == 0
    data = json.loads(out)
    assert data["overall"] is False
    bad = [f for f in data["faces"] if f["certificate"]
           and f["certificate"]["outcome"] == "not_partitionable"]
    assert len(bad) == 1 and bad[0]["dim"] == 2


def test_check2hp_strip_beyond_twenty_points(files, capsys):
    strip = {
        "dim": 2,
        "inequalities": [
            {"a": ["7", "11"], "b": "1"},
            {"a": ["-7", "-11"], "b": "0"},
            {"a": ["1", "0"], "b": "200"},
            {"a": ["-1", "0"], "b": "200"},
        ],
    }
    code, out, _ = run(capsys, "check2hp", files("strip.json", strip))
    assert code == 0
    assert json.loads(out)["overall"] is True


def test_classify2d(files, capsys):
    code, out, _ = run(
        capsys, "classify2d", files("m.json", MODEL), files("l.json", BODY)
    )
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "triangle_type1"
    assert data["infinite_rank"] is True


def test_classify2d_classifies_the_body_once(monkeypatch, capsys):
    """On the type-1 golden input the rays hit the body's corners, so the
    infinite-rank check reads the body's own classification: one
    ``classify_2d`` call per command, and the golden bytes."""
    import splitlab.certify as certify

    calls = []
    classify = certify.classify_2d

    def spy(l):
        calls.append(l)
        return classify(l)

    monkeypatch.setattr(certify, "classify_2d", spy)
    monkeypatch.setattr(cli, "classify_2d", spy)
    code, out, _ = run(capsys, *CASES["classify2d"], "--format", "json")
    assert code == 0 and out == (GOLDEN / "classify2d.json").read_text()
    assert len(calls) == 1


def test_probe_csv(files, capsys):
    code, out, _ = run(
        capsys,
        "probe",
        files("m.json", MODEL),
        files("l.json", BODY),
        "--floor", "4", "--bound", "1", "--rounds", "2", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "round,witness,height,decimal"
    assert lines[1] == "0,0,1,1.000000000000"
    assert lines[2] == "1,0,1/3,0.333333333333"
    assert lines[3] == "2,0,1/5,0.200000000000"


def test_probe_bad_witness(files, capsys):
    code, out, err = run(
        capsys,
        "probe",
        files("m.json", MODEL),
        files("l.json", BODY),
        "--witness", "1,2,3",
    )
    assert (code, out) == (2, "")
    assert err == "error: witness point has 3 coordinates, but the x-space of q has 2\n"


def test_rotate_facet(files, capsys):
    body = {
        "dim": 2,
        "inequalities": [
            {"a": ["-2", "0"], "b": "1"},
            {"a": ["0", "-2"], "b": "1"},
            {"a": ["2", "2"], "b": "1"},
        ],
    }
    code, out, _ = run(
        capsys, "rotate-facet", files("b.json", body), "--facet", "2"
    )
    assert code == 0
    data = json.loads(out)
    assert {"a": ["7", "8"], "b": "5"} in data["inequalities"]


def test_sweep2d(files, capsys):
    q = {
        "dim": 2,
        "vertices": [
            ["0", "-1"], ["3", "-1"], ["0", "0"],
            ["3", "0"], ["1", "3/4"], ["2", "3/4"],
        ],
    }
    split = {"pi": ["0", "1"], "pi0": "0"}
    code, out, _ = run(
        capsys,
        "sweep2d", files("q.json", q), files("s.json", split), "--apex", "3/2,7/8",
    )
    assert code == 0
    data = json.loads(out)
    assert data["splits"] == [
        {"pi": ["1", "-1"], "pi0": "0"},
        {"pi": ["1", "1"], "pi0": "2"},
    ]


def test_sweep2d_apex_near_the_plane_exits_2_at_once(files, capsys):
    q = {
        "dim": 2,
        "vertices": [
            ["0", "-1"], ["3", "-1"], ["0", "0"],
            ["3", "0"], ["1", "3/4"], ["2", "3/4"],
        ],
    }
    split = {"pi": ["0", "1"], "pi0": "0"}
    start = perf_counter()
    code, out, err = run(
        capsys,
        "sweep2d", files("q.json", q), files("s.json", split), "--apex", "3/2,1/1000000000",
    )
    assert perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err == (
        "error: sweep needs 1500000000 splits from an endpoint, more than its budget 97: "
        "the apex is too close to the near plane\n"
    )


def test_byte_identical_outputs(files, capsys, tmp_path):
    m, l = files("m.json", MODEL), files("l.json", BODY)
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["check2hp", l, "--out", out1]) == 0
    assert main(["check2hp", l, "--out", out2]) == 0
    with open(out1, "rb") as f1, open(out2, "rb") as f2:
        assert f1.read() == f2.read()
    del m


def test_missing_file(capsys):
    code, _, err = run(capsys, "check2hp", "/nonexistent/file.json")
    assert code == 2
    assert "cannot read" in err


def test_body_that_is_not_json_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{")
    code, out, err = run(capsys, "check2hp", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path} is not valid JSON: ")


@pytest.mark.parametrize(
    "body",
    [
        {"dim": 2, "inequalities": [{"b": "1"}]},
        {"dim": 2, "vertices": 5},
    ],
    ids=["inequality_without_a", "vertices_not_a_list"],
)
def test_malformed_body_exits_2(files, capsys, body):
    code, out, err = run(capsys, "check2hp", files("bad.json", body))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_bool_dimension_exits_2(files, capsys):
    body = {"dim": True, "vertices": [["0"], ["1/2"]]}
    code, out, err = run(capsys, "check2hp", files("bool_dim.json", body))
    assert code == 2
    assert out == ""
    assert err == "error: polyhedron dimension must be a positive integer\n"


ZERO_RAY = {
    "dim": 2,
    "vertices": [["0", "0"], ["1", "0"], ["0", "1"]],
    "rays": [["0", "0"]],
}


@pytest.mark.parametrize(
    "command", ["cut", "check2hp", "classify2d", "rotate-facet", "sweep2d"]
)
def test_zero_ray_exits_2(files, capsys, command):
    body = files("zero_ray.json", ZERO_RAY)
    argv = {
        "cut": ["cut", files("m.json", MODEL), body],
        "check2hp": ["check2hp", body],
        "classify2d": ["classify2d", files("m.json", MODEL), body],
        "rotate-facet": ["rotate-facet", body, "--facet", "0"],
        "sweep2d": [
            "sweep2d", body, files("s.json", {"pi": ["0", "1"], "pi0": "0"}),
            "--apex", "1/2,1/2",
        ],
    }[command]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: ray must be nonzero\n"


@pytest.mark.parametrize("apex", ["7/8", "7/8,3/2,1"], ids=["one", "three"])
def test_sweep_apex_coordinates_must_be_two(files, capsys, apex):
    body = {
        "dim": 2,
        "vertices": [["-1", "0"], ["-1", "3"], ["0", "0"], ["0", "3"], ["3/4", "1"], ["3/4", "2"]],
    }
    split = {"pi": ["1", "0"], "pi0": "0"}
    code, out, err = run(
        capsys, "sweep2d", files("q.json", body), files("s.json", split), "--apex", apex
    )
    assert code == 2
    assert out == ""
    assert err == "error: sweep apex must have 2 coordinates\n"


@pytest.mark.parametrize("pi", [["1"], ["1", "0", "0"]], ids=["one", "three"])
def test_probe_program_splits_must_live_in_x_space(files, capsys, pi):
    program = {"splits": [{"pi": ["1", "0"], "pi0": "0"}, {"pi": pi, "pi0": "0"}]}
    code, out, err = run(
        capsys, "probe", files("m.json", MODEL), files("l.json", BODY),
        "--program", files("p.json", program),
    )
    assert code == 2
    assert out == ""
    assert err == "error: split coordinates do not fit the ambient dimension\n"


def test_probe_program_provenance_tags_must_be_strings(files, capsys):
    program = {"splits": [{"pi": ["1", "0"], "pi0": "0"}], "provenance": [{"x": 1}]}
    code, out, err = run(
        capsys, "probe", files("m.json", MODEL), files("l.json", BODY),
        "--program", files("p.json", program),
    )
    assert code == 2
    assert out == ""
    assert err == "error: provenance tags must be strings\n"


@pytest.mark.parametrize("rounds", [[], ["--rounds", "2"]], ids=["no_rounds", "rounds_2"])
def test_probe_empty_program_is_refused_as_empty(files, capsys, rounds):
    # without --rounds the budget is the program's length, which must not
    # turn an empty program into a budget refusal
    code, out, err = run(
        capsys, "probe", files("m.json", MODEL), files("l.json", BODY),
        "--program", files("p.json", {"splits": []}), *rounds,
    )
    assert code == 2
    assert out == ""
    assert err == "error: strategy produced an empty split set\n"


def test_exponent_exits_2_at_once(files, capsys, tmp_path):
    # Fraction("1e10000000") alone takes seconds, and longer for larger exponents
    doc = tmp_path / "exponent.json"
    doc.write_text('{"dim":2,"vertices":[["0","0"],["1e10000000","0"],["0","1"]]}')
    model, body = files("m.json", MODEL), files("l.json", BODY)
    for argv in (["check2hp", str(doc)], ["probe", model, body, "--witness", "1e99999999,0"]):
        start = perf_counter()
        code, out, err = run(capsys, *argv)
        assert perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert err.startswith("error: not a rational: '1e")


def test_unwritable_out_exits_2(files, capsys, tmp_path):
    target = str(tmp_path / "missing" / "x.json")
    code, out, err = run(capsys, "check2hp", files("l.json", BODY), "--out", target)
    assert code == 2
    assert out == ""
    assert "cannot write" in err


MODEL_3D = {"f": ["1/2", "1/2", "1/2"], "rays": [["1", "0", "0"]]}


@pytest.mark.parametrize("command", ["cut", "probe", "classify2d"])
def test_model_and_body_dimensions_must_agree(files, capsys, command):
    code, out, err = run(
        capsys, command, files("m3.json", MODEL_3D), files("l.json", BODY)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_probe_refuses_a_4d_body(files, capsys):
    """The 4D simplex x >= 0, sum(x) <= 2 is lattice-free, but its lifted
    cone would have 5 coordinates, one more than the cap of 4."""
    units = [[str(int(i == j)) for j in range(4)] for i in range(4)]
    body = {"dim": 4, "vertices": [["0"] * 4] + [[str(2 * int(x)) for x in e] for e in units]}
    model = {"f": ["1/4"] * 4, "rays": units}
    code, out, err = run(capsys, "probe", files("m4.json", model), files("l4.json", body))
    assert (code, out) == (2, "")
    assert err == "error: lift needs a body of dimension at most 3, got 4\n"


def test_rotate_facet_index_out_of_range(capsys):
    code, out, err = run(capsys, *CASES["rotate_facet"][:2], "--facet", "7")
    assert (code, out) == (2, "")
    assert err == "error: facet index out of range\n"


def test_check2hp_empty_document(files, capsys):
    doc = {"dim": 2, "inequalities": [{"a": ["0", "0"], "b": "-1"}]}
    code, out, _ = run(capsys, "check2hp", files("e.json", doc))
    assert code == 0
    data = json.loads(out)
    assert data["overall"] is True
    assert data["faces"] == []


# -- repeated in-process calls share the parser and nothing else


def test_main_builds_one_parser(monkeypatch, files, capsys):
    built, build = [], cli.build_parser

    def counting():
        built.append(1)
        return build()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counting)
    try:
        l = files("l.json", BODY)
        assert run(capsys, "check2hp", l)[0] == 0
        assert run(capsys, "check2hp", l, "--format", "text")[0] == 0
        assert run(capsys, "check2hp", "/nonexistent/file.json")[0] == 2
        with pytest.raises(SystemExit):
            main(["check2hp"])
        assert run(capsys, "cut", files("m.json", MODEL), l)[0] == 0
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()


def test_witnesses_do_not_carry_over(files, capsys):
    m, l = files("m.json", MODEL), files("l.json", BODY)
    argv = ["probe", m, l, "--floor", "4", "--bound", "1", "--rounds", "1"]
    cli._parser.cache_clear()
    fresh = run(capsys, *argv)
    assert fresh[0] == 0
    code, out, _ = run(capsys, *argv, "--witness", "1/2,1/2", "--witness", "1/4,1/4")
    assert code == 0 and out != fresh[1]
    assert run(capsys, *argv) == fresh


def test_refusal_then_valid_command_gives_golden_bytes(capsys):
    for bad in (["probe", "--bound"], ["nosuchcommand"], ["check2hp", "--format", "xml"]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: splitlab")
        code, out, _ = run(capsys, *CASES["probe"], "--format", "text")
        assert code == 0
        assert out.encode() == (GOLDEN / "probe.text").read_bytes()


def test_unrendered_formats_and_bound_with_program_exit_2(capsys):
    """--format offers only the formats a command renders, so argparse
    refuses every other one; --bound, which only enumerated splits read, is
    refused next to --program, also at its default value.  No refusal writes
    to stdout, and the next call gives golden bytes."""
    commands = {argv[0]: (case, argv) for case, argv in sorted(CASES.items())}
    rendered = {
        (command, fmt)
        for command in commands
        for fmt, options in format_options(command).items()
        if options
    }
    assert len(rendered) == 9
    for command, (case, argv) in sorted(commands.items()):
        for fmt in ("json", "csv", "text"):
            if (command, fmt) in rendered:
                continue
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--format", fmt])
            assert exc.value.code == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith(f"usage: splitlab {command} ") and "--format" in err
            code, out, _ = run(capsys, *argv)
            assert code == 0
            assert out.encode() == (GOLDEN / f"{case}.json").read_bytes()
    for bound in ("1", "2"):
        code, out, err = run(capsys, *CASES["probe_program"], "--bound", bound)
        assert (code, out) == (2, "")
        assert err == "error: --bound applies to enumerated splits, not to --program\n"
        code, out, _ = run(capsys, *CASES["probe_program"])
        assert code == 0
        assert out.encode() == (GOLDEN / "probe_program.json").read_bytes()


@pytest.mark.parametrize("command", ["classify2d", "check2hp"])
def test_one_lattice_scan_per_command(command, lattice_scans, capsys):
    """classify2d classifies the body, and its predicate classifies and
    checks the boundary hull, which is the body itself here; check2hp
    tests lattice-freeness and builds the faces.  Each reads one scan."""
    for fmt, options in format_options(command).items():
        lattice_scans.clear()
        code, out, _ = run(capsys, *CASES[command], *options)
        assert code == 0
        assert out.encode() == (GOLDEN / f"{command}.{fmt}").read_bytes()
        assert len(lattice_scans) == 1, fmt
