"""API hygiene: the public name list resolves, every public name has a
caller, and no module imports dead names."""

import ast
from pathlib import Path

import pytest

import splitlab

SRC = Path(splitlab.__file__).parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parents[1]


def test_all_resolves_without_duplicates():
    names = splitlab.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(splitlab, name), name
    namespace: dict = {}
    exec("from splitlab import *", namespace)
    assert set(names) <= set(namespace)


# public names kept although nothing outside the tests calls them; an
# entry that gains a caller is stale and fails the check below
NO_CALLER_NEEDED = {
    "__version__": "package metadata",
    "necessity_witness": "the 3D catalogue of ROADMAP item 4 builds on it",
}


def _referenced_names(path: Path) -> set[str]:
    """Names and attributes a file uses, not counting the uses inside a
    top-level definition of the same name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    out: set[str] = set()
    for stmt in tree.body:
        own = getattr(stmt, "name", None)
        for n in ast.walk(stmt):
            if isinstance(n, ast.Name) and n.id != own:
                out.add(n.id)
            elif isinstance(n, ast.Attribute) and n.attr != own:
                out.add(n.attr)
    return out


def _public_definitions(path: Path) -> list[str]:
    """The public functions and classes a module defines at top level."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        n.name
        for n in tree.body
        if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and not n.name.startswith("_")
    ]


def test_public_names_have_a_caller():
    callers = MODULES + sorted((ROOT / "bench").glob("*.py"))
    callers.append(ROOT / "tests" / "test_acceptance.py")
    used = set().union(*(_referenced_names(p) for p in callers))
    public = set(splitlab.__all__).union(*map(_public_definitions, MODULES))
    orphans = sorted(n for n in public if n not in used and n not in NO_CALLER_NEEDED)
    assert orphans == []
    assert set(NO_CALLER_NEEDED) <= set(splitlab.__all__)
    assert sorted(set(NO_CALLER_NEEDED) & used) == []


def _unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "annotations":
                    imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unused_imports(tree) == []


# the integer kernel: elimination, primitive scaling, the double description
# with its one step, its adjacency test, its incidence bitmasks and both
# conversion directions, the stored state of a polyhedron, its cuts and
# containment test, its equality rows and edge list, lattice-point
# enumeration, a split direction's levels, the pieces and hull of a split,
# the start line and apex sector of the 2D sweep, the face incidence of the
# 2-hyperplane check and the affine-basis labeling of the
# 2-partitionability search
INTEGER_ONLY = {
    "linalg.py": ("_integer_rows", "_echelon", "scale_primitive"),
    "geometry.py": (
        "_adjacent", "_dd_step", "_pointed_cone_rays", "_combine", "_primitive", "cone_rays",
        "_h_to_v", "_v_to_h", "_transpose", "_unrivalled", "_facets", "_incidence",
        "_polyhedron", "_canonical", "_join_rows", "_from_homogeneous", "Polyhedron._cut",
        "Polyhedron.contains_polyhedron", "Polyhedron._equalities", "Polyhedron._edges",
        "_iter_lattice_points",
    ),
    "splits.py": ("_levels", "_piece", "_split_rows", "_sweep_sector"),
    "certify.py": ("_faces", "is_2partitionable"),
}


def _functions(tree: ast.Module) -> dict[str, ast.FunctionDef]:
    """Top-level functions by name and methods as ``Class.name``."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for n in node.body:
                if isinstance(n, ast.FunctionDef):
                    out[f"{node.name}.{n.name}"] = n
    return out


@pytest.mark.parametrize("module", sorted(INTEGER_ONLY))
def test_integer_kernel_builds_no_fraction(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    bodies = _functions(tree)
    for name in INTEGER_ONLY[module]:
        names = {
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(bodies[name])
            if isinstance(n, (ast.Name, ast.Attribute))
        }
        assert "Fraction" not in names, name
