"""API hygiene: the public name list resolves, every public name and
public method has a caller, and no module imports dead names."""

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


# public names and methods (``Class.name``) kept although nothing outside
# the tests calls them; an entry that gains a caller is stale and fails the
# check below
NO_CALLER_NEEDED = {
    "__version__": "package metadata",
    "necessity_witness": "the 3D catalogue of ROADMAP item 4 builds on it",
}


def _referenced_names(path: Path) -> set[str]:
    """Names and attributes a file uses, not counting the uses inside a
    definition (a function, class or method) of the same name."""
    out: set[str] = set()

    def visit(node: ast.AST, own: frozenset) -> None:
        if isinstance(node, ast.Name) and node.id not in own:
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in own:
            out.add(node.attr)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            own = own | {node.name}
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    visit(ast.parse(path.read_text(), filename=str(path)), frozenset())
    return out


def _public_definitions(path: Path) -> dict[str, str]:
    """The public functions and classes a module defines at top level, and
    the public methods and properties of its public classes as
    ``Class.name``, each mapped to the name a caller writes.  Dataclass
    fields are not definitions."""
    tree = ast.parse(path.read_text(), filename=str(path))
    out = {}
    for n in tree.body:
        if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and not n.name.startswith("_"):
            out[n.name] = n.name
            if isinstance(n, ast.ClassDef):
                for m in n.body:
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"):
                        out[f"{n.name}.{m.name}"] = m.name
    return out


def _orphans(modules: list[Path], used: set[str]) -> list[str]:
    public = {n: n for n in splitlab.__all__}
    for path in modules:
        public.update(_public_definitions(path))
    return sorted(n for n, ref in public.items() if ref not in used and n not in NO_CALLER_NEEDED)


def _callers() -> set[str]:
    callers = MODULES + sorted((ROOT / "bench").glob("*.py"))
    callers.append(ROOT / "tests" / "test_acceptance.py")
    return set().union(*(_referenced_names(p) for p in callers))


def test_public_names_have_a_caller():
    used = _callers()
    assert _orphans(MODULES, used) == []
    for name in NO_CALLER_NEEDED:
        owner, _, attr = name.rpartition(".")
        assert (owner or attr) in splitlab.__all__, name
        assert not owner or hasattr(getattr(splitlab, owner), attr), name
        assert attr not in used, name


def test_a_method_with_no_caller_is_an_orphan(tmp_path):
    """The check above reaches methods: a public method that nothing reads
    is reported, under its class."""
    path = tmp_path / "extra.py"
    path.write_text(
        (SRC / "geometry.py").read_text().replace(
            "    def contains_polyhedron(",
            "    def no_reader(self) -> int:\n        return 0\n\n    def contains_polyhedron(",
        )
    )
    assert _orphans([path], _callers()) == ["Polyhedron.no_reader"]


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
# conversion directions, the stored state of a polyhedron, its cuts, its
# relative-interior and containment tests, its equality rows, facet rows
# and edge list, lattice-point enumeration, its cached scan and the
# interior-point scan, a split direction's levels, the row values of a
# split's sides, an edge's crossing point and the plane sections, the
# polar join and the hull of a split, a round of splits with its live
# splits, its skip test and its cut, the top vertex a last round reads, the
# start line and apex sector of the 2D sweep, the face incidence of the
# 2-hyperplane check and the affine-basis labeling of the
# 2-partitionability search, and facet repair
INTEGER_ONLY = {
    "linalg.py": ("_integer_rows", "_echelon", "scale_primitive"),
    "geometry.py": (
        "_adjacent", "_pointed_cone_rays", "_combine", "_primitive", "cone_rays",
        "_h_to_v", "_v_to_h", "_transpose", "_unrivalled", "_facets",
        "_polyhedron", "_canonical", "_from_homogeneous", "_cut_by", "Polyhedron._cut",
        "Polyhedron.contains_polyhedron", "Polyhedron._equalities",
        "Polyhedron._facet_rows", "Polyhedron._edges", "Polyhedron._lattice_points",
        "Polyhedron.relint_contains", "_iter_lattice_points", "interior_integer_point",
    ),
    "splits.py": (
        "_levels", "_sides", "_crossing", "_section", "_join", "_split_rows", "_live",
        "apply_round", "_sweep_sector",
    ),
    "certify.py": ("_faces", "is_2partitionable"),
    "ranks.py": ("_top", "rotate_facet"),
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
