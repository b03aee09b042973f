"""API hygiene: the public name list resolves and no module imports dead names."""

import ast
from pathlib import Path

import pytest

import splitlab

SRC = Path(splitlab.__file__).parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def test_all_resolves_without_duplicates():
    names = splitlab.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(splitlab, name), name
    namespace: dict = {}
    exec("from splitlab import *", namespace)
    assert set(names) <= set(namespace)


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
# and the affine-basis labeling of the 2-partitionability search
INTEGER_ONLY = {
    "linalg.py": ("_integer_rows", "_echelon", "scale_primitive"),
    "geometry.py": ("_pointed_cone_rays", "_combine"),
    "certify.py": ("is_2partitionable",),
}


@pytest.mark.parametrize("module", sorted(INTEGER_ONLY))
def test_integer_kernel_builds_no_fraction(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    bodies = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    for name in INTEGER_ONLY[module]:
        names = {
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(bodies[name])
            if isinstance(n, (ast.Name, ast.Attribute))
        }
        assert "Fraction" not in names, name
