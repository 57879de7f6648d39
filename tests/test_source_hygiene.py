"""Source hygiene of the package, checked on its syntax trees.

Verifies, for every module of ``calderon_lab`` except the re-exports in
``__init__.py``:
  - every imported name is used in its module;
  - every import sits at module level;
  - every module-level ``_private`` name is referenced somewhere in the
    package;
and, for every module including ``__init__.py``:
  - no module reaches another package module's ``_private`` names, neither
    by ``from .mod import _name`` nor as ``mod._name`` after
    ``from . import mod``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "calderon_lab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _annotation_names(node) -> set:
    """Names inside a quoted annotation such as ``-> "CylinderGrid"``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            return {n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name)}
        except SyntaxError:
            return set()
    return set()


def _used_names(tree: ast.Module) -> set:
    """Names a module reads: loaded identifiers, attribute names, names in
    quoted annotations and the strings listed in ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.arg):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts}
    return used


def _imported_names(tree: ast.Module) -> list:
    """(bound name, line) of every import, at any depth."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [((a.asname or a.name).split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, node.lineno) for a in node.names]
    return out


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_definitions(tree: ast.Module) -> list:
    """(name, line) of module-level ``_private`` functions, classes and
    assignments."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        out += [(nm, node.lineno) for nm in names if _is_private(nm)]
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = _tree(path)
    used = _used_names(tree)
    unused = [f"{nm} (line {line})" for nm, line in _imported_names(tree) if nm not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_imports_at_module_level(path):
    tree = _tree(path)
    top = {id(node) for node in tree.body}
    nested = [
        f"line {node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
    ]
    assert not nested, f"{path.name} imports below module level: {nested}"


def test_no_unreferenced_private_names():
    trees = {p.name: _tree(p) for p in sorted(PACKAGE.glob("*.py"))}
    referenced = set()
    for tree in trees.values():
        referenced |= _used_names(tree)
        referenced |= {nm for nm, _ in _imported_names(tree)}
    dead = [
        f"{name}.{nm} (line {line})"
        for name, tree in trees.items()
        for nm, line in _private_definitions(tree)
        if nm not in referenced
    ]
    assert not dead, f"module-level private names nothing references: {dead}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_private_names_from_other_modules(path):
    tree = _tree(path)
    relative = [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level > 0]
    modules = {a.asname or a.name for n in relative if n.module is None for a in n.names}
    reached = [
        f"{a.name} from .{n.module} (line {n.lineno})"
        for n in relative
        for a in n.names
        if _is_private(a.name)
    ] + [
        f"{n.value.id}.{n.attr} (line {n.lineno})"
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute)
        and isinstance(n.value, ast.Name)
        and n.value.id in modules
        and _is_private(n.attr)
    ]
    assert not reached, f"{path.name} reaches private names of other modules: {reached}"
