"""Source hygiene of the package, checked on its syntax trees.

Verifies, for every module of ``calderon_lab``, ``__init__.py`` included:
  - every imported name is used in its module;
  - every import sits at module level;
  - every module-level ``_private`` name is referenced somewhere in the
    package;
  - every module-level public name is reached by the package itself, by
    the benchmark (``perfbench/*.py``) or by ``tests/test_acceptance.py``:
    a name that only unit tests reach is surface no subcommand, criterion
    or benchmark job needs;
  - no module reaches another package module's ``_private`` names, neither
    by ``from .mod import _name`` nor as ``mod._name`` after
    ``from . import mod``;
  - no module reads ``det`` or ``inv`` of ``numpy.linalg`` or
    ``scipy.linalg``, under any import alias: SPD metric tables have one
    factorisation, ``grid_geometry.spd_weight``;
  - no module reads ``norm`` of ``numpy.linalg`` or ``scipy.linalg``,
    under any import alias: a BLAS ``ddot`` norm depends on the thread
    count, and the package's one norm is ``dn_solver.l2_norm``;
  - no module but ``counterexample`` imports or reads
    ``scipy.sparse.linalg``, under any import form: interior blocks have
    one solver, ``dn_solver.InteriorSolver``'s CG;
  - every parameter with a default, on a module-level function or a class
    method, is passed by some call in the package, the benchmark or
    ``tests/test_acceptance.py``: a default that only unit tests override
    is surface too;
  - every error class of ``errors.py`` but the base ``CalderonLabError``
    is raised somewhere in the package, so a deleted guard leaves no
    orphan error type;
  - no module raises ``ValueError`` or ``TypeError`` outside the schema
    converters of ``report.py`` and ``cli.py``, whose refusals the schema
    reader turns into ``ConfigInvalid``: every other refusal is typed.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "calderon_lab"
MODULES = sorted(PACKAGE.glob("*.py"))
# what reaches the library besides the library itself
REACHERS = sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]


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
    """Names a module reads: loaded identifiers, attribute names and names
    in quoted annotations."""
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


def _definitions(tree: ast.Module) -> list:
    """(name, line) of module-level functions, classes and assignments."""
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
        out += [(nm, node.lineno) for nm in names]
    return out


def _referenced(paths) -> set:
    """Every name the files at ``paths`` read or import."""
    out = set()
    for p in paths:
        tree = _tree(p)
        out |= _used_names(tree) | {nm for nm, _ in _imported_names(tree)}
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
    referenced = _referenced(MODULES)
    dead = [
        f"{p.name}.{nm} (line {line})"
        for p in MODULES
        for nm, line in _definitions(_tree(p))
        if _is_private(nm) and nm not in referenced
    ]
    assert not dead, f"module-level private names nothing references: {dead}"


def test_no_public_names_only_unit_tests_reach():
    referenced = _referenced(MODULES + REACHERS)
    unreached = [
        f"{p.name}.{nm} (line {line})"
        for p in MODULES
        for nm, line in _definitions(_tree(p))
        if not nm.startswith("_") and nm not in referenced
    ]
    assert not unreached, f"public names only unit tests reach: {unreached}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
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


SECOND_SPD_ROUTES = {"numpy.linalg.det", "numpy.linalg.inv", "scipy.linalg.det", "scipy.linalg.inv"}


def _qualified_reads(tree: ast.Module) -> list:
    """(dotted name, line) of every name and attribute chain a module reads,
    with absolute-import aliases resolved (``np.linalg.inv`` after
    ``import numpy as np`` is ``numpy.linalg.inv``)."""
    alias = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                top = a.name.split(".")[0]
                alias[a.asname or top] = a.name if a.asname else top
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            alias.update({a.asname or a.name: f"{node.module}.{a.name}" for a in node.names})
    out = []
    for node in ast.walk(tree):
        parts, base = [], node
        while isinstance(base, ast.Attribute):
            parts.append(base.attr)
            base = base.value
        if isinstance(base, ast.Name) and base.id in alias:
            out.append((".".join([alias[base.id], *reversed(parts)]), node.lineno))
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_second_spd_route(path):
    found = [f"{nm} (line {line})" for nm, line in _qualified_reads(_tree(path)) if nm in SECOND_SPD_ROUTES]
    assert not found, f"{path.name} factors matrices outside grid_geometry.spd_weight: {found}"


SECOND_NORMS = {"numpy.linalg.norm", "scipy.linalg.norm"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_one_norm(path):
    found = [f"{nm} (line {line})" for nm, line in _qualified_reads(_tree(path)) if nm in SECOND_NORMS]
    assert not found, f"{path.name} takes a norm outside dn_solver.l2_norm: {found}"


def test_norm_check_import_forms():
    tree = ast.parse(
        "import numpy as np\n"
        "import numpy.linalg as la\n"
        "import scipy.linalg\n"
        "from numpy import linalg\n"
        "from numpy.linalg import norm as nrm\n"
        "np.linalg.norm(x); la.norm(x); scipy.linalg.norm(x); linalg.norm(x); nrm(x); np.sqrt(x)\n"
    )
    found = [nm for nm, _ in _qualified_reads(tree) if nm in SECOND_NORMS]
    assert found.count("numpy.linalg.norm") == 4 and found.count("scipy.linalg.norm") == 1, found


# module -> why it may use scipy.sparse.linalg: every interior solve is
# InteriorSolver's CG, and a second interior solver gets no exemption
SPARSE_SOLVER_MODULES = {
    "counterexample": "the synthesis solves its per-layer normal equations, not an interior block",
}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_one_interior_solver(path):
    tree = _tree(path)
    imported = [(f"{n.module}.{a.name}" if isinstance(n, ast.ImportFrom) else a.name, n.lineno)
                for n in ast.walk(tree)
                if isinstance(n, ast.Import) or isinstance(n, ast.ImportFrom) and n.level == 0
                for a in n.names]
    found = sorted({f"{nm} (line {line})" for nm, line in imported + _qualified_reads(tree)
                    if f"{nm}.".startswith("scipy.sparse.linalg.")})
    if path.stem in SPARSE_SOLVER_MODULES:
        assert found, f"{path.name} no longer uses scipy.sparse.linalg: drop its exemption"
    else:
        assert not found, f"{path.name} uses scipy.sparse.linalg besides InteriorSolver's CG: {found}"


# parameter -> why its default may stay unset by every caller
UNPASSED_EXEMPT = {
    "cli.main(argv)": "the console entry point; the installed script calls main() with none",
}


def _callees(func) -> set:
    """Names a call may reach: the called name or attribute, both branches
    of a conditional callee."""
    if isinstance(func, ast.Name):
        return {func.id}
    if isinstance(func, ast.Attribute):
        return {func.attr}
    if isinstance(func, ast.IfExp):
        return _callees(func.body) | _callees(func.orelse)
    return set()


def _calls(trees) -> dict:
    """Callee name -> [(positional count, *-splat, keyword names, **-splat)]
    of every call in ``trees``; ``partial(f, ...)`` counts as a call of f."""
    out = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            names, args = _callees(node.func), node.args
            if "partial" in names and args:
                names, args = _callees(args[0]), args[1:]
            star = any(isinstance(a, ast.Starred) for a in args)
            keywords = {k.arg for k in node.keywords}
            for nm in names:
                out.setdefault(nm, []).append((len(args), star, keywords, None in keywords))
    return out


def _defaulted_parameters(module: str, tree: ast.Module) -> list:
    """(callee name, positional index or None, parameter, label) of every
    parameter with a default on a module-level function or class method;
    ``__init__`` is called by its class name, and a method's index skips
    its ``self`` or ``cls``."""
    found = [(None, node) for node in tree.body]
    found += [(node, item) for node in tree.body if isinstance(node, ast.ClassDef) for item in node.body]
    out = []
    for cls, fn in found:
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = fn.args
        positional = a.posonlyargs + a.args
        if cls is not None:
            positional = positional[1:]
        name = cls.name if cls is not None and fn.name == "__init__" else fn.name
        label = f"{module}.{fn.name}" if cls is None else f"{module}.{cls.name}.{fn.name}"
        params = list(enumerate(positional))[len(positional) - len(a.defaults):]
        params += [(None, p) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        out += [(name, i, p.arg, f"{label}({p.arg})") for i, p in params]
    return out


def _unpassed_defaults(defining: dict, calling) -> list:
    """Labels of the parameters with a default, on the functions of the
    ``defining`` trees (by module name), that no call in the ``calling``
    trees passes by position, by keyword or through a splat."""
    calls = _calls(calling)

    def passed(name, index, param) -> bool:
        return any(
            splat_kw or param in keywords or (index is not None and (index < npos or star))
            for npos, star, keywords, splat_kw in calls.get(name, ())
        )

    return [
        label
        for module, tree in defining.items()
        for name, index, param, label in _defaulted_parameters(module, tree)
        if not passed(name, index, param)
    ]


def test_no_parameters_only_unit_tests_set():
    unpassed = _unpassed_defaults(
        {p.stem: _tree(p) for p in MODULES}, [_tree(p) for p in MODULES + REACHERS]
    )
    flagged = [label for label in unpassed if label not in UNPASSED_EXEMPT]
    assert not flagged, f"parameters with a default that only unit tests set: {flagged}"
    assert set(UNPASSED_EXEMPT) <= set(unpassed), "an exempt parameter is now passed; drop its exemption"


def test_parameter_check_call_forms():
    tree = ast.parse(
        "def never(x, flag=False): pass\n"
        "def by_keyword(x, flag=False): pass\n"
        "def by_position(x, flag=False): pass\n"
        "def by_branch(x, flag=False): pass\n"
        "never(1)\n"
        "by_keyword(1, flag=True)\n"
        "by_position(1, True)\n"
        "(by_branch if x else len)(1, True)\n"
    )
    assert _unpassed_defaults({"m": tree}, [tree]) == ["m.never(flag)"]


def test_every_error_class_is_raised():
    raised = {
        (n.exc.func if isinstance(n.exc, ast.Call) else n.exc).id
        for p in MODULES
        for n in ast.walk(_tree(p))
        if isinstance(n, ast.Raise) and isinstance(getattr(n.exc, "func", n.exc), ast.Name)
    }
    classes = [n.name for n in _tree(PACKAGE / "errors.py").body if isinstance(n, ast.ClassDef)]
    orphans = [nm for nm in classes if nm != "CalderonLabError" and nm not in raised]
    assert not orphans, f"error classes the package never raises: {orphans}"


# module -> its schema converters, the functions that may refuse a value
# with ValueError or TypeError for report.read to turn into ConfigInvalid
CONVERTERS = {
    "report": {"number", "integer", "convert", "string"},
    "cli": {"_file", "_file_name", "_mode_pair"},
}


def _untyped_raises(node, allowed: set, inside: bool = False) -> list:
    """Lines that raise ValueError or TypeError outside the functions named
    in ``allowed`` and the functions nested in them."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        inside = inside or node.name in allowed
    if isinstance(node, ast.Raise) and not inside:
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, ast.Name) and exc.id in ("ValueError", "TypeError"):
            return [node.lineno]
    return [line for child in ast.iter_child_nodes(node) for line in _untyped_raises(child, allowed, inside)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_refusals_are_typed(path):
    tree = _tree(path)
    allowed = CONVERTERS.get(path.stem, set())
    defined = {n.name for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
    assert allowed <= defined, f"{path.name} defines no converter {sorted(allowed - defined)}"
    lines = _untyped_raises(tree, allowed)
    assert not lines, f"{path.name} raises ValueError or TypeError outside a schema converter: lines {lines}"
