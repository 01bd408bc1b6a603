"""
Static checks of the package source, read with `ast` and never imported.

Core claims, for every module of src/folnerlab:
    - every module-level import is used in the module, unless its line
      carries `# noqa` (a name kept importable on purpose)
    - every name listed in `__all__` is defined in the module
    - every name listed in `__all__` is reached from an entry point of the
      package (`cli.main`, `runner.run_experiment`, `runner.reproduce`)
      through the module-level names that each one reads, or is kept for a
      reason that `KEPT` states; a name in `KEPT` that is reached is stale
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "folnerlab"
MODULES = sorted(SOURCE.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imports(tree: ast.Module):
    """(bound name, line) of each module-level import but `__future__`."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, alias.lineno


def _all(tree: ast.Module) -> list[str]:
    """The strings of a module-level `__all__ = [...]`, or none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _bound(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines or assigns."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _defined(tree: ast.Module) -> set[str]:
    """The names bound at module level: definitions, assignments, imports."""
    return {name for name, _ in _imports(tree)} | {name for node in tree.body for name in _bound(node)}


def test_modules_are_found():
    assert {"__init__.py", "analysis.py", "cli.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    tree = _tree(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_all(tree))
    unused = [
        f"{path.name}:{line}: {name}"
        for name, line in _imports(tree)
        if name not in used and "# noqa" not in lines[line - 1]
    ]
    assert not unused, unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_names_are_defined(path):
    tree = _tree(path)
    missing = sorted(set(_all(tree)) - _defined(tree))
    assert not missing, f"{path.name}: __all__ lists undefined {missing}"


# Public names that no entry point reaches, each kept for a stated reason.
KEPT = {
    ("generators", "cayley_ball"): "a traced layer of the benchmark (bench/layers.py)",
    ("products", "product_with_powers"): "a traced layer of the benchmark (bench/layers.py)",
    ("space", "separated_net"): "the acceptance suite computes its nets",
    ("space", "monotone_geodesic"): "the acceptance suite computes its geodesics",
    ("space", "bfs_distances"): "the acceptance suite computes its distances",
}
ENTRY_POINTS = [("cli", "main"), ("runner", "run_experiment"), ("runner", "reproduce")]


def _definitions():
    """(module, name) -> the module-level statement that binds it, and
    (module, name) -> (module, name) for each relative import it resolves."""
    definitions, imported = {}, {}
    for path in MODULES:
        module = path.stem
        for node in _tree(path).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                imported.update(((module, a.asname or a.name), (node.module, a.name)) for a in node.names)
            definitions.update(((module, name), node) for name in _bound(node))
    return definitions, imported


def _reached():
    """The (module, name) pairs that an entry point reaches: the names its
    statement reads, the names theirs read, and so on; a function that a
    decorator `@name.attribute(...)` registers on `name` (a click command on
    its group) is read by `name`."""
    definitions, imported = _definitions()
    resolve = lambda module, name: imported.get((module, name), (module, name))
    registered = {}
    for (module, name), node in definitions.items():
        for decorator in getattr(node, "decorator_list", []):
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name):
                registered.setdefault(resolve(module, target.value.id), []).append((module, name))
    seen, stack = set(), list(ENTRY_POINTS)
    while stack:
        key = stack.pop()
        if key in seen or key not in definitions:
            continue
        seen.add(key)
        module = key[0]
        stack += [resolve(module, n.id) for n in ast.walk(definitions[key]) if isinstance(n, ast.Name)]
        stack += registered.get(key, [])
    return seen, resolve


def test_every_public_name_is_reached_or_kept():
    reached, resolve = _reached()
    public = {(p.stem, name) for p in MODULES for name in _all(_tree(p))}
    unreached = sorted(key for key in public if resolve(*key) not in reached and key not in KEPT)
    assert not unreached, f"public names that no entry point reaches: {unreached}"
    stale = sorted(key for key in KEPT if key in reached or key not in public)
    assert not stale, f"KEPT names that are reached or not public: {stale}"
