"""
Static checks of the package source, read with `ast` and never imported.

Core claims, for every module of src/folnerlab:
    - every module-level import is used in the module, unless its line
      carries `# noqa` (a name kept importable on purpose)
    - every name listed in `__all__` is defined in the module
    - every module-level private function, class or constant (a name with
      one leading underscore) is read by some other statement of src, so
      no helper is left behind by the code that called it
    - every name listed in `__all__` is reached from an entry point of the
      package (`cli.main`, `runner.run_experiment`) through the
      module-level names that each one reads, or is kept for a
      reason that `KEPT` states; a name in `KEPT` that is reached is stale,
      and so is one kept for the benchmark that no `Layer(...)` of
      bench/layers.py (read with `ast` too) names
    - every `Layer(...)` of bench/layers.py names a module-level function,
      or a method of a module-level class, of src, and the second parameter
      of `ergodic.ergodic_trace` is `sequence`, as the benchmark reads it
    - every defaulted parameter of a function that src calls by name (a
      class's `__init__` by the class name) is passed by some call of that
      name in src, by position or keyword, or is kept for a reason that
      `UNPASSED` states; one in `UNPASSED` that a call passes is stale
    - every option of the tables of registry.py is read: each option of an
      `ANALYSES` entry as `opts["key"]` or `opts.get("key")` by its `run`,
      and each parameter of a `FAMILIES` entry by its builder or its `model`
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


def test_every_private_module_name_is_read():
    reads = [
        (path.stem, node, {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
         | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})
        for path in MODULES
        for node in _tree(path).body
    ]
    orphans = sorted(
        f"{module}.{name}"
        for module, node, _ in reads
        for name in _bound(node)
        if name.startswith("_") and not name.startswith("__")
        and not any(name in names for _, other, names in reads if other is not node)
    )
    assert not orphans, f"private module-level names that nothing in src reads: {orphans}"


# Public names that no entry point reaches, each kept for a stated reason.
KEPT = {
    ("generators", "cayley_ball"): "a traced layer of the benchmark (bench/layers.py)",
    ("products", "product_with_powers"): "a traced layer of the benchmark (bench/layers.py)",
    ("space", "separated_net"): "the acceptance suite computes its nets",
    ("space", "monotone_geodesic"): "the acceptance suite computes its geodesics",
    ("space", "bfs_distances"): "the acceptance suite computes its distances",
}
ENTRY_POINTS = [("cli", "main"), ("runner", "run_experiment")]
BENCH_LAYERS = SOURCE.parents[1] / "bench" / "layers.py"


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


def _traced_layers() -> set[str]:
    """The names that the `Layer(...)` calls of the benchmark's layer table
    give, read with `ast`, never imported."""
    return {
        node.args[0].value
        for node in ast.walk(_tree(BENCH_LAYERS))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Layer"
        and node.args and isinstance(node.args[0], ast.Constant)
    }


def test_names_kept_for_the_benchmark_are_traced_layers():
    layers = _traced_layers()
    assert layers, f"no Layer(...) found in {BENCH_LAYERS}"
    stale = sorted(key for key, reason in KEPT.items()
                   if "benchmark" in reason and ".".join(key) not in layers)
    assert not stale, f"KEPT for the benchmark, but no traced layer: {stale}"


def test_the_traced_layers_exist():
    """Each `Layer("m.f")` or `Layer("m.C.f")` of the benchmark names a
    module-level function of src/folnerlab/m.py, or a method of a
    module-level class there."""
    missing = []
    for layer in sorted(_traced_layers()):
        module, *path = layer.split(".")
        source = SOURCE / f"{module}.py"
        scope = _tree(source).body if source.exists() and len(path) in (1, 2) else []
        for kind, name in zip([ast.ClassDef] * (len(path) - 1) + [ast.FunctionDef], path):
            scope = next((node.body for node in scope if isinstance(node, kind) and node.name == name), [])
        if not scope:
            missing.append(layer)
    assert not missing, f"traced layers of {BENCH_LAYERS} not found in src: {missing}"


def test_the_ergodic_trace_takes_the_sequence_that_the_benchmark_reads():
    # bench/layers.py `_evaluations` reads `args[1]`, or `kwargs["sequence"]`
    (trace,) = [node for node in _tree(SOURCE / "ergodic.py").body
                if isinstance(node, ast.FunctionDef) and node.name == "ergodic_trace"]
    assert [*trace.args.posonlyargs, *trace.args.args][1].arg == "sequence"


# Defaulted parameters that no call in src passes, each kept for a stated reason.
UNPASSED = {
    ("registry", "parse_space", "where"): "config passes it through `registry.named(parse_space, ...)`",
}


def _defaulted(node: ast.FunctionDef, method: bool):
    """(name, positional index or None) of each defaulted parameter, the
    index counted without a method's `self` or `cls`."""
    positional = [*node.args.posonlyargs, *node.args.args][1 if method else 0:]
    first = len(positional) - len(node.args.defaults)
    yield from ((a.arg, i) for i, a in enumerate(positional) if i >= first)
    yield from ((a.arg, None) for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults) if d)


def _functions():
    """(module, name it is called by, function node, whether it is a
    method) for every function in src; a class's `__init__` is called by
    the class name."""
    for path in MODULES:
        tree = _tree(path)
        classes = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
                name = classes[id(node)] if node.name == "__init__" else node.name
                yield path.stem, name, node, id(node) in classes and not static


def test_every_defaulted_parameter_is_passed_or_kept():
    calls = {}  # called name -> [(positional count, keywords, whether it splats)]
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                keywords = {k.arg for k in node.keywords}
                calls.setdefault(name, []).append((len(node.args), keywords, starred or None in keywords))
    unpassed = {
        (module, called, name)
        for module, called, node, method in _functions()
        for name, index in _defaulted(node, method)
        if called in calls and not any(
            splat or name in keywords or index is not None and index < count
            for count, keywords, splat in calls[called]
        )
    }
    unlisted = sorted(unpassed - set(UNPASSED))
    assert not unlisted, f"defaulted parameters that no call in src passes: {unlisted}"
    stale = sorted(set(UNPASSED) - unpassed)
    assert not stale, f"UNPASSED parameters that a call passes: {stale}"


REGISTRY = SOURCE / "registry.py"


def _table(tree: ast.Module, name: str) -> ast.Dict:
    """The dict literal that a module-level statement assigns to `name`."""
    return next(node.value for node in tree.body if name in _bound(node))


def _option_keys(node: ast.Dict, tree: ast.Module) -> set[str]:
    """The keys of an options dict literal, a `**NAME` spread resolved."""
    keys = set()
    for key, value in zip(node.keys, node.values):
        keys |= _option_keys(_table(tree, value.id), tree) if key is None else {key.value}
    return keys


def _keys_read(tree: ast.Module, function: ast.expr, position: int) -> set[str]:
    """The keys that a function (named at module level, or a lambda) reads
    off its parameter at `position`, as `p["key"]` or `p.get("key")`."""
    if isinstance(function, ast.Name):
        function = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == function.id)
    param = function.args.args[position].arg
    read = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == param:
            read.add(getattr(node.slice, "value", None))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "get" \
                and getattr(node.func.value, "id", None) == param and node.args:
            read.add(getattr(node.args[0], "value", None))
    return read


def _entries(tree: ast.Module, name: str):
    """(entry name, the arguments of its constructor call) of a table."""
    table = _table(tree, name)
    return [(key.value, call.args) for key, call in zip(table.keys, table.values)]


def test_every_analysis_option_is_read_by_its_run():
    tree = _tree(REGISTRY)
    unread = sorted(
        f"{name}.{key}"
        for name, (run, options, *_) in _entries(tree, "ANALYSES")
        for key in _option_keys(options, tree) - _keys_read(tree, run, 1)
    )
    assert not unread, f"analysis options that no run reads: {unread}"


def test_every_family_option_is_read_by_its_builder_or_model():
    tree = _tree(REGISTRY)
    unread = sorted(
        f"{name}.{key}"
        for name, (options, build, *model) in _entries(tree, "FAMILIES")
        for key in _option_keys(options, tree) - _keys_read(tree, build, 0).union(*(_keys_read(tree, m, 0) for m in model))
    )
    assert not unread, f"family options that neither builder nor model reads: {unread}"
