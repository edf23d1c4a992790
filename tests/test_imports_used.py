"""Every name a library module imports is used in that module, and every
private module-level helper is read somewhere in the library.

A deletion that leaves an import or a helper behind would otherwise go
unnoticed: the module still loads.  The modules are parsed, not run.  A name
counts as used when it is read anywhere in the module or listed in its
``__all__``; the few deliberate re-exports are named below.
"""

import ast
from pathlib import Path

import tropicalc

PACKAGE_DIR = Path(tropicalc.__file__).resolve().parent

# module -> imported names kept on purpose without a use in the module
REEXPORTS = {
    "nevanlinna": {"omega_at"},  # reached as nevanlinna.omega_at by callers
}


def _imported_names(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def test_library_modules_use_every_import():
    unused = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        kept = REEXPORTS.get(path.stem, set())
        used = _used_names(tree)
        for name, line in _imported_names(tree).items():
            if name not in used and name not in kept:
                unused.append(f"{path.name}:{line} {name}")
    assert not unused, unused


def test_listed_reexports_are_imported():
    for module, names in REEXPORTS.items():
        tree = ast.parse((PACKAGE_DIR / f"{module}.py").read_text(encoding="utf-8"))
        assert names <= set(_imported_names(tree)), module


def test_private_helpers_are_read():
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE_DIR.glob("*.py"))
    }
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    helpers = [
        (module, node.name, node.lineno)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]
    assert len(helpers) > 50  # the scan found the helpers at all
    unread = [
        f"{module}:{line} {helper}"
        for module, helper, line in helpers
        if helper not in read
    ]
    assert not unread, unread
