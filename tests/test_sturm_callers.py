"""Sturm sequences only isolate and count roots.

Once a number is isolated, comparisons, signs and zero tests read signs of
polynomials at rationals, so inside the library `sturm_chain` is read only
by `sturm_isolate` (isolation) and `algebraic_root` (the one-root check on
numbers from outside).  The modules are parsed, not run; imports and
``__all__`` entries are not reads.
"""

import ast
from pathlib import Path

import tropicalc

PACKAGE_DIR = Path(tropicalc.__file__).resolve().parent


def _readers(name: str) -> set[tuple[str, str]]:
    """(module, top-level definition) pairs that read `name`."""
    found = set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Name) and node.id == name) or (
                    isinstance(node, ast.Attribute) and node.attr == name
                ):
                    found.add((path.stem, getattr(top, "name", "<module>")))
    return found


def test_sturm_chain_is_read_only_where_roots_are_counted():
    assert _readers("sturm_chain") == {
        ("numeric", "sturm_isolate"),
        ("numeric", "algebraic_root"),
    }
