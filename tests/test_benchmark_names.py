"""The names the benchmark traces must exist in the library.

benchmark/run.py reports self time per layer and call counts by dotted name
(``numeric.AlgebraicNumber._halve``).  A name that no longer resolves would
read as 0 calls there, so a deletion or rename has to fail here instead.
The benchmark's source is parsed, not run.
"""

import ast
import importlib
import inspect
from pathlib import Path

import tropicalc

RUN_PY = Path(__file__).resolve().parent.parent / "benchmark" / "run.py"
PACKAGE_DIR = Path(tropicalc.__file__).resolve().parent


def _module_constant(name: str):
    for node in ast.parse(RUN_PY.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {RUN_PY}")


def test_traced_counts_name_library_functions():
    for layer in _module_constant("TRACED_SELF_TIMES"):
        importlib.import_module(f"tropicalc.{layer}")
    names = _module_constant("TRACED_COUNTS").values()
    assert names
    for dotted in names:
        layer, *path = dotted.split(".")
        target = importlib.import_module(f"tropicalc.{layer}")
        for attr in path:
            assert hasattr(target, attr), dotted
            target = getattr(target, attr)
        assert inspect.isfunction(target), dotted
        source = Path(target.__code__.co_filename).resolve()
        assert source == PACKAGE_DIR / f"{layer}.py", dotted
