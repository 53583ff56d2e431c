"""The runtime depends on the standard library and numpy only."""

import ast
import sys
from pathlib import Path

import recdro

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "recdro"}


def imported_roots(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_runtime_imports_are_stdlib_numpy_or_recdro():
    sources = sorted(Path(recdro.__file__).parent.glob("*.py"))
    assert sources
    foreign = [f"{path.name}:{lineno} imports {root}"
               for path in sources for lineno, root in imported_roots(path)
               if root not in ALLOWED]
    assert foreign == []
