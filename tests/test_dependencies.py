"""The package imports nothing beyond the standard library, numpy and click."""

import ast
import sys
from pathlib import Path

import jordan_spectra

RUNTIME_DEPENDENCIES = {"numpy", "click"}


def test_absolute_imports_are_stdlib_or_declared():
    package = Path(jordan_spectra.__file__).resolve().parent
    allowed = set(sys.stdlib_module_names) | RUNTIME_DEPENDENCIES | {package.name}
    modules = sorted(package.rglob("*.py"))
    assert modules
    stray = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            stray += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in allowed
            ]
    assert not stray, stray
