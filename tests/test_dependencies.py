"""The package imports nothing beyond the standard library, numpy and click,
the face side imports no LP, the exact kernel keeps no public routine
that only tests reach, one vertex cap is the default of every cap, and the
per-element product, trace form, eigenvalues and idempotent tests are
one-row cases of their row functions."""

import ast
import sys
from pathlib import Path

import pytest

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


def test_geometry_imports_nothing_from_exactlp():
    package = Path(jordan_spectra.__file__).resolve().parent
    source = (package / "geometry.py").read_text(encoding="utf-8")
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert imported
    assert not {
        name for name in imported if name and name.split(".")[-1] == "exactlp"
    }, sorted(imported)


def test_every_public_exactla_function_has_a_caller_in_the_package():
    # the package re-exports nothing from exactla, so a public routine that
    # no other module names is reached by tests alone
    package = Path(jordan_spectra.__file__).resolve().parent
    kernel = package / "exactla.py"
    public = {
        node.name
        for node in ast.parse(kernel.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    assert public
    used = set()
    for path in package.rglob("*.py"):
        if path == kernel:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module in (
                "exactla",
                f"{package.name}.exactla",
            ):
                used.update(alias.name for alias in node.names)
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "exactla"
            ):
                used.add(node.attr)
    assert not public - used, sorted(public - used)


def test_one_vertex_cap_and_every_cap_defaults_to_it():
    # one knob: no other module-level *_CAP name, and no literal default
    # for a ``cap`` parameter anywhere in the package
    package = Path(jordan_spectra.__file__).resolve().parent
    caps, stray = [], []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            caps += [
                f"{path.stem}.{t.id}"
                for t in targets
                if isinstance(t, ast.Name) and t.id.endswith("_CAP")
            ]
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
            pairs = list(zip(positional, defaults)) + list(
                zip(args.kwonlyargs, args.kw_defaults)
            )
            stray += [
                f"{path.name}:{node.lineno} {node.name}"
                for arg, default in pairs
                if arg.arg == "cap"
                and default is not None
                and not (isinstance(default, ast.Name) and default.id == "VERTEX_CAP")
            ]
    assert caps == ["geometry.VERTEX_CAP"], caps
    assert not stray, stray


@pytest.mark.parametrize(
    "module,function,rows",
    [
        ("algebra", "jordan_product", "jordan_product_rows"),
        ("algebra", "trace", "trace_rows"),
        ("algebra", "inner", "gram_rows"),
        ("algebra", "norm", "norm_rows"),
        ("spectral", "eigenvalues", "eigenvalue_rows"),
        ("spectral", "is_idempotent", "idempotent_rows"),
        ("spectral", "is_primitive_idempotent", "primitive_rows"),
    ],
)
def test_per_element_functions_are_one_row_wrappers(module, function, rows):
    # one path per computation: the per-element function calls its row
    # function and decides nothing by family itself
    package = Path(jordan_spectra.__file__).resolve().parent
    tree = ast.parse((package / f"{module}.py").read_text(encoding="utf-8"))
    (node,) = [
        n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function
    ]
    called = {
        n.func.id for n in ast.walk(node) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
    }
    assert rows in called, sorted(called)
    branches = [
        f"{module}.py:{n.lineno}"
        for n in ast.walk(node)
        if isinstance(n, (ast.If, ast.IfExp, ast.Match, ast.BoolOp))
        or (isinstance(n, ast.Attribute) and n.attr == "family")
    ]
    assert not branches, branches
