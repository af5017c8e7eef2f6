"""The package imports nothing beyond the standard library, numpy and click,
the exact side imports no float code at module level, the package resolves
its exports lazily in any import order, the face side imports no LP, the
exact kernel keeps no public routine that only tests reach, one vertex cap
is the default of every cap, only the functions callers pass a tolerance
to take one, the per-element product, trace form, eigenvalues and
idempotent tests are one-row cases of their row functions, both spectral
entry points share one overflow guard, and the spectral decomposition
draws no random numbers."""

import ast
import subprocess
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


# The exact side: everything a convex-geometry command can reach.
EXACT_MODULES = (
    "__init__",
    "scalars",
    "exactla",
    "exactlp",
    "geometry",
    "automorphisms",
    "operational",
    "classification",
    "cli",
)
FLOAT_MODULES = {"numpy", "hypercomplex", "algebra", "spectral", "symmetry"}


def _module_level_imports(tree):
    """Modules imported when the file is executed, as their last name part.

    Function bodies run later and ``if TYPE_CHECKING:`` blocks never run;
    every other statement, nested or not, runs at import.
    """
    found = []
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test).endswith("TYPE_CHECKING"):
            stack.extend(node.orelse)
            continue
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name.split(".")[-1]) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                found.append((node.lineno, node.module.split(".")[-1]))
            else:  # from . import x
                found += [(node.lineno, a.name) for a in node.names]
        stack.extend(ast.iter_child_nodes(node))
    return found


@pytest.mark.parametrize("module", EXACT_MODULES)
def test_exact_side_imports_no_float_code_at_module_level(module):
    # Exact commands (spectrality, frames, plot data, rechecks, table rows)
    # must start without numpy, so the float side is imported only at the
    # branch that dispatches to it.  symmetry is float side and keeps its
    # module-level imports: a function-local import costs about 2 us on
    # every call (two imports, Python 3.11, 2-core VM), and its per-frame
    # and per-trial helpers run thousands of times per battery.
    package = Path(jordan_spectra.__file__).resolve().parent
    path = package / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    stray = [
        f"{path.name}:{line} {name}"
        for line, name in _module_level_imports(tree)
        if name in FLOAT_MODULES
    ]
    assert not stray, stray


_IMPORT_ORDERS = {
    "package first": "import jordan_spectra",
    "algebra submodule first": "import jordan_spectra.algebra; import jordan_spectra",
    "after the cli": "import jordan_spectra.cli; import jordan_spectra",
}


@pytest.mark.parametrize("order", sorted(_IMPORT_ORDERS))
def test_algebra_factory_survives_every_import_order(order, cli_env):
    # Loading the submodule jordan_spectra.algebra binds it on the package
    # under the factory's name; the package must keep the factory.
    code = (
        _IMPORT_ORDERS[order]
        # a submodule none of the orders loads: found by import, not export
        + "\nfrom jordan_spectra import exactlp"
        + "\nassert exactlp.__name__ == 'jordan_spectra.exactlp'"
        + "\nimport jordan_spectra.algebra"
        + "\nassert jordan_spectra.algebra('sym_r', 3).dim == 6"
        + "\nfrom jordan_spectra import algebra"
        + "\nassert algebra('herm_c', 2).rank == 2"
        + "\nmissing = [n for n in jordan_spectra.__all__ if not hasattr(jordan_spectra, n)]"
        + "\nassert not missing, missing"
        + "\nassert set(jordan_spectra.__all__) <= set(dir(jordan_spectra))"
        + "\nassert 'verify_strong_symmetry_eja' in jordan_spectra.__all__"
        + "\nassert not hasattr(jordan_spectra, 'no_such_export')"
        + "\nassert jordan_spectra.algebra('spin', 3).dim == 4"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=cli_env)
    assert proc.returncode == 0, proc.stderr.decode()


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


# Callers pass spectral_decompose other tolerances (the CLI's --tol among
# them), and the idempotent predicates and the frame check other bounds;
# the private per-family solvers take spectral_decompose_rows's tol as given.
TOLERANCE_PARAMETERS = {
    "cli.decompose",
    "spectral.spectral_decompose",
    "spectral.spectral_decompose_rows",
    "spectral.idempotent_rows",
    "spectral.primitive_rows",
    "spectral.is_idempotent",
    "spectral.is_primitive_idempotent",
    "spectral._fine_rows",
    "spectral._fine_matrix_rows",
    "spectral._fine_spin_rows",
    "spectral._fine_herm_o_rows",
    "spectral._herm_o_cubic",
    "symmetry._check_jordan_frame",
    "symmetry._frame_refusals",
}


def test_only_functions_that_callers_tune_take_a_tolerance():
    # every other tolerance or retry count is a module constant: no
    # ``tol``, ``tries`` or ``retries`` parameter off the list, and a
    # listed one defaults to a named constant, never to a literal
    package = Path(jordan_spectra.__file__).resolve().parent
    found, literal = set(), []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
            pairs = list(zip(positional, defaults)) + list(
                zip(args.kwonlyargs, args.kw_defaults)
            )
            for arg, default in pairs:
                if arg.arg not in ("tol", "tries", "retries"):
                    continue
                found.add(f"{path.stem}.{node.name}")
                if default is not None and not isinstance(default, ast.Name):
                    literal.append(f"{path.name}:{node.lineno} {node.name}")
    assert found == TOLERANCE_PARAMETERS, sorted(found ^ TOLERANCE_PARAMETERS)
    assert not literal, literal


def test_both_spectral_entry_points_share_one_overflow_guard():
    # the policy "solve x / 2**k, scale the eigenvalues back" is written
    # once: both entry points call the guard's two helpers, and no other
    # function in the module shifts binary exponents
    package = Path(jordan_spectra.__file__).resolve().parent
    tree = ast.parse((package / "spectral.py").read_text(encoding="utf-8"))
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    guard = {"_downscaled_rows", "_scaled_back"}
    for name in ("spectral_decompose_rows", "eigenvalue_rows"):
        called = {
            n.func.id
            for n in ast.walk(functions[name])
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
        }
        assert guard <= called, (name, sorted(called))
    shifts = [
        f"{name}:{n.lineno} {n.attr}"
        for name, fn in functions.items()
        if name not in guard
        for n in ast.walk(fn)
        if isinstance(n, ast.Attribute) and n.attr in ("ldexp", "frexp")
    ]
    assert not shifts, shifts


@pytest.mark.parametrize(
    "module,function,rows",
    [
        ("algebra", "jordan_product", "jordan_product_rows"),
        ("algebra", "trace", "trace_rows"),
        ("algebra", "inner", "gram_rows"),
        ("algebra", "norm", "norm_rows"),
        ("algebra", "quadratic_rep", "quadratic_rows"),
        ("spectral", "eigenvalues", "eigenvalue_rows"),
        ("spectral", "spectral_decompose", "spectral_decompose_rows"),
        ("spectral", "random_jordan_frame", "random_frame_rows"),
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


def test_the_float_side_loads_as_one_unit(cli_env):
    # Code that wraps the loaded modules' functions at one moment (the
    # benchmark's tracer) must find symmetry loaded with spectral.
    code = "import sys, jordan_spectra.spectral; assert 'jordan_spectra.symmetry' in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=cli_env)
    assert proc.returncode == 0, proc.stderr.decode()


def test_spectral_decomposition_draws_no_random_numbers():
    # the fine frame is a deterministic function of x: no helper on the
    # decomposition path reaches a generator, and no seed steers it
    package = Path(jordan_spectra.__file__).resolve().parent
    tree = ast.parse((package / "spectral.py").read_text(encoding="utf-8"))
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    path = [
        "spectral_decompose", "spectral_decompose_rows", "_peel", "_herm_o_three", "_descending",
    ] + sorted(f for f in functions if f.startswith("_fine_"))
    assert {"_fine_rows", "_fine_matrix_rows", "_fine_herm_o_rows"} <= set(path)
    random = {"default_rng", "_as_rng", "random_element"}
    stray = [
        f"{name}:{n.lineno} {n.id if isinstance(n, ast.Name) else n.attr}"
        for name in path
        for n in ast.walk(functions[name])
        if (isinstance(n, ast.Name) and n.id in random)
        or (isinstance(n, ast.Attribute) and n.attr in random)
    ]
    assert not stray, stray
    args = functions["spectral_decompose"].args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    assert "seed" not in names, names
