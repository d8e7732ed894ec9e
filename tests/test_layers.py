"""The package's modules form one stack of layers: each imports only the
modules below it, at module level and inside functions alike.  A formula
that two layers need lives in the lower one, so no import cycle is ever
worked around with a function-level import.  The covariance chain after the
bandwidth has one home too: the CLI and the trials reach its steps only
through covariance.error_covariance and covariance.residual_covariance.
Likewise the trials' GCV baseline and minEpan scan run only through
bandwidth.gcv_scan, and the CLI reads every key=value file (config files,
fit-dir reports, scenario lines) through one reader and writes every CSV
artifact through one writer.  No numerical layer catches a ValueError, and
the CLI's exit codes map only its own usage errors, the package's numerical
failures (errors.CorrsmoothError) and I/O errors, so a bad argument or a bug
surfaces as itself.  Each annulus-selection rule is stated once: the dense
annulus weights take their support from the kernel's windows, one locfit
function assembles the local systems for the dense and the prefix-sum paths,
and kernels.check_radii alone compares annulus radii."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "corrsmooth"
LAYERS = ("errors", "kernels", "locfit", "bandwidth", "covariance", "simulate", "cli")


def package_imports(path: Path) -> set:
    """The package modules that the source file at path imports anywhere in it."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level:  # from .module import ..., or from . import module
                parts = node.module.split(".") if node.module else []
            elif node.module and node.module.split(".")[0] == "corrsmooth":
                parts = node.module.split(".")[1:]
            else:
                continue
            found.update(parts[:1] or (alias.name for alias in node.names))
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("corrsmooth.")
            )
    return found & set(LAYERS)


def test_every_module_has_a_layer():
    assert {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"} == set(LAYERS)


def test_modules_import_only_lower_layers():
    upward = [
        f"{name} imports {dep}"
        for rank, name in enumerate(LAYERS)
        for dep in sorted(package_imports(PACKAGE / f"{name}.py"))
        if LAYERS.index(dep) >= rank
    ]
    assert upward == []


CHAIN_STEPS = {
    "calibrate_b", "covariance_curve", "estimate_correlation", "sigma2_rss",
    "variance_fit_bandwidth",
}


def names_in(node) -> list:
    """The names that an AST node uses, reads an attribute by, or imports."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [alias.name for alias in node.names]
    return []


def test_cli_and_trials_do_not_restate_the_covariance_chain():
    named = [
        f"{module} names {name}"
        for module in ("cli", "simulate")
        for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8")))
        for name in names_in(node)
        if name in CHAIN_STEPS
    ]
    assert named == []


SCAN_INTERNALS = {
    "_Workspace", "_scan", "_fit_and_hat_diagonal", "default_grid",
    "ProductEpanechnikovKernel",
}


def test_trials_do_not_restate_the_product_scan():
    named = [
        f"simulate names {name}"
        for node in ast.walk(ast.parse((PACKAGE / "simulate.py").read_text(encoding="utf-8")))
        for name in names_in(node)
        if name in SCAN_INTERNALS
    ]
    assert named == []


def read_text_calls(node) -> list:
    """The .read_text(...) calls inside an AST node."""
    return [
        call for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == "read_text"
    ]


def cli_function(name: str):
    """The AST of cli.py's top-level function name."""
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    (func,) = [
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name
    ]
    return tree, func


def test_cli_reads_text_files_at_one_call_site():
    tree, reader = cli_function("_read_key_values")
    calls = read_text_calls(tree)
    assert len(calls) == 1
    assert calls == read_text_calls(reader)


def csv_writer_uses(node) -> list:
    """The csv.writer references inside an AST node."""
    return [
        use for use in ast.walk(node)
        if isinstance(use, ast.Attribute) and use.attr == "writer"
        and isinstance(use.value, ast.Name) and use.value.id == "csv"
    ]


def test_cli_writes_csv_files_at_one_call_site():
    tree, writer = cli_function("_write_csv")
    uses = csv_writer_uses(tree)
    assert len(uses) == 1
    assert uses == csv_writer_uses(writer)


def test_cli_exit_codes_map_only_usage_numerical_and_io_errors():
    # any other exception is a bug and ends with its traceback
    _, main = cli_function("main")
    handlers = [node for node in ast.walk(main) if isinstance(node, ast.ExceptHandler)]
    assert all(handler.type is not None for handler in handlers)  # no bare except
    caught = sorted(
        name for handler in handlers
        for node in ast.walk(handler.type) for name in names_in(node)
    )
    assert caught == ["CorrsmoothError", "OSError", "UsageError"]


CATCH_VALUE_ERRORS = {"ValueError", "Exception", "BaseException"}


def test_numerical_layers_do_not_catch_value_errors():
    # a ValueError below the CLI is a bad argument or a bug and must surface;
    # only cli.py and locfit.load_csv's row parser map outside input
    caught = [
        f"{module}.py:{handler.lineno}"
        for module in ("kernels", "bandwidth", "covariance", "simulate")
        for handler in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8")))
        if isinstance(handler, ast.ExceptHandler) and (
            handler.type is None  # a bare except
            or CATCH_VALUE_ERRORS.intersection(
                name for node in ast.walk(handler.type) for name in names_in(node)
            )
        )
    ]
    assert caught == []


def module_tree(module: str):
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def functions(tree) -> dict:
    """Every function or method in an AST, by name."""
    return {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def called_names(node) -> set:
    """The names of the plain function calls inside an AST node."""
    return {
        call.func.id for call in ast.walk(node)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
    }


def test_dense_annulus_weights_take_their_support_from_windows():
    (cls,) = [
        node for node in module_tree("kernels").body
        if isinstance(node, ast.ClassDef) and node.name == "RadialAnnulusKernel"
    ]
    weights = functions(cls)["weights"]
    named = {name for node in ast.walk(weights) for name in names_in(node)}
    assert not named & {"c1", "c2"}
    assert "windows" in named


def allocates_square_systems(func) -> bool:
    """Whether a function allocates an array of shape (..., k + 1, k + 1)."""
    return any(
        sum(
            isinstance(dim, ast.BinOp) and isinstance(dim.op, ast.Add)
            and isinstance(dim.right, ast.Constant) and dim.right.value == 1
            for dim in node.elts
        ) >= 2
        for node in ast.walk(func) if isinstance(node, ast.Tuple)
    )


def test_one_locfit_function_assembles_the_local_systems():
    funcs = functions(module_tree("locfit"))
    (assembler,) = [name for name, func in funcs.items() if allocates_square_systems(func)]
    for path in ("_normal_systems", "_window_rss"):
        assert assembler in called_names(funcs[path])


RADII = {"c1", "c2", "c2_offset"}


def mentions_radii(node) -> bool:
    """Whether an AST node names an annulus radius or quotes one as a key."""
    return any(
        RADII.intersection(names_in(sub))
        or (isinstance(sub, ast.Constant) and sub.value in RADII)
        for sub in ast.walk(node)
    )


def test_only_kernels_compares_annulus_radii():
    for module, checker in (("simulate", "parse_method"), ("cli", "_check_annuli")):
        tree = module_tree(module)
        compared = [
            f"{module}.py:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Compare) and mentions_radii(node)
        ]
        assert compared == []
        assert "check_radii" in called_names(functions(tree)[checker])
