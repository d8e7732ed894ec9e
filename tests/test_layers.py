"""The package's modules form one stack of layers: each imports only the
modules below it, at module level and inside functions alike.  A formula
that two layers need lives in the lower one, so no import cycle is ever
worked around with a function-level import."""

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
