"""The benchmark's per-layer metrics and workloads name what the package has.

The tracer wraps only what perfbench/tracing.py's public_functions() finds;
a metric naming any other function reads 0 without failing.  A workload
calling a deleted function fails only when the benchmark runs, so the
workloads' module attributes are checked here too.
"""

import ast
import importlib
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _public_functions() -> dict:
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.public_functions()


def test_per_layer_metrics_name_traced_functions():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bound = {
        name.rsplit(".", 1)[0]
        for name in (m["name"] for m in bench["per_layer"])
        if name.endswith((".calls", ".self_s"))
    }
    assert "kernels.build_annulus_kernel" in bound
    assert sorted(bound - set(_public_functions())) == []


_WORKLOAD_MODULES = ("cli", "covariance", "locfit", "simulate")


def _package_attributes(tree: ast.AST) -> set:
    """(module, attribute) for every `module.attribute` on a package module,
    in the code and in any script string that imports from the package."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in _WORKLOAD_MODULES:
                found.add((node.value.id, node.attr))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if "from corrsmooth import" in node.value:
                found |= _package_attributes(ast.parse(node.value))
    return found


def test_workloads_call_only_what_the_package_has():
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
    used = _package_attributes(tree)
    assert ("covariance", "calibrate_b") in used
    assert ("simulate", "generate") in used
    missing = [
        f"{module}.{attr}"
        for module, attr in sorted(used)
        if not hasattr(importlib.import_module(f"corrsmooth.{module}"), attr)
    ]
    assert missing == []
