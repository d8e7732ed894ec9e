"""The benchmark's per-layer call counts and self times name public functions.

The tracer wraps only what perfbench/tracing.py's public_functions() finds;
a metric naming any other function reads 0 without failing.
"""

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
