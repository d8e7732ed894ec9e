"""Tests of the benchmark harness at smoke sizes.

Run from the repository root:  python -m pytest perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins BLAS and puts src/ on sys.path)
import tracing  # noqa: E402
import workloads  # noqa: E402

import corrsmooth.bandwidth  # noqa: E402
import corrsmooth.errors  # noqa: E402
import corrsmooth.locfit  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

SMOKE = {
    "sim_table": lambda tmp: workloads.SimTable(seed=3, n=150),
    "geo_cli": lambda tmp: workloads.GeoCli(seed=3, workdir=tmp, n=300),
    "cov_sites": lambda tmp: workloads.CovSites(seed=3, workdir=tmp, n=300),
}


@pytest.fixture(params=sorted(SMOKE))
def smoke(request, tmp_path):
    wl = SMOKE[request.param](tmp_path)
    wl.build()
    yield wl
    wl.close()


def test_metric_lists_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == tracing.PER_LAYER
    assert sorted(w["name"] for w in BENCH["workloads"]) == sorted(workloads.WORKLOADS)


def test_smoke_ops_pass_checks_and_tracing_covers_them(smoke):
    loop = run.Loop(smoke, tracing.Tracer())
    loop.run_op(0)
    wall, _ = loop.run_op(1, traced=True)
    assert (loop.ops, loop.failed_ops) == (2, 0)
    assert 0.9 <= loop.tracer.coverage({1: wall})[1] <= 1.0
    # uninstall restores every binding the tracer replaced
    assert corrsmooth.bandwidth.fit_all is corrsmooth.locfit.fit_all
    assert not hasattr(corrsmooth.locfit.fit_all, "__wrapped__")


def _corrupt(wl, out):
    """Break one invariant the workload's check guards."""
    if isinstance(wl, workloads.SimTable):
        return [dataclasses.replace(r, sse_cor_mean=-1.0) if r.method == "Raw" else r for r in out]
    if isinstance(wl, workloads.GeoCli):
        report = wl.out["cov"] / "report.txt"
        text = report.read_text(encoding="utf-8")
        report.write_text(text.replace("h_o=", "h_o=1", 1), encoding="utf-8")
        return out
    cal, curve, rho, sse = out
    rho.rho[1] = 1.5
    return cal, curve, rho, sse


def test_corrupted_output_counts_as_failed_op(smoke):
    real_op = smoke.op
    smoke.op = lambda k: _corrupt(smoke, real_op(k))
    loop = run.Loop(smoke)
    loop.run_op(0)
    assert (loop.ops, loop.failed_ops) == (1, 1)


def test_raising_op_counts_as_failed_op(smoke):
    def failing(k):
        raise corrsmooth.errors.NoFeasibleBandwidthError("injected")

    smoke.op = failing
    loop = run.Loop(smoke)
    loop.run_op(0)
    assert (loop.ops, loop.failed_ops, loop.failed_units) == (1, 1, 1)


def test_main_prints_every_end_to_end_metric_last(capsys):
    assert run.main(["--workload", "sim_table", "--seed", "5", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim_table", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
