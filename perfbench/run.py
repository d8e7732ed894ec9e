"""corrsmooth benchmark: one workload as a single-process closed loop.

Usage, from the root of a repository checkout:

    python3 perfbench/run.py --workload sim_table --seed 1 --seconds 20 --trace 0

One client runs the next op as soon as the previous one ends.  BLAS is
pinned to one thread before numpy is imported.  Set-up builds the inputs
from the seed (several times, reporting the median) and runs one warm-up
op.  The timed phase runs ops until ``--seconds`` have passed and checks
every op's outputs.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs each op untraced and then traced and reports the
per-layer metrics.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
_SRC = ROOT / "src"
if not (_SRC / "corrsmooth" / "__init__.py").is_file():
    sys.exit(f"perfbench: {_SRC} holds no corrsmooth package; run from a repository checkout")
sys.path.insert(0, str(_SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from corrsmooth.errors import CorrsmoothError  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

DEFAULT_SEED = 1
SETUP_REPEATS = 3
HARNESS_THREADS = 1
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

END_TO_END = [
    ("op_p50_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("ok_ratio", "ratio"),
]

_WARNING_KINDS = (
    ("grid_boundary", "sits on the grid boundary"),
    ("calibration_fallback", "falling back to argmin"),
    ("dropped_lags", "had empty windows"),
    ("bound_flag", "exceeds 1.5 x C(0)"),
)


def warning_kind(message: str) -> str:
    for kind, text in _WARNING_KINDS:
        if text in message:
            return kind
    return "other"


def _blas_threads() -> dict:
    """Thread count of every OpenBLAS this process has loaded."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line and line.rstrip().endswith(".so")})
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def _git_commit():
    """HEAD commit read from .git, or None where the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "harness_threads": HARNESS_THREADS,
    }


class Loop:
    """Runs ops, times them, checks their outputs and counts warnings."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.warnings: Counter = Counter()
        self.ops = 0
        self.failed_ops = 0
        self.units = 0
        self.failed_units = 0

    def run_op(self, k: int, traced: bool = False):
        """One op: (wall seconds, output); the output is checked and counted."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if traced:
                self.tracer.install(k)
            start = time.perf_counter()
            try:
                out = self.workload.op(k)
            except (CorrsmoothError, ValueError) as err:
                out = err
            finally:
                wall = time.perf_counter() - start
                if traced:
                    self.tracer.uninstall()
        self.warnings.update(warning_kind(str(w.message)) for w in caught)
        units, failed = (1, 1) if isinstance(out, Exception) else self.workload.check(out)
        self.ops += 1
        self.units += units
        self.failed_units += failed
        self.failed_ops += failed > 0
        return wall, out


def setup(loop: Loop) -> tuple[float, object]:
    """Set-up seconds (import + median build + warm-up op) and the warm-up
    output, or None where the warm-up op failed."""
    builds = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        loop.workload.build()
        builds.append(time.perf_counter() - start)
    warm_wall, warm_out = loop.run_op(0)
    return IMPORT_S + statistics.median(builds) + warm_wall, None if loop.failed_ops else warm_out


def timed_phase(loop: Loop, seconds: float):
    """Closed loop for ``seconds``; traced runs pair each op untraced then traced.

    Returns (untraced walls, {op: traced wall}, elapsed seconds).
    """
    walls, traced_walls = [], {}
    start = time.perf_counter()
    k = 1
    while time.perf_counter() - start < seconds or not walls:
        walls.append(loop.run_op(k)[0])
        if loop.tracer is not None:
            traced_walls[k] = loop.run_op(k, traced=True)[0]
        k += 1
    return walls, traced_walls, time.perf_counter() - start


def _percentile_lines(walls) -> list[str]:
    """Higher percentiles only where at least ten samples lie beyond them."""
    lines = []
    for p in (90, 99):
        if len(walls) * (100 - p) / 100 >= 10:
            value = float(np.percentile(walls, p))
            lines.append(f"op_p{p}_s = {value:.6g} s (samples={len(walls)})")
    return lines


def _close_enough(expected, actual) -> bool:
    if isinstance(expected, dict):
        return isinstance(actual, dict) and expected.keys() == actual.keys() and all(
            _close_enough(expected[key], actual[key]) for key in expected
        )
    return np.isclose(expected, actual, rtol=1e-12, atol=0.0)


def reference_status(workload, warm_out, write: bool) -> str:
    observed = workload.reference(warm_out)
    refs = json.loads(REFERENCE_FILE.read_text(encoding="utf-8")) if REFERENCE_FILE.is_file() else {}
    if write:
        refs[workload.name] = observed
        REFERENCE_FILE.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return "written"
    expected = refs.get(workload.name)
    if expected is None:
        return "missing"
    if _close_enough(expected, observed):
        return "match"
    return f"MISMATCH expected={json.dumps(expected)} observed={json.dumps(observed)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help=f"record op-0 outputs at --seed {DEFAULT_SEED} into reference.json")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.write_reference and args.seed != DEFAULT_SEED:
        parser.error(f"--write-reference needs --seed {DEFAULT_SEED}")

    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.make(args.workload, args.seed, OUT_DIR)
    tracer = tracing.Tracer() if args.trace else None
    loop = Loop(workload, tracer)
    try:
        setup_s, warm_out = setup(loop)
        walls, traced_walls, elapsed = timed_phase(loop, args.seconds)
        if warm_out is None:
            reference = "not checked (warm-up op failed)"
        elif args.seed == DEFAULT_SEED:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                reference = reference_status(workload, warm_out, args.write_reference)
        else:
            reference = f"not checked (seed {args.seed}, reference seed {DEFAULT_SEED})"
    finally:
        workload.close()

    env = environment()
    op_p50 = statistics.median(walls)
    lines = [
        f"workload={workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}",
        "env " + json.dumps(env, sort_keys=True),
        f"checks: {loop.failed_ops} failed of {loop.ops} ops "
        f"({loop.failed_units} failed of {loop.units} {workload.unit}s)",
        "warnings " + " ".join(f"{k}={loop.warnings[k]}" for k, _ in _WARNING_KINDS)
        + f" other={loop.warnings['other']} (over {loop.ops} ops)",
        f"reference: {reference}",
    ]
    if tracer is None:
        values = {
            "op_p50_s": op_p50,
            "ops_per_s": len(walls) / elapsed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": setup_s,
            "ok_ratio": 1.0 - loop.failed_units / loop.units,
        }
        units = dict(END_TO_END)
        samples = {"op_p50_s": len(walls), "ops_per_s": len(walls), "setup_s": SETUP_REPEATS, "ok_ratio": loop.units}
        for name, unit in END_TO_END:
            lines.append(f"{name} = {values[name]:.6g} {unit} (samples={samples.get(name, 1)})")
        lines.extend(_percentile_lines(walls))
        lines.append("op walls s: " + " ".join(f"{w:.3f}" for w in walls))
    else:
        coverage = tracer.coverage(traced_walls)
        traced_p50 = statistics.median(traced_walls.values())
        ops = len(traced_walls)
        values = tracing.layer_metrics(
            tracer, ops, {k: v / loop.ops for k, v in loop.warnings.items()},
            traced_p50 / op_p50, min(coverage.values()),
        )
        units = dict(tracing.PER_LAYER)
        passed = all(0.9 <= c <= 1.1 for c in coverage.values())
        lines.append(
            f"coverage check: {'pass' if passed else 'FAIL'} "
            f"(top-level spans / op wall, min {min(coverage.values()):.4f} over {ops} traced ops)"
        )
        lines.append(f"tracing overhead: traced op_p50 / untraced op_p50 = {traced_p50:.6g} / {op_p50:.6g}")
        for name, unit in tracing.PER_LAYER:
            lines.append(f"{name} = {values[name]:.6g} {unit}")
        spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
        with spans_path.open("w", encoding="utf-8") as f:
            f.write(json.dumps({"workload": workload.name, "seed": args.seed, "env": env}) + "\n")
            for span in tracer.spans:
                f.write(json.dumps(span) + "\n")
        lines.append(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")

    result = {
        "correct": loop.failed_ops == 0,
        "attempted": loop.ops,
        "failed": loop.failed_ops,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
    }
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # SIGTERM unwinds like an exception, so set-up's child interpreter is
    # killed and waited for and the work directories are removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
