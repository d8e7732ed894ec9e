"""Command-line surface: fit / elbow / covariance / simulate / bench.

Every command reads an optional key=value config file (flags win), echoes
the resolved configuration into the output directory, and writes CSV
artifacts plus a key=value run report.  Artifacts carry no timestamps, so
identical config + seed reproduces byte-identical outputs.

Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 I/O failure.
The thread count for the simulation harness can be overridden with the
CORRSMOOTH_THREADS environment variable.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
import warnings
from importlib import resources
from pathlib import Path

import numpy as np

from .bandwidth import _validate_grid, elbow_scan, select_h_o, variance_fit_bandwidth
from .covariance import (
    _RHO_MODES,
    DEFAULT_N_STAR,
    DELTA_N_DEFAULT,
    calibrate_b,
    covariance_curve,
    default_b_candidates,
    estimate_correlation,
    sigma2_rss,
)
from .errors import CorrsmoothError
from .kernels import (
    _OBJECTIVES,
    DEFAULT_C2_OFFSET,
    MIN_AMISE,
    MIN_PRODUCT,
    ProductEpanechnikovKernel,
    build_annulus_kernel,
)
from .locfit import _METRICS, Dataset, fit_all, fit_points, load_csv, rss
from .simulate import (
    CorrelationModel,
    SimScenario,
    ZETA_DEFAULT,
    generate,
    parse_method,
    run_table,
    run_trial,
)

__all__ = ["main"]


class UsageError(Exception):
    """Bad arguments, config, or input schema; maps to exit code 1."""


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if np.isnan(value):
            return ""
        return repr(value)
    if isinstance(value, np.integer):
        return str(int(value))
    if value is None:
        return ""
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_report(path: Path, items) -> None:
    with path.open("w", encoding="utf-8") as f:
        for key, value in items:
            f.write(f"{key}={_fmt(value)}\n")


def _load_config_file(path: str) -> dict:
    values = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as err:
        raise UsageError(f"cannot read config file {path}: {err}") from err
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _checked(key: str, raw, kind: type):
    """raw converted to kind; a UsageError unless the value is one of key's
    _CHOICES and inside its _BOUNDS interval (NaN is inside none)."""
    try:
        value = kind(raw)
    except ValueError as err:
        raise UsageError(f"bad value for {key}: {err}") from err
    if key in _CHOICES and value not in _CHOICES[key]:
        raise UsageError(f"bad value for {key}: {raw!r} is not one of {_CHOICES[key]}")
    if key in _BOUNDS:
        low, low_open, high, high_open = _BOUNDS[key]
        above = value > low if low_open else value >= low
        below = value < high if high_open else value <= high
        if not (above and below):
            interval = f"{'(' if low_open else '['}{low}, {high}{')' if high_open else ']'}"
            raise UsageError(f"bad value for {key}: {raw!r} is not in {interval}")
    return value


def _resolve(args, defaults: dict) -> dict:
    """Command defaults, overridden by the config file, overridden by flags;
    every value given either way goes through _checked."""
    cfg = dict(defaults)
    if args.config:
        for key, raw in _load_config_file(args.config).items():
            if key not in cfg:
                raise UsageError(f"unknown config key {key!r}")
            cfg[key] = _checked(key, raw, type(defaults[key]))
    for key in cfg:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            cfg[key] = _checked(key, flag_value, type(defaults[key]))
    return cfg


def _echo_config(outdir: Path, cfg: dict) -> None:
    _write_report(outdir / "config_echo.txt", sorted(cfg.items()))


def _outdir(cfg: dict) -> Path:
    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_float_list(cfg: dict, key: str) -> np.ndarray:
    """cfg[key] as 'a,b,c' or 'start:stop:step' range syntax (stop included,
    step > 0); the list must be nonempty, finite and strictly increasing."""
    text = cfg[key].strip()
    try:
        if ":" in text:
            start, stop, step = (float(p) for p in text.split(":"))
            if not step > 0.0:
                raise ValueError("the step must be positive")
            values = np.arange(start, stop + step / 2.0, step)
        else:
            values = np.asarray([float(p) for p in text.split(",") if p.strip()])
        if values.size == 0 or not np.all(np.isfinite(values)) or np.any(np.diff(values) <= 0.0):
            raise ValueError("not a nonempty, finite, strictly increasing list")
    except ValueError as err:
        raise UsageError(f"bad value for {key}: {text!r}: {err}") from err
    return values


def _candidates(cfg: dict, key: str):
    """cfg[key] checked as select_h_z and calibrate_b check candidates, or None."""
    if not cfg[key]:
        return None
    try:
        return _validate_grid(_parse_float_list(cfg, key))
    except ValueError as err:
        raise UsageError(f"bad value for {key}: {err}") from err


def _annulus_kernel(cfg, dim):
    return build_annulus_kernel(cfg["c1"], cfg["c1"] + cfg["c2_offset"], dim, cfg["objective"])


def _load_dataset(cfg) -> Dataset:
    try:
        return load_csv(cfg["input"], metric=cfg["metric"])
    except FileNotFoundError as err:
        raise UsageError(f"input file not found: {cfg['input']}") from err
    except ValueError as err:
        raise UsageError(str(err)) from err


# ---------------------------------------------------------------------------
# subcommands


def cmd_fit(cfg: dict) -> int:
    if not cfg["input"]:
        raise UsageError("fit requires --input CSV")
    data = _load_dataset(cfg)
    grid = _candidates(cfg, "grid")
    outdir = _outdir(cfg)
    _echo_config(outdir, cfg)
    ko = ProductEpanechnikovKernel(data.dim)
    kz = _annulus_kernel(cfg, data.dim)
    sel = select_h_o(data, kz, ko, grid, cfg["grid_size"])
    h_o = sel.h_o
    fit = fit_all(data, h_o, ko)

    _write_csv(
        outdir / "rss_trace.csv",
        ["h", "rss", "feasible"],
        [
            (h, r if np.isfinite(r) else np.nan, int(np.isfinite(r)))
            for h, r in zip(sel.grid, sel.rss_trace)
        ],
    )
    coord_names = [f"x{d + 1}" for d in range(data.dim)]
    _write_csv(
        outdir / "fitted.csv",
        coord_names + ["y", "fitted", "residual"],
        np.column_stack(
            [data.points, data.responses, fit.fitted, fit.residuals]
        ).tolist(),
    )
    m = cfg["surface_grid"]
    axes = [
        np.linspace(data.points[:, d].min(), data.points[:, d].max(), m)
        for d in range(data.dim)
    ]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, data.dim)
    surface, singular = fit_points(data, mesh, h_o, ko)
    _write_csv(
        outdir / "surface.csv",
        coord_names + ["mu_hat"],
        np.column_stack([mesh, surface]).tolist(),
    )
    report = [
        ("command", "fit"),
        ("n", data.n),
        ("dim", data.dim),
        ("metric", data.metric),
        ("c1", kz.c1),
        ("c2", kz.c2),
        ("objective", cfg["objective"]),
        ("kernel", kz.to_text()),
        ("h_z", sel.h_z),
        ("factor_ratio", sel.factor_ratio),
        ("h_o", h_o),
        ("rss_min", float(np.nanmin(np.where(np.isfinite(sel.rss_trace), sel.rss_trace, np.nan)))),
        ("rss_at_h_o", rss(fit) if fit.singular_count == 0 else np.nan),
        ("singular_count", fit.singular_count),
        ("surface_singular_count", int(singular.sum())),
    ]
    _write_report(outdir / "report.txt", report)
    print(f"h_z={sel.h_z!r} h_o={h_o!r} singular_count={fit.singular_count}")
    return 0


def cmd_elbow(cfg: dict) -> int:
    if not cfg["input"]:
        raise UsageError("elbow requires --input CSV")
    data = _load_dataset(cfg)
    c1_list = _parse_float_list(cfg, "c1_list")
    if c1_list.size < 3:
        raise UsageError("need >= 3 candidates for stability detection")
    outdir = _outdir(cfg)
    _echo_config(outdir, cfg)
    diag = elbow_scan(
        data,
        c1_list,
        objective=cfg["objective"],
        c2_offset=cfg["c2_offset"],
        stability_tol=cfg["stability_tol"],
        grid_size=cfg["grid_size"],
    )
    _write_csv(
        outdir / "elbow.csv",
        ["c1", "cbar", "h_z", "feasible"],
        [
            (c1, cb, hz, int(ok))
            for c1, cb, hz, ok in zip(
                diag.c1_list, diag.cbar_list, diag.h_z_list, diag.feasible
            )
        ],
    )
    _write_report(
        outdir / "report.txt",
        [
            ("command", "elbow"),
            ("chosen_c1", diag.chosen_c1),
            ("chosen_index", diag.chosen_index),
            ("n_candidates", int(diag.c1_list.size)),
            ("n_feasible", int(diag.feasible.sum())),
        ],
    )
    print(f"chosen_c1={diag.chosen_c1!r}")
    return 0


def _read_key_values(path: Path) -> dict:
    lines = path.read_text(encoding="utf-8").splitlines()
    return dict(line.split("=", 1) for line in lines if "=" in line)


def _fit_dir_h_o(cfg: dict, data: Dataset) -> float:
    """h_o from a fit run's report, once that run is known to be a fit of
    the same input file with the same metric."""
    fit_dir = Path(cfg["fit_dir"])
    try:
        report = _read_key_values(fit_dir / "report.txt")
        echo = _read_key_values(fit_dir / "config_echo.txt")
        if report.get("command") != "fit":
            raise UsageError(f"{fit_dir} holds no fit run (command={report.get('command')!r})")
        for key, ours, theirs in (
            ("input", Path(cfg["input"]).resolve(), Path(echo["input"]).resolve()),
            ("metric", data.metric, echo["metric"].lower()),
        ):
            if ours != theirs:
                raise UsageError(
                    f"the fit in {fit_dir} used {key}={echo[key]!r}, not {cfg[key]!r}"
                )
        return float(report["h_o"])
    except (OSError, KeyError, ValueError) as err:
        raise UsageError(f"cannot recover h_o from {fit_dir}: {err}") from err


def cmd_covariance(cfg: dict) -> int:
    if not cfg["input"]:
        raise UsageError("covariance requires --input CSV")
    data = _load_dataset(cfg)
    grid = _candidates(cfg, "grid")
    b_candidates = _candidates(cfg, "b_candidates")
    outdir = _outdir(cfg)
    _echo_config(outdir, cfg)
    ko = ProductEpanechnikovKernel(data.dim)
    if b_candidates is None:
        b_candidates = default_b_candidates(data, size=cfg["b_count"])
    if cfg["fit_dir"]:
        h_o = _fit_dir_h_o(cfg, data)
    else:
        h_o = select_h_o(data, _annulus_kernel(cfg, data.dim), ko, grid, cfg["grid_size"]).h_o

    fit = fit_all(data, h_o, ko)
    h_t = variance_fit_bandwidth(h_o, data.n, data.dim)
    sigma2_hat = sigma2_rss(data, h_t, ko)
    cal = calibrate_b(data, fit, sigma2_hat, b_candidates, delta_n=cfg["delta_n"])
    truncation = cfg["truncation_t"] if cfg["truncation_t"] >= 0.0 else None
    curve = covariance_curve(
        data, fit, cal.chosen_b, n_star=cfg["n_star"],
        truncation_t=truncation, sigma2_hat=sigma2_hat,
    )
    rho = estimate_correlation(curve, cfg["rho_mode"])

    chosen_idx = int(np.argmin(np.abs(cal.b_candidates - cal.chosen_b)))
    _write_csv(
        outdir / "calibration.csv",
        ["b", "sigma2_tilde", "discrepancy", "chosen"],
        [
            (b, t, d, int(i == chosen_idx))
            for i, (b, t, d) in enumerate(
                zip(cal.b_candidates, cal.sigma2_tilde, cal.discrepancy)
            )
        ],
    )
    _write_csv(
        outdir / "covariance.csv",
        ["t", "c_hat", "rho_hat", "flag"],
        [
            (t, c, r, int(flag))
            for t, c, r, flag in zip(curve.t_grid, curve.c_hat, rho.rho, curve.flags)
        ],
    )
    _write_report(
        outdir / "report.txt",
        [
            ("command", "covariance"),
            ("h_o", h_o),
            ("h_t", h_t),
            ("sigma2_hat", sigma2_hat),
            ("sigma2_tilde", curve.sigma2_tilde),
            ("chosen_b", cal.chosen_b),
            ("delta_n", cal.delta_n),
            ("calibration_fallback", int(cal.fallback)),
            ("truncation_t", curve.truncation_t),
            ("rho_mode", cfg["rho_mode"]),
            ("rho_clamped", int(rho.clamped)),
            ("dropped_grid_points", int(curve.dropped.size)),
            ("distance_unit", "km" if data.metric == "haversine" else "coordinate"),
        ],
    )
    print(
        f"b={cal.chosen_b!r} sigma2_hat={sigma2_hat!r} "
        f"sigma2_tilde={curve.sigma2_tilde!r} fallback={int(cal.fallback)}"
    )
    return 0


def _parse_scenario_file(path: str):
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as err:
        raise UsageError(f"cannot read scenario file {path}: {err}") from err
    scenarios = []
    methods_per_scenario = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = {}
        for token in line.split():
            if "=" not in token:
                raise UsageError(f"{path}:{lineno}: expected key=value tokens")
            key, value = token.split("=", 1)
            fields[key] = value
        try:
            model = CorrelationModel(
                family=fields["family"],
                c=float(fields["c"]),
                alpha=float(fields.get("alpha", "1.0")),
                dim=int(fields["D"]),
                sigma2=float(fields.get("sigma2", "0.1")),
            )
            scn = SimScenario(
                mu_id="mu2d" if model.dim == 2 else "mu3d",
                n=int(fields["n"]),
                model=model,
                seed=int(fields["seed"]),
                n_trials=int(fields.get("trials", "1")),
            )
            methods = [parse_method(m) for m in fields["methods"].split(";") if m]
        except (KeyError, ValueError) as err:
            raise UsageError(f"{path}:{lineno}: {err}") from err
        scenarios.append(scn)
        methods_per_scenario.append(methods)
    if not scenarios:
        raise UsageError(f"{path}: no scenarios found")
    return scenarios, methods_per_scenario


def _bundled_scenarios() -> str:
    return str(resources.files("corrsmooth").joinpath("data/table1_scenarios.txt"))


def cmd_simulate(cfg: dict) -> int:
    threads = _checked("threads", os.environ.get("CORRSMOOTH_THREADS", cfg["threads"]), int)
    path = cfg["scenarios"] or _bundled_scenarios()
    scenarios, methods_per = _parse_scenario_file(path)
    outdir = _outdir(cfg)
    _echo_config(outdir, cfg)
    rows = []

    def progress(scn, trial):
        print(
            f"{scn.model.family} c={scn.model.c:g}: trial {trial + 1}/{scn.n_trials}",
            flush=True,
        )

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for scn, methods in zip(scenarios, methods_per):
            rows.extend(
                run_table(
                    [scn],
                    methods,
                    n_trials=cfg["trials"] if cfg["trials"] > 0 else None,
                    objective=cfg["objective"],
                    n_star=cfg["n_star"],
                    delta_n=cfg["delta_n"],
                    zeta=cfg["zeta"],
                    threads=threads,
                    progress=progress,
                )
            )
    tables = {
        "table_mse_prac.csv": ("mse_prac_mean", "mse_prac_sd"),
        "table_mse_sigma2.csv": ("mse_sigma2_mean", "mse_sigma2_sd"),
        "table_sse_cor.csv": ("sse_cor_mean", "sse_cor_sd"),
    }
    for filename, (mean_key, sd_key) in tables.items():
        _write_csv(
            outdir / filename,
            ["model", "c", "method", "mean", "sd"],
            [
                (r.family, r.c, r.method, getattr(r, mean_key), getattr(r, sd_key))
                for r in rows
            ],
        )
    _write_csv(
        outdir / "failures.csv",
        ["model", "c", "method", "failures", "n_trials"],
        [(r.family, r.c, r.method, r.failures, r.n_trials) for r in rows],
    )
    _write_report(
        outdir / "report.txt",
        [
            ("command", "simulate"),
            ("scenario_file", Path(path).name),
            ("n_scenarios", len(scenarios)),
            ("rows", len(rows)),
            ("total_failures", sum(r.failures for r in rows)),
        ],
    )
    print(f"wrote {len(rows)} result rows to {outdir}")
    return 0


def cmd_bench(cfg: dict) -> int:
    """Times one simulation trial on a small synthetic scenario: the data
    draw, then each row of run_trial (ZA(1,1.5), GCV, Raw, minEpan).  GCV
    and minEpan share the draw's product-kernel scan, which GCV runs first,
    so GCV_s includes it and minEpan_s is about 0.  Per-layer times come
    from perfbench/run.py --trace 1."""
    outdir = _outdir(cfg)
    _echo_config(outdir, cfg)
    model = CorrelationModel("spherical", c=2.0, alpha=1.0, dim=2, sigma2=0.1)
    scn = SimScenario("mu2d", cfg["n"], model, seed=cfg["seed"], n_trials=1)
    start = time.perf_counter()
    sim = generate(scn, 0)
    generate_s = time.perf_counter() - start
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        outcomes = run_trial(sim, [parse_method("za(1,1.5)"), parse_method("gcv")])
    failed = [label for label, outcome in outcomes.items() if outcome is None]
    if failed:
        raise CorrsmoothError(f"bench rows failed: {', '.join(failed)}")
    _write_report(
        outdir / "bench.txt",
        [("command", "bench"), ("n", sim.n), ("h_o", outcomes["ZA(1,1.5)"].h), ("status", "ok")],
    )
    print(f"generate_s={generate_s:.3f}")
    for label, outcome in outcomes.items():
        print(f"{label}_s={outcome.seconds:.3f}")
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse errors through the usage exit code
        raise UsageError(message)


_FIT_DEFAULTS = dict(
    input="", metric="euclidean", c1=1.0, c2_offset=DEFAULT_C2_OFFSET,
    objective=MIN_AMISE, grid="", grid_size=30, surface_grid=25,
    output_dir="corrsmooth_out/fit",
)
_ELBOW_DEFAULTS = dict(
    input="", metric="euclidean", c1_list="0.25:6.0:0.25", c2_offset=DEFAULT_C2_OFFSET,
    objective=MIN_AMISE, stability_tol=0.10, grid_size=30,
    output_dir="corrsmooth_out/elbow",
)
_COV_DEFAULTS = dict(
    input="", metric="euclidean", fit_dir="", c1=1.0, c2_offset=DEFAULT_C2_OFFSET,
    objective=MIN_AMISE, grid="", grid_size=30, b_candidates="", b_count=25,
    delta_n=DELTA_N_DEFAULT, n_star=DEFAULT_N_STAR, truncation_t=-1.0, rho_mode="by_chat0",
    output_dir="corrsmooth_out/covariance",
)
_SIM_DEFAULTS = dict(
    scenarios="", trials=0, objective=MIN_PRODUCT, n_star=DEFAULT_N_STAR,
    delta_n=DELTA_N_DEFAULT, zeta=ZETA_DEFAULT, threads=1,
    output_dir="corrsmooth_out/simulate",
)
_BENCH_DEFAULTS = dict(n=300, seed=0, output_dir="corrsmooth_out/bench")

_COMMANDS = (
    ("fit", cmd_fit, _FIT_DEFAULTS, "select bandwidth and fit the surface"),
    ("elbow", cmd_elbow, _ELBOW_DEFAULTS, "scan c1 candidates for the elbow"),
    ("covariance", cmd_covariance, _COV_DEFAULTS, "estimate the error covariance curve"),
    ("simulate", cmd_simulate, _SIM_DEFAULTS, "run the seeded simulation tables"),
    ("bench", cmd_bench, _BENCH_DEFAULTS, "time the pipeline on a synthetic run"),
)
_CHOICES = {
    "metric": _METRICS,
    "objective": _OBJECTIVES,
    "rho_mode": _RHO_MODES,
}
# (low, whether low is excluded, high, whether high is excluded)
_BOUNDS = {
    "threads": (1, False, np.inf, False), "trials": (0, False, np.inf, False),
    "grid_size": (1, False, np.inf, False), "surface_grid": (1, False, np.inf, False),
    "b_count": (1, False, np.inf, False), "n_star": (2, False, np.inf, False),
    "delta_n": (0.0, False, np.inf, False), "c1": (0.0, True, np.inf, False),
    "c2_offset": (0.0, True, np.inf, False), "n": (4, False, np.inf, False),
    "zeta": (0.0, True, 1.0, True), "stability_tol": (0.0, True, np.inf, False),
    "truncation_t": (-np.inf, True, np.inf, True),
}
_HELP = {
    "fit_dir": "reuse h_o from a previous fit run's report",
    "grid": "explicit grid 'a,b,c' or 'lo:hi:step'",
    "truncation_t": "fixed truncation lag; negative means pilot rule",
    "scenarios": "scenario file; bundled if omitted",
    "trials": "override per-scenario trials",
}


def _build_parser() -> _Parser:
    """One subparser per command and one flag per key of its defaults table;
    flags default to None so that _resolve sees which were given."""
    parser = _Parser(prog="corrsmooth", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, func, defaults, help_text in _COMMANDS:
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("--config", default=None, help="key=value config file; flags win")
        sub.add_argument("--output-dir", dest="output_dir", default=None)
        for key, default in defaults.items():
            if key == "output_dir":
                continue
            sub.add_argument(
                "--" + key.replace("_", "-"), dest=key, type=type(default), default=None,
                choices=_CHOICES.get(key), help=_HELP.get(key),
            )
        sub.set_defaults(func=func, defaults=defaults)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _resolve(args, args.defaults)
        return args.func(cfg)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (CorrsmoothError, ValueError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"i/o failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
