"""Command-line surface: fit / elbow / covariance / simulate.

Every command reads an optional key=value config file (flags win), echoes
the resolved configuration into the output directory, and writes CSV
artifacts plus a key=value run report.  Artifacts carry no timestamps, so
identical config + seed reproduces byte-identical outputs.

Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 I/O failure.
The covariance command runs covariance.error_covariance, the chain that the
simulation trials run too.
"""

from __future__ import annotations

import argparse
import csv
import sys
import warnings
from importlib import resources
from pathlib import Path

import numpy as np

from .bandwidth import (
    DEFAULT_GRID_SIZE, DEFAULT_STABILITY_TOL, _validate_grid, elbow_scan, select_h_o,
)
from .covariance import (
    _RHO_MODES,
    DEFAULT_B_CANDIDATES,
    DEFAULT_N_STAR,
    DEFAULT_RHO_MODE,
    DELTA_N_DEFAULT,
    default_b_candidates,
    error_covariance,
)
from .errors import CorrsmoothError
from .kernels import (
    _OBJECTIVES,
    DEFAULT_C2_OFFSET,
    MIN_AMISE,
    MIN_PRODUCT,
    ProductEpanechnikovKernel,
    build_annulus_kernel,
    check_radii,
)
from .locfit import _METRICS, Dataset, fit_all, fit_points, load_csv, rss
from .simulate import CorrelationModel, SimScenario, ZETA_DEFAULT, _method_specs, run_table

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
    return str(value)


def _write_csv(path: Path, columns: dict) -> None:
    """A CSV artifact from an ordered {header: column} dict of equal-length
    columns: the headers, then row k of each column's k-th value, as _fmt
    writes it (NaN as an empty cell).  Every CLI table is written here."""
    with path.open("w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(columns)
        writer.writerows([_fmt(v) for v in row] for row in zip(*columns.values(), strict=True))


def _write_report(path: Path, items: dict) -> None:
    """A key=value file (a run report or config echo), one line per item of
    an ordered dict, each value as _fmt writes it."""
    with path.open("w", encoding="utf-8") as f:
        for key, value in items.items():
            f.write(f"{key}={_fmt(value)}\n")


def _read_key_values(path, keys=None, *, split: bool = False, check=None):
    """The key=value tokens of a text file, skipping blanks and # comments;
    key dashes read as _.  Without split a line is one token (its value may
    hold spaces) and the file is one {key: value} record; with split,
    whitespace separates tokens and each line is a record, returned as
    (line number, record) pairs.  Each value is check(key, value) if check
    is given.  A token without '=', a key outside keys (if given), a key
    repeated within its record or a value that check rejects exits 1 naming
    path:line."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as err:
        raise UsageError(f"cannot read key=value file {path}: {err}") from err
    records, fields = [], {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if split:
            fields = {}
            records.append((lineno, fields))
        for token in line.split() if split else [line]:
            key, eq, value = token.partition("=")
            key = key.strip().replace("-", "_")
            if not eq:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {token!r}")
            if keys is not None and key not in keys:
                raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
            if key in fields:
                raise UsageError(f"{path}:{lineno}: repeated key {key!r}")
            try:
                fields[key] = check(key, value.strip()) if check else value.strip()
            except UsageError as err:
                raise UsageError(f"{path}:{lineno}: {err}") from err
    return records if split else fields


def _checked(key: str, raw: str, kind: type):
    """raw converted to kind; a UsageError unless the value is one of key's
    _CHOICES, inside its _BOUNDS interval (NaN is inside none) and, for a
    key of _LISTS, empty or a valid candidate list (_parse_float_list)."""
    try:
        value = kind(raw)
        if key in _LISTS and value:
            _parse_float_list(value)
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
    every value given either way is converted by _checked to its default's
    type, a config value while the reader still knows its path:line."""
    def check(key, raw):
        return _checked(key, raw, type(defaults[key]))

    cfg = dict(defaults)
    if args.config:
        cfg.update(_read_key_values(args.config, defaults, check=check))
    for key in cfg:
        if getattr(args, key, None) is not None:
            cfg[key] = check(key, getattr(args, key))
    return cfg


def _outdir(cfg: dict) -> Path:
    """The output directory, made if missing, with the resolved configuration
    echoed into its config_echo.txt."""
    if not cfg["output_dir"]:
        raise UsageError("output_dir must not be empty")
    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    _write_report(out / "config_echo.txt", dict(sorted(cfg.items())))
    return out


def _parse_float_list(text: str) -> np.ndarray:
    """text as 'a,b,c' or 'start:stop:step' range syntax (stop included,
    step > 0), checked as every candidate list is (_validate_grid)."""
    text = text.strip()
    if ":" in text:
        start, stop, step = (float(p) for p in text.split(":"))
        if not step > 0.0:
            raise ValueError(f"the step of {text!r} must be positive")
        return _validate_grid(np.arange(start, stop + step / 2.0, step))
    return _validate_grid([float(p) for p in text.split(",") if p.strip()])


def _candidates(cfg: dict, key: str):
    """cfg[key]'s candidates (_checked has checked the text), or None if it is empty."""
    return _parse_float_list(cfg[key]) if cfg[key] else None


def _check_annuli(cfg: dict, c1_values) -> None:
    """A UsageError unless each c1 and cfg's c2_offset give radii that
    kernels.check_radii accepts, as build_annulus_kernel needs; every command
    that builds annulus kernels calls this before making its output directory."""
    for c1 in map(float, c1_values):
        try:
            check_radii(c1, c1 + cfg["c2_offset"])
        except ValueError as err:
            raise UsageError(f"bad value for c2_offset: {err}") from err


def _coordinates(points) -> dict:
    """The columns x1..xD of an (m, D) point array."""
    return {f"x{d + 1}": points[:, d] for d in range(points.shape[1])}


def _annulus_kernel(cfg, dim):
    return build_annulus_kernel(cfg["c1"], cfg["c1"] + cfg["c2_offset"], dim, cfg["objective"])


def _load_dataset(cfg, command: str) -> Dataset:
    if not cfg["input"]:
        raise UsageError(f"{command} requires --input CSV")
    try:
        return load_csv(cfg["input"], metric=cfg["metric"])
    except FileNotFoundError as err:
        raise UsageError(f"input file not found: {cfg['input']}") from err
    except ValueError as err:
        raise UsageError(str(err)) from err


# ---------------------------------------------------------------------------
# subcommands


def cmd_fit(cfg: dict) -> int:
    data = _load_dataset(cfg, "fit")
    grid = _candidates(cfg, "grid")
    _check_annuli(cfg, [cfg["c1"]])
    outdir = _outdir(cfg)
    ko = ProductEpanechnikovKernel(data.dim)
    kz = _annulus_kernel(cfg, data.dim)
    sel = select_h_o(data, kz, grid, cfg["grid_size"])
    h_o = sel.h_o
    fit = fit_all(data, h_o, ko)

    feasible = np.isfinite(sel.rss_trace)
    _write_csv(outdir / "rss_trace.csv", {
        "h": sel.grid, "rss": np.where(feasible, sel.rss_trace, np.nan),
        "feasible": feasible.astype(int),
    })
    _write_csv(outdir / "fitted.csv", {
        **_coordinates(data.points), "y": data.responses, "fitted": fit.fitted,
        "residual": fit.residuals,
    })
    m = cfg["surface_grid"]
    axes = [
        np.linspace(data.points[:, d].min(), data.points[:, d].max(), m)
        for d in range(data.dim)
    ]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, data.dim)
    surface, singular = fit_points(data, mesh, h_o, ko)
    _write_csv(outdir / "surface.csv", {**_coordinates(mesh), "mu_hat": surface})
    _write_report(outdir / "report.txt", {
        "command": "fit", "n": data.n, "dim": data.dim, "metric": data.metric,
        "c1": kz.c1, "c2": kz.c2, "objective": cfg["objective"], "kernel": kz.to_text(),
        "h_z": sel.h_z, "factor_ratio": sel.factor_ratio, "h_o": h_o,
        "rss_min": sel.rss_trace.min(),
        "rss_at_h_o": rss(fit) if fit.singular_count == 0 else np.nan,
        "singular_count": fit.singular_count, "surface_singular_count": int(singular.sum()),
    })
    print(f"h_z={sel.h_z!r} h_o={h_o!r} singular_count={fit.singular_count}")
    return 0


def cmd_elbow(cfg: dict) -> int:
    data = _load_dataset(cfg, "elbow")
    c1_list = _candidates(cfg, "c1_list")
    if c1_list is None or c1_list.size < 3:
        raise UsageError("need >= 3 candidates for stability detection")
    _check_annuli(cfg, c1_list)
    outdir = _outdir(cfg)
    diag = elbow_scan(
        data,
        c1_list,
        objective=cfg["objective"],
        c2_offset=cfg["c2_offset"],
        stability_tol=cfg["stability_tol"],
        grid_size=cfg["grid_size"],
    )
    _write_csv(outdir / "elbow.csv", {
        "c1": diag.c1_list, "cbar": diag.cbar_list, "h_z": diag.h_z_list,
        "feasible": diag.feasible.astype(int),
    })
    _write_report(outdir / "report.txt", {
        "command": "elbow", "chosen_c1": diag.chosen_c1, "chosen_index": diag.chosen_index,
        "n_candidates": int(diag.c1_list.size), "n_feasible": int(diag.feasible.sum()),
    })
    print(f"chosen_c1={diag.chosen_c1!r}")
    return 0


def _fit_dir_h_o(cfg: dict, data: Dataset) -> float:
    """h_o from a fit run, identified by its data: the run's report.txt must
    name command=fit, this metric and a positive, finite h_o, and its
    fitted.csv must hold exactly this input's points and responses.  These
    two files are all it reads; where the input lies does not matter."""
    fit_dir = Path(cfg["fit_dir"])
    try:
        report = _read_key_values(fit_dir / "report.txt")
        if report.get("command") != "fit":
            raise UsageError(f"{fit_dir} holds no fit run (command={report.get('command')!r})")
        if report["metric"] != data.metric:
            raise UsageError(
                f"the fit in {fit_dir} used metric={report['metric']!r}, not {cfg['metric']!r}"
            )
        h_o = float(report["h_o"])
        if not 0.0 < h_o < np.inf:
            raise UsageError(f"the fit in {fit_dir} has h_o={report['h_o']!r}, not in (0, inf)")
        fitted = load_csv(fit_dir / "fitted.csv", metric=data.metric)
        if not (
            np.array_equal(fitted.points, data.points)
            and np.array_equal(fitted.responses, data.responses)
        ):
            raise UsageError(f"{fit_dir / 'fitted.csv'} holds other data than {cfg['input']}")
        return h_o
    except (OSError, KeyError, ValueError) as err:
        raise UsageError(f"cannot recover h_o from {fit_dir}: {err}") from err


def cmd_covariance(cfg: dict) -> int:
    data = _load_dataset(cfg, "covariance")
    grid = _candidates(cfg, "grid")
    b_candidates = _candidates(cfg, "b_candidates")
    h_o = _fit_dir_h_o(cfg, data) if cfg["fit_dir"] else None
    if h_o is None:
        _check_annuli(cfg, [cfg["c1"]])
    outdir = _outdir(cfg)
    if b_candidates is None:
        b_candidates = default_b_candidates(data, size=cfg["b_count"])
    if h_o is None:
        h_o = select_h_o(data, _annulus_kernel(cfg, data.dim), grid, cfg["grid_size"]).h_o
    chain = error_covariance(
        data, h_o, b_candidates=b_candidates, delta_n=cfg["delta_n"], n_star=cfg["n_star"],
        truncation_t=cfg["truncation_t"] if cfg["truncation_t"] >= 0.0 else None,
        rho_mode=cfg["rho_mode"],
    )
    cal, curve, rho = chain.calibration, chain.curve, chain.rho

    _write_csv(outdir / "calibration.csv", {
        "b": cal.b_candidates, "sigma2_tilde": cal.sigma2_tilde,
        "discrepancy": cal.discrepancy,
        "chosen": (cal.b_candidates == cal.chosen_b).astype(int),  # the candidates are unique
    })
    _write_csv(outdir / "covariance.csv", {
        "t": curve.t_grid, "c_hat": curve.c_hat, "rho_hat": rho.rho,
        "flag": curve.flags.astype(int),
    })
    _write_report(outdir / "report.txt", {
        "command": "covariance", "h_o": h_o, "h_t": chain.h_t,
        "sigma2_hat": curve.sigma2_hat, "sigma2_tilde": curve.sigma2_tilde,
        "chosen_b": cal.chosen_b, "delta_n": cal.delta_n,
        "calibration_fallback": int(cal.fallback), "truncation_t": curve.truncation_t,
        "rho_mode": cfg["rho_mode"], "rho_clamped": int(rho.clamped),
        "dropped_grid_points": int(curve.dropped.size),
        "distance_unit": "km" if data.metric == "haversine" else "coordinate",
    })
    print(
        f"b={cal.chosen_b!r} sigma2_hat={curve.sigma2_hat!r} "
        f"sigma2_tilde={curve.sigma2_tilde!r} fallback={int(cal.fallback)}"
    )
    return 0


# scenario-line key -> (CorrelationModel or SimScenario field, type); a key a
# line leaves out takes that class's default, and methods is the one other key
_MODEL_KEYS = {
    "family": ("family", str), "c": ("c", float), "alpha": ("alpha", float),
    "D": ("dim", int), "sigma2": ("sigma2", float),
}
_RUN_KEYS = {"n": ("n", int), "seed": ("seed", int), "trials": ("n_trials", int)}
_SCENARIO_KEYS = {*_MODEL_KEYS, *_RUN_KEYS, "methods"}
_REQUIRED_KEYS = ("family", "c", "D", "n", "seed", "methods")


def _given(fields: dict, keys: dict) -> dict:
    """The scenario line's fields among keys, as their class's field names and types."""
    return {name: kind(fields[key]) for key, (name, kind) in keys.items() if key in fields}


def _parse_scenario_file(path: str):
    scenarios = []
    methods_per_scenario = []
    for lineno, fields in _read_key_values(path, _SCENARIO_KEYS, split=True):
        missing = [key for key in _REQUIRED_KEYS if key not in fields]
        if missing:
            raise UsageError(f"{path}:{lineno}: missing key {missing[0]!r}")
        try:
            model = CorrelationModel(**_given(fields, _MODEL_KEYS))
            scn = SimScenario(
                mu_id="mu2d" if model.dim == 2 else "mu3d", model=model,
                **_given(fields, _RUN_KEYS),
            )
            methods = _method_specs(m for m in fields["methods"].split(";") if m)
        except ValueError as err:
            raise UsageError(f"{path}:{lineno}: {err}") from err
        if not methods:
            raise UsageError(f"{path}:{lineno}: methods names no method")
        scenarios.append(scn)
        methods_per_scenario.append(methods)
    if not scenarios:
        raise UsageError(f"{path}: no scenarios found")
    return scenarios, methods_per_scenario


def _bundled_scenarios() -> str:
    return str(resources.files("corrsmooth").joinpath("data/table1_scenarios.txt"))


def cmd_simulate(cfg: dict) -> int:
    path = cfg["scenarios"] or _bundled_scenarios()
    scenarios, methods_per = _parse_scenario_file(path)
    outdir = _outdir(cfg)
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
                    threads=cfg["threads"],
                    progress=progress,
                )
            )

    def column(attr):
        return [getattr(r, attr) for r in rows]

    labels = {"model": column("family"), "c": column("c"), "method": column("method")}
    for stat in ("mse_prac", "mse_sigma2", "sse_cor"):
        _write_csv(outdir / f"table_{stat}.csv", {
            **labels, "mean": column(f"{stat}_mean"), "sd": column(f"{stat}_sd"),
        })
    _write_csv(outdir / "failures.csv", {
        **labels, "failures": column("failures"), "n_trials": column("n_trials"),
    })
    _write_report(outdir / "report.txt", {
        "command": "simulate", "scenario_file": Path(path).name,
        "n_scenarios": len(scenarios), "rows": len(rows),
        "total_failures": sum(r.failures for r in rows),
    })
    print(f"wrote {len(rows)} result rows to {outdir}")
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse errors through the usage exit code
        raise UsageError(message)


_FIT_DEFAULTS = dict(
    input="", metric="euclidean", c1=1.0, c2_offset=DEFAULT_C2_OFFSET,
    objective=MIN_AMISE, grid="", grid_size=DEFAULT_GRID_SIZE, surface_grid=25,
    output_dir="corrsmooth_out/fit",
)
_ELBOW_DEFAULTS = dict(
    input="", metric="euclidean", c1_list="0.25:6.0:0.25", c2_offset=DEFAULT_C2_OFFSET,
    objective=MIN_AMISE, stability_tol=DEFAULT_STABILITY_TOL, grid_size=DEFAULT_GRID_SIZE,
    output_dir="corrsmooth_out/elbow",
)
_COV_DEFAULTS = dict(
    input="", metric="euclidean", fit_dir="", c1=1.0, c2_offset=DEFAULT_C2_OFFSET,
    objective=MIN_AMISE, grid="", grid_size=DEFAULT_GRID_SIZE, b_candidates="",
    b_count=DEFAULT_B_CANDIDATES, delta_n=DELTA_N_DEFAULT, n_star=DEFAULT_N_STAR,
    truncation_t=-1.0, rho_mode=DEFAULT_RHO_MODE, output_dir="corrsmooth_out/covariance",
)
_SIM_DEFAULTS = dict(
    scenarios="", trials=0, objective=MIN_PRODUCT, n_star=DEFAULT_N_STAR,
    delta_n=DELTA_N_DEFAULT, zeta=ZETA_DEFAULT, threads=1,
    output_dir="corrsmooth_out/simulate",
)

_COMMANDS = (
    ("fit", cmd_fit, _FIT_DEFAULTS, "select bandwidth and fit the surface"),
    ("elbow", cmd_elbow, _ELBOW_DEFAULTS, "scan c1 candidates for the elbow"),
    ("covariance", cmd_covariance, _COV_DEFAULTS, "estimate the error covariance curve"),
    ("simulate", cmd_simulate, _SIM_DEFAULTS, "run the seeded simulation tables"),
)
_CHOICES = {
    "metric": _METRICS,
    "objective": _OBJECTIVES,
    "rho_mode": _RHO_MODES,
}
# the candidate lists, kept as text in cfg (and config_echo.txt)
_LISTS = ("grid", "b_candidates", "c1_list")
# (low, whether low is excluded, high, whether high is excluded)
_BOUNDS = {
    "threads": (1, False, np.inf, False), "trials": (0, False, np.inf, False),
    "grid_size": (1, False, np.inf, False), "surface_grid": (1, False, np.inf, False),
    "b_count": (1, False, np.inf, False), "n_star": (2, False, np.inf, False),
    "delta_n": (0.0, False, np.inf, False), "c1": (0.0, True, np.inf, True),
    "c2_offset": (0.0, True, np.inf, True), "zeta": (0.0, True, 1.0, True),
    "stability_tol": (0.0, True, np.inf, False), "truncation_t": (-np.inf, True, np.inf, True),
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
    flags default to None so that _resolve sees which were given, and stay
    text, so that _checked converts and checks flags and config values alike
    (a key's _CHOICES show in --help as its metavar only)."""
    parser = _Parser(prog="corrsmooth", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, func, defaults, help_text in _COMMANDS:
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("--config", default=None, help="key=value config file; flags win")
        sub.add_argument("--output-dir", dest="output_dir", default=None)
        for key in defaults:
            if key == "output_dir":
                continue
            sub.add_argument(
                "--" + key.replace("_", "-"), dest=key, default=None, help=_HELP.get(key),
                metavar="{%s}" % ",".join(_CHOICES[key]) if key in _CHOICES else None,
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
    except CorrsmoothError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"i/o failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
