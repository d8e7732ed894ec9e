"""The benchmark's workloads: inputs derived from the seed, one op, output checks.

Every workload has the same shape:

- ``build()`` derives the inputs from the workload seed.  It is run several
  times during set-up, so it must be repeatable.
- ``op(k)`` is one closed-loop operation on op index ``k``; op 0 is the
  warm-up op run during set-up.
- ``check(out)`` returns ``(units, failed_units)`` for one op's output.
- ``reference(out)`` returns the op-0 outputs compared against
  ``reference.json`` at the default seed.

Ops call the package through module attributes (``covariance.calibrate_b``)
so that a traced op sees the wrapped functions.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
from scipy.spatial.distance import pdist, squareform

from corrsmooth import cli, covariance, locfit, simulate

# Rows whose metrics run_table leaves NaN by design: minEpan has only
# mse_prac, Raw has no fitted surface.
_ROW_FIELDS = {
    "minEpan": ("mse_prac_mean",),
    "Raw": ("mse_sigma2_mean", "sse_cor_mean"),
}
_METHOD_FIELDS = ("mse_prac_mean", "mse_sigma2_mean", "sse_cor_mean")
# The minEpan scan refits at every chosen h, so it bounds each method up to
# rounding; a relative slack keeps a last-bit change from reading as a failure.
_SCAN_SLACK = 1e-9


def child_seed(seed: int, *keys: int) -> int:
    """A 32-bit seed derived from the workload seed and op keys."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def correlation_ok(rho: np.ndarray) -> bool:
    """rho_hat(0) = 1 and |rho_hat| <= 1 everywhere (first entry is lag 0)."""
    rho = np.asarray(rho, dtype=float)
    return rho.size > 0 and rho[0] == 1.0 and bool(np.all(np.abs(rho) <= 1.0))


def calibration_ok(discrepancy: float, delta_n: float, fallback: bool) -> bool:
    """The chosen b's discrepancy is within delta_n unless calibration fell back."""
    return fallback or discrepancy <= delta_n


class SimTable:
    """One op = one seeded trial of one bundled scenario through run_table."""

    name = "sim_table"
    unit = "method row"

    def __init__(self, seed: int, n: int | None = None):
        self.seed = seed
        self.n = n  # None keeps each scenario's own n (500)
        self.scenarios: list = []

    def build(self) -> None:
        path = Path(simulate.__file__).parent / "data" / "table1_scenarios.txt"
        scenarios = []
        for line in path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            f = dict(token.split("=", 1) for token in line.split())
            model = simulate.CorrelationModel(
                family=f["family"], c=float(f["c"]), alpha=float(f["alpha"]),
                dim=int(f["D"]), sigma2=float(f["sigma2"]),
            )
            methods = [simulate.parse_method(m) for m in f["methods"].split(";") if m]
            scenarios.append((model, self.n or int(f["n"]), methods))
        self.scenarios = scenarios

    def _scenario(self, k: int):
        model, n, methods = self.scenarios[k % len(self.scenarios)]
        scn = simulate.SimScenario(
            mu_id="mu2d" if model.dim == 2 else "mu3d", n=n, model=model,
            seed=child_seed(self.seed, k), n_trials=1,
        )
        return scn, methods

    def op(self, k: int):
        scn, methods = self._scenario(k)
        return simulate.run_table([scn], methods, threads=1)

    def check(self, rows) -> tuple[int, int]:
        scan = next(r.mse_prac_mean for r in rows if r.method == "minEpan")
        failed = 0
        for r in rows:
            fields = _ROW_FIELDS.get(r.method, _METHOD_FIELDS)
            ok = r.failures == 0 and all(math.isfinite(getattr(r, f)) for f in fields)
            if r.method != "minEpan":
                ok = ok and r.sse_cor_mean >= 0.0
            if r.method not in _ROW_FIELDS and math.isfinite(scan):
                ok = ok and scan <= r.mse_prac_mean * (1.0 + _SCAN_SLACK)
            failed += not ok
        return len(rows), failed

    def reference(self, rows) -> dict:
        """Chosen h and sse_cor per method for op 0, recomputed per method
        because run_table reports only aggregates."""
        scn, methods = self._scenario(0)
        sim = simulate.generate(scn, 0)
        out = {}
        for spec in methods:
            trial = simulate.run_method_trial(sim, spec)
            out[spec.label] = {"h": trial.h, "sse_cor": trial.sse_cor}
        out["Raw"] = {"sse_cor": simulate.run_raw_trial(sim).sse_cor}
        return out

    def close(self) -> None:
        pass


def _haversine_matrix_km(lat, lon) -> np.ndarray:
    p = np.radians(lat)
    lam = np.radians(lon)
    a = (
        np.sin((p[:, None] - p[None, :]) / 2.0) ** 2
        + np.cos(p[:, None]) * np.cos(p[None, :]) * np.sin((lam[:, None] - lam[None, :]) / 2.0) ** 2
    )
    return 2.0 * locfit.EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


class GeoCli:
    """One op = ``elbow``, ``fit`` and ``covariance --fit-dir`` through cli.main
    on a lat/lon CSV written at set-up."""

    name = "geo_cli"
    unit = "op"
    RANGE_KM = 100.0  # exponential error correlation range, valid on the sphere
    SIGMA2 = 0.25
    LAYOUT_SEED = 0

    def __init__(self, seed: int, workdir: Path, n: int = 800):
        self.seed = seed
        self.n = n
        self.dir = Path(tempfile.mkdtemp(prefix="geo_cli-", dir=workdir))
        self.csv = self.dir / "input.csv"
        common = ["--input", str(self.csv), "--metric", "haversine"]
        self.out = {c: self.dir / c for c in ("elbow", "fit", "cov")}
        self.commands = [
            ["elbow", *common, "--c1-list", "0.5:3.0:0.25", "--output-dir", str(self.out["elbow"])],
            ["fit", *common, "--c1", "1.0", "--output-dir", str(self.out["fit"])],
            ["covariance", *common, "--fit-dir", str(self.out["fit"]),
             "--output-dir", str(self.out["cov"])],
        ]

    def build(self) -> None:
        """Fixed county-style lat/lon sites, smooth trend, exponentially
        correlated errors drawn from the seed.

        The sites do not follow the seed, as for an analyst's fixed set of
        areal units.  On about 1 in 24 random layouts the elbow scan finds
        no elbow over this c1 list (NoElbowError, exit code 2), which is the
        heuristic's documented outcome rather than a fault; on layout 0 it
        found one for each of 44 error seeds tried.
        """
        sites = np.random.default_rng(child_seed(self.LAYOUT_SEED, 0))
        lat = 30.0 + 7.0 * sites.random(self.n)
        lon = -92.0 + 14.0 * sites.random(self.n)
        rng = np.random.default_rng(child_seed(self.seed, 1))
        trend = 9.0 + 1.5 * np.sin(np.pi * (lon + 92.0) / 14.0) + 2.0 * ((lat - 30.0) / 7.0) ** 2
        cov = self.SIGMA2 * np.exp(-_haversine_matrix_km(lat, lon) / self.RANGE_KM)
        cov.flat[:: self.n + 1] += 1e-10 * self.SIGMA2
        y = trend + np.linalg.cholesky(cov) @ rng.standard_normal(self.n)
        with self.csv.open("w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(["x1", "x2", "y"])
            writer.writerows(zip(lat.tolist(), lon.tolist(), y.tolist()))

    def op(self, k: int):
        with contextlib.redirect_stdout(io.StringIO()):
            return [cli.main(argv) for argv in self.commands]

    @staticmethod
    def _report(path: Path) -> dict:
        return dict(line.split("=", 1) for line in path.read_text(encoding="utf-8").splitlines())

    @staticmethod
    def _rows(path: Path) -> list[dict]:
        with path.open(newline="", encoding="utf-8") as f:
            return list(csv.DictReader(f))

    def _outputs_ok(self) -> bool:
        try:
            fit = self._report(self.out["fit"] / "report.txt")
            cov = self._report(self.out["cov"] / "report.txt")
            rss = [float(r["rss"]) for r in self._rows(self.out["fit"] / "rss_trace.csv") if r["rss"]]
            rho = [float(r["rho_hat"]) for r in self._rows(self.out["cov"] / "covariance.csv")]
            chosen = [r for r in self._rows(self.out["cov"] / "calibration.csv") if r["chosen"] == "1"]
            return (
                float(fit["h_o"]) == float(fit["h_z"]) * float(fit["factor_ratio"])
                and float(cov["h_o"]) == float(fit["h_o"])
                and float(fit["rss_min"]) == min(rss)
                and correlation_ok(rho)
                and len(chosen) == 1
                and calibration_ok(
                    float(chosen[0]["discrepancy"]), float(cov["delta_n"]),
                    cov["calibration_fallback"] == "1",
                )
            )
        except (OSError, KeyError, ValueError):  # missing or malformed artifacts
            return False

    def check(self, codes) -> tuple[int, int]:
        ok = all(code == 0 for code in codes) and self._outputs_ok()
        return 1, int(not ok)

    def reference(self, codes) -> dict:
        elbow = self._report(self.out["elbow"] / "report.txt")
        fit = self._report(self.out["fit"] / "report.txt")
        cov = self._report(self.out["cov"] / "report.txt")
        return {
            "chosen_c1": float(elbow["chosen_c1"]),
            "h_o": float(fit["h_o"]),
            "chosen_b": float(cov["chosen_b"]),
            "truncation_t": float(cov["truncation_t"]),
        }

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


# Runs simulate.generate in a child interpreter and saves its design points;
# argv: n, c, alpha, sigma2, seed, output .npy path.
_SITES_SCRIPT = """
import sys
import numpy as np
from corrsmooth import simulate
n, c, alpha, sigma2, seed, out = sys.argv[1:]
model = simulate.CorrelationModel("exponential", c=float(c), alpha=float(alpha), dim=2, sigma2=float(sigma2))
scn = simulate.SimScenario(mu_id="mu2d", n=int(n), model=model, seed=int(seed), n_trials=1)
np.save(out, simulate.generate(scn, 0).dataset.points)
"""


class CovSites:
    """One op = a fresh error field at fixed sites through the Raw covariance
    sequence: calibrate_b, covariance_curve, estimate_correlation, sse_cor."""

    name = "cov_sites"
    unit = "op"

    def __init__(self, seed: int, workdir: Path, n: int = 3000):
        self.seed = seed
        self.n = n
        self.dir = Path(tempfile.mkdtemp(prefix="cov_sites-", dir=workdir))
        self.model = simulate.CorrelationModel("exponential", c=1.0, alpha=1.0, dim=2, sigma2=0.1)
        self.data = None
        self.root = None

    def build(self) -> None:
        """Sites from simulate.generate, then one Cholesky factor of their covariance.

        generate's dense n x n work runs in a child interpreter, which is
        waited for, so this process's peak RSS is set by the ops, not by set-up.
        """
        self.data = self.root = None  # free the previous build's factor first
        m = self.model
        out = self.dir / "sites.npy"
        src = str(Path(simulate.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run(
            [sys.executable, "-c", _SITES_SCRIPT, str(self.n), repr(m.c), repr(m.alpha), repr(m.sigma2),
             str(child_seed(self.seed, 0)), str(out)],
            env=env, check=True, timeout=120,
        )
        sites = np.load(out)
        cov = squareform(pdist(sites))
        cov *= -m.c * self.n ** (m.alpha / m.dim)
        np.exp(cov, out=cov)
        cov *= m.sigma2
        cov.flat[:: self.n + 1] += 1e-10 * m.sigma2
        self.root = np.linalg.cholesky(cov)
        del cov
        self.data = locfit.Dataset(points=sites, responses=np.zeros(self.n))

    def op(self, k: int):
        z = np.random.default_rng(child_seed(self.seed, 1, k)).standard_normal(self.n)
        errors = self.root @ z
        s2 = float(errors @ errors / self.n)
        cal = covariance.calibrate_b(self.data, errors, s2)
        curve = covariance.covariance_curve(self.data, errors, cal.chosen_b, sigma2_hat=s2)
        rho = covariance.estimate_correlation(curve, "by_chat0")
        sse = simulate.sse_cor(rho, self.model, locfit.pairwise_distances(self.data), self.n)
        return cal, curve, rho, sse

    def check(self, out) -> tuple[int, int]:
        cal, curve, rho, sse = out
        chosen = np.flatnonzero(cal.b_candidates == cal.chosen_b)
        ok = (
            correlation_ok(rho.rho)
            and chosen.size == 1
            and calibration_ok(float(cal.discrepancy[chosen[0]]), cal.delta_n, cal.fallback)
            and math.isfinite(sse)
            and sse >= 0.0
        )
        return 1, int(not ok)

    def reference(self, out) -> dict:
        cal, curve, rho, sse = out
        return {"chosen_b": cal.chosen_b, "truncation_t": curve.truncation_t, "sse_cor": sse}

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {"sim_table": SimTable, "geo_cli": GeoCli, "cov_sites": CovSites}


def make(name: str, seed: int, workdir: Path):
    if name == "sim_table":
        return SimTable(seed)
    return WORKLOADS[name](seed, workdir)
