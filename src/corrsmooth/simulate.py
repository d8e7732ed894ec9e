"""Seeded data generation under the correlated-error model, evaluation
metrics, and the trial harness that reproduces the experiment tables at
desk scale.

Randomness discipline: every trial owns a child of numpy's SeedSequence
spawned from the scenario seed, fed to a PCG64 Generator.  Uniform design
draws come first, then the standard normals behind the correlated errors,
so identical seeds give bit-identical datasets.  The correlated errors
pass through a dense eigendecomposition, which rounds differently with,
say, one and two OpenBLAS threads; numpy's bundled OpenBLAS is therefore
pinned to one thread around it.  Where that library's thread-count calls
are missing, a warning says so and the datasets again depend on the BLAS
thread count.
"""

from __future__ import annotations

import ctypes
import re
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from functools import cache, cached_property

import numpy as np
from scipy import integrate
from scipy.spatial.distance import cdist

from .bandwidth import _pick, gcv_scan, select_h_o
from .covariance import DEFAULT_N_STAR, DELTA_N_DEFAULT, error_covariance, residual_covariance
from .errors import CorrsmoothError, SingularFitError
from .kernels import MIN_PRODUCT, build_annulus_kernel, check_radii, sphere_surface
from .locfit import Dataset, _metric_distances, hat_matrix

__all__ = [
    "FAMILIES",
    "FAMILY_PROFILES",
    "CorrelationModel",
    "SimScenario",
    "SimulatedData",
    "correlation_value",
    "generate",
    "draw_correlated_errors",
    "mu2d",
    "mu3d",
    "mse_prac",
    "sse_cor",
    "correlation_penalty",
    "MethodSpec",
    "parse_method",
    "run_method_trial",
    "run_raw_trial",
    "min_epan_mse",
    "run_trial",
    "run_table",
    "ResultRow",
    "ZETA_DEFAULT",
]

ZETA_DEFAULT = 0.02
_SSE_CUT_SLACK = 2.0**-48  # covers the rounding of the profiles, whose values lie in [0, 1]
_SSE_CUT_RTOL = 1e-6  # relative width at which the sse_cor cut's bisection stops


def _spherical_profile(s, c):
    s = np.asarray(s, dtype=float)
    x = s / c
    return np.where(x <= 1.0, 1.0 - 1.5 * x + 0.5 * x**3, 0.0)


def _exponential_profile(s, c):
    return np.exp(-c * np.asarray(s, dtype=float))


def _inverse_quadratic_profile(s, c):
    s = np.asarray(s, dtype=float)
    return 1.0 / (1.0 + c * s * s)


FAMILY_PROFILES = {
    "spherical": _spherical_profile,
    "exponential": _exponential_profile,
    "inverse_quadratic": _inverse_quadratic_profile,
}
FAMILIES = tuple(FAMILY_PROFILES)


@dataclass(frozen=True)
class CorrelationModel:
    """Parametric correlation family scaled by n^(alpha/D)."""

    family: str
    c: float
    alpha: float = 1.0
    dim: int = 2
    sigma2: float = 0.1

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if not 0.0 < self.c < np.inf:
            raise ValueError(f"c must be positive and finite, got {self.c}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if not 0.0 <= self.sigma2 < np.inf:
            raise ValueError(f"sigma2 must be nonnegative and finite, got {self.sigma2}")

    def correlation_integral(self) -> float:
        """C_rho = lim n^alpha * int rho_n(||u||) du over R^D, via the scaled
        radial profile; it sets the correlated-error term of the oracle bandwidth."""
        if self.family == "inverse_quadratic" and self.dim >= 2:
            raise CorrsmoothError(
                "inverse-quadratic correlation is not integrable over R^D for D >= 2; "
                "no finite C_rho exists"
            )
        profile = FAMILY_PROFILES[self.family]
        upper = self.c if self.family == "spherical" else np.inf
        val, _ = integrate.quad(
            lambda r: profile(np.asarray(r), self.c) * r ** (self.dim - 1), 0.0, upper
        )
        return sphere_surface(self.dim) * float(val)


def correlation_value(model: CorrelationModel, t, n: int):
    """rho_n(t): the family profile evaluated at n^(alpha/D) * t."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("lag t must be nonnegative")
    s = n ** (model.alpha / model.dim) * t
    out = FAMILY_PROFILES[model.family](s, model.c)
    return float(out) if out.ndim == 0 else out


def mu2d(x):
    x = np.asarray(x, dtype=float)
    return 2.0 * x[..., 0] ** 2 + 2.0 * np.cos(np.pi * x[..., 1])


def mu3d(x):
    x = np.asarray(x, dtype=float)
    return x[..., 0] + np.sin(np.pi * x[..., 1]) + 2.0 * x[..., 2] ** 2


MU_FUNCS = {"mu2d": mu2d, "mu3d": mu3d}
_MU_DIMS = {"mu2d": 2, "mu3d": 3}


@dataclass(frozen=True)
class SimScenario:
    mu_id: str
    n: int
    model: CorrelationModel
    seed: int
    n_trials: int = 1

    def __post_init__(self):
        if self.mu_id not in MU_FUNCS:
            raise ValueError(f"unknown mu_id {self.mu_id!r}")
        if _MU_DIMS[self.mu_id] != self.model.dim:
            raise ValueError(
                f"{self.mu_id} requires D={_MU_DIMS[self.mu_id]}, model has D={self.model.dim}"
            )
        if self.n < self.model.dim + 2:
            raise ValueError("n too small for the dimension")
        if self.n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def mu(self):
        return MU_FUNCS[self.mu_id]


@dataclass(frozen=True)
class SimulatedData:
    dataset: Dataset
    errors: np.ndarray
    mu_true: np.ndarray
    model: CorrelationModel
    n: int

    @cached_property
    def product_scan(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(grid, GCV scores, MSE_prac) of bandwidth.gcv_scan, built on first use:
        one solve per bandwidth serves the GCV row and minEpan.  MSE_prac is inf
        where the fit is singular; no fit outlives the scan."""
        grid, fits, gcv = gcv_scan(self.dataset)
        prac = [np.inf if f.singular_count else mse_prac(f.fitted, self.mu_true) for f in fits]
        return grid, gcv, np.array(prac)


_BLAS_PIN_LOCK = threading.Lock()


@cache
def _openblas_threads():
    """The (get, set) thread-count calls of numpy's bundled OpenBLAS, or None."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes = []
    get.restype = ctypes.c_int
    set_.argtypes = [ctypes.c_int]
    set_.restype = None
    return get, set_


@contextmanager
def _one_blas_thread():
    """Run the body with numpy's OpenBLAS on one thread, then restore the old
    count.  The count is process-wide, so trials running in threads take
    turns under a lock, and while it is pinned the other trials' BLAS calls
    run on one thread too: slower, with the same results."""
    calls = _openblas_threads()
    if calls is None:
        warnings.warn(
            "cannot pin numpy's OpenBLAS to one thread; seeded errors may "
            "depend on the BLAS thread count",
            RuntimeWarning,
            stacklevel=3,
        )
        yield
        return
    get, set_ = calls
    with _BLAS_PIN_LOCK:
        old = get()
        set_(1)
        try:
            yield
        finally:
            set_(old)


def draw_correlated_errors(cov: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Gaussian vector with the given covariance via symmetric eigendecomposition.

    Negative eigenvalues are clipped at 0 after a tiny diagonal jitter;
    one retry with a larger jitter covers numerically indefinite inputs.
    The eigendecomposition runs on one BLAS thread, so its bytes do not
    depend on the machine's core count.
    """
    cov = np.asarray(cov, dtype=float)
    n = cov.shape[0]
    scale = float(np.abs(np.diag(cov)).max()) if n else 0.0
    last_err = None
    for jitter in (1e-10, 1e-8):
        try:
            with _one_blas_thread():
                vals, vecs = np.linalg.eigh(cov + jitter * scale * np.eye(n))
            break
        except np.linalg.LinAlgError as err:  # pragma: no cover - rare
            last_err = err
    else:  # pragma: no cover - rare
        raise CorrsmoothError(f"covariance factorization failed: {last_err}")
    root = vecs * np.sqrt(np.clip(vals, 0.0, None))
    return root @ rng.standard_normal(n)


def generate(scn: SimScenario, trial: int = 0) -> SimulatedData:
    """One seeded draw of the scenario: design, correlated errors, responses."""
    if not 0 <= trial < scn.n_trials:
        raise ValueError(f"trial {trial} outside [0, {scn.n_trials})")
    child = np.random.SeedSequence(scn.seed).spawn(scn.n_trials)[trial]
    rng = np.random.default_rng(child)
    model = scn.model
    x = rng.random((scn.n, model.dim))
    cov = model.sigma2 * correlation_value(model, cdist(x, x), scn.n)
    errors = draw_correlated_errors(cov, rng)
    mu_true = scn.mu(x)
    dataset = Dataset(points=x, responses=mu_true + errors)
    return SimulatedData(
        dataset=dataset, errors=errors, mu_true=mu_true, model=model, n=scn.n
    )


def mse_prac(fitted, truth) -> float:
    fitted = np.asarray(fitted, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if fitted.shape != truth.shape:
        raise ValueError("fitted and truth must have equal length")
    diff = fitted - truth
    return float(diff @ diff / diff.shape[0])


def _sse_cut(model: CorrelationModel, n: int, zeta: float) -> float:
    """A lag d_cut with rho_n(d_cut) < zeta / 2 - _SSE_CUT_SLACK, or inf if
    that target is not positive or no finite lag reaches it.

    Doubles from lag 1 until rho_n falls below the target, then bisects
    down to a relative width of _SSE_CUT_RTOL.
    """
    target = zeta / 2.0 - _SSE_CUT_SLACK
    if target <= 0.0:
        return np.inf
    lo, hi = 0.0, 1.0
    while correlation_value(model, hi, n) >= target:
        lo, hi = hi, 2.0 * hi
        if hi == np.inf:
            return hi
    while hi - lo > _SSE_CUT_RTOL * hi:
        mid = 0.5 * (lo + hi)
        if correlation_value(model, mid, n) >= target:
            lo = mid
        else:
            hi = mid
    return hi


def sse_cor(rho_hat, model: CorrelationModel, distances, n: int, zeta: float = ZETA_DEFAULT):
    """Sum over pairs with true correlation >= zeta of (rho_hat - rho_n)^2.

    The threshold keeps only pairs where the real correlation matters;
    rho_hat is the estimated curve interpolated at the pair distances.  The
    kept pairs stay in the input's order, which fixes the summation order of
    the result.

    Every family profile is non-increasing in s, and rounds to within
    _SSE_CUT_SLACK / 2 of a non-increasing function of the lag.  So past a
    lag d_cut where the computed rho_n is below zeta / 2 - _SSE_CUT_SLACK,
    it stays below zeta, and the distances above d_cut are dropped before
    rho_n is evaluated.  Negative distances are kept, so they still raise,
    and NaN distances are dropped, as the zeta mask drops them.
    """
    if not 0.0 < zeta < 1.0:
        raise ValueError("zeta must be in (0, 1)")
    d = np.asarray(distances, dtype=float)
    d = d[d <= _sse_cut(model, n, zeta)]
    rho_true = correlation_value(model, d, n)
    mask = rho_true >= zeta
    diff = rho_hat.interpolate(d[mask]) - rho_true[mask]
    return float(diff @ diff)


def correlation_penalty(data: Dataset, model: CorrelationModel, h: float, kernel) -> float:
    """The correlation term of the approximate-MISE identity,
    (2 sigma^2 / n) sum_{i != s} c_is rho_n(||X_i - X_s||)."""
    c, singular = hat_matrix(data, h, kernel)
    if singular.any():
        raise SingularFitError(f"{int(singular.sum())} singular rows in hat matrix")
    rho = correlation_value(model, _metric_distances(data, data.points), data.n)
    np.fill_diagonal(rho, 0.0)
    return float(2.0 * model.sigma2 / data.n * np.einsum("is,is->", c, rho))


# ---------------------------------------------------------------------------
# trial harness


@dataclass(frozen=True)
class MethodSpec:
    kind: str  # "za" or "gcv"
    c1: float | None = None
    c2: float | None = None

    @property
    def label(self) -> str:
        if self.kind == "za":
            return f"ZA({self.c1:g},{self.c2:g})"
        return "GCV"


_ZA_RE = re.compile(r"^za\(\s*([^,()]+)\s*,\s*([^,()]+)\s*\)$")


def parse_method(text: str) -> MethodSpec:
    token = text.strip().lower()
    if token == "gcv":
        return MethodSpec(kind="gcv")
    match = _ZA_RE.match(token)
    if match:
        c1, c2 = check_radii(match.group(1), match.group(2))
        return MethodSpec(kind="za", c1=c1, c2=c2)
    raise ValueError(f"unknown method {text!r}; expected gcv or za(c1,c2)")


def _method_specs(methods) -> list[MethodSpec]:
    """MethodSpecs from specs or their text; ValueError if two share a row label,
    since a trial keeps one outcome per label."""
    specs = [parse_method(m) if isinstance(m, str) else m for m in methods]
    labels = [spec.label for spec in specs]
    if len(set(labels)) < len(labels):
        raise ValueError(f"methods {', '.join(labels)} repeat a method")
    return specs


@dataclass
class TrialOutcome:
    """One row kind's result on one trial; metrics a row kind lacks stay NaN."""

    h: float = np.nan
    mse_prac: float = np.nan
    sigma2_hat: float = np.nan
    sse_cor: float = np.nan
    calibration_fallback: bool = False


@dataclass(frozen=True)
class ResultRow:
    family: str
    c: float
    alpha: float
    dim: int
    n: int
    sigma2: float
    seed: int
    n_trials: int
    method: str
    mse_prac_mean: float
    mse_prac_sd: float
    mse_sigma2_mean: float
    mse_sigma2_sd: float
    sse_cor_mean: float
    sse_cor_sd: float
    failures: int


def run_method_trial(
    sim: SimulatedData,
    spec: MethodSpec,
    objective: str = MIN_PRODUCT,
    n_star: int = DEFAULT_N_STAR,
    delta_n: float = DELTA_N_DEFAULT,
    zeta: float = ZETA_DEFAULT,
) -> TrialOutcome:
    """Full pipeline for one method on one simulated trial."""
    data = sim.dataset
    if spec.kind == "za":
        h = select_h_o(data, build_annulus_kernel(spec.c1, spec.c2, data.dim, objective)).h_o
    elif spec.kind == "gcv":
        grid, scores, _ = sim.product_scan
        h = float(grid[_pick(scores)])
    else:
        raise ValueError(f"unknown method kind {spec.kind!r}")

    chain = error_covariance(data, h, n_star=n_star, delta_n=delta_n)
    return TrialOutcome(
        h=h, mse_prac=mse_prac(chain.fit.fitted, sim.mu_true), sigma2_hat=chain.curve.sigma2_hat,
        sse_cor=sse_cor(chain.rho, sim.model, data.pair_index.dist, sim.n, zeta=zeta),
        calibration_fallback=chain.calibration.fallback,
    )


def run_raw_trial(
    sim: SimulatedData,
    n_star: int = DEFAULT_N_STAR,
    delta_n: float = DELTA_N_DEFAULT,
    zeta: float = ZETA_DEFAULT,
) -> TrialOutcome:
    """Reference pipeline treating the true errors as observed."""
    errors = sim.errors
    s2 = float(errors @ errors / errors.shape[0])
    chain = residual_covariance(sim.dataset, errors, s2, n_star=n_star, delta_n=delta_n)
    return TrialOutcome(
        sigma2_hat=s2, calibration_fallback=chain.calibration.fallback,
        sse_cor=sse_cor(chain.rho, sim.model, sim.dataset.pair_index.dist, sim.n, zeta=zeta),
    )


def min_epan_mse(sim: SimulatedData) -> float:
    """Least MSE_prac over the Epanechnikov default grid, read from the draw's
    product_scan, which the GCV row shares and the first reader computes."""
    prac = sim.product_scan[2]
    return float(prac[_pick(prac)])


def _aggregate(values) -> tuple[float, float]:
    arr = np.asarray([v for v in values if np.isfinite(v)], dtype=float)
    if arr.size == 0:
        return np.nan, np.nan
    mean = float(arr.mean())
    sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return mean, sd


def _counted(run, *args, **kwargs):
    """run(*args, **kwargs), or None on a numerical failure (CorrsmoothError)."""
    try:
        return run(*args, **kwargs)
    except CorrsmoothError:
        return None


def run_trial(
    sim: SimulatedData,
    method_specs,
    objective: str = MIN_PRODUCT,
    n_star: int = DEFAULT_N_STAR,
    delta_n: float = DELTA_N_DEFAULT,
    zeta: float = ZETA_DEFAULT,
) -> dict[str, TrialOutcome | None]:
    """Every method, then the Raw and minEpan references, on one simulated trial.

    Maps each row label, in that order, to its TrialOutcome, or to None for
    a numerical failure (CorrsmoothError).
    Any other exception is a bug and propagates.  minEpan is the least of the
    scan's MSE_prac and every completed method's own, so it bounds each of them.
    """
    outcomes = {
        spec.label: _counted(
            run_method_trial, sim, spec, objective=objective, n_star=n_star,
            delta_n=delta_n, zeta=zeta,
        )
        for spec in method_specs
    }
    fitted = [o.mse_prac for o in outcomes.values() if o is not None]
    outcomes["Raw"] = _counted(run_raw_trial, sim, n_star=n_star, delta_n=delta_n, zeta=zeta)
    outcomes["minEpan"] = _counted(lambda: TrialOutcome(mse_prac=min([min_epan_mse(sim), *fitted])))
    return outcomes


def run_table(
    scenarios,
    methods,
    n_trials: int | None = None,
    objective: str = MIN_PRODUCT,
    n_star: int = DEFAULT_N_STAR,
    delta_n: float = DELTA_N_DEFAULT,
    zeta: float = ZETA_DEFAULT,
    threads: int = 1,
    progress=None,
) -> list[ResultRow]:
    """Run every scenario x method over seeded trials and aggregate the metrics.

    Each trial is one run_trial: a map from row label to TrialOutcome, or None
    for a numerical failure, for every method plus the "Raw" (true-error
    covariance reference) and "minEpan" (exhaustive-scan reference) rows.
    Every row aggregates its column of those maps the same way, over the
    completed trials; a method listed twice raises ValueError before any
    trial runs.  progress(scenario, trial) is called as each trial's
    map arrives, in trial order.  Child seeds make trials order-independent,
    so threads > 1 shares them out over a worker pool; one thread runs them
    in the caller, which keeps the peak RSS lower than a one-worker pool.
    Pooled trials share numpy's OpenBLAS thread count, which each trial's
    draw_correlated_errors briefly pins to one.
    """
    method_specs = _method_specs(methods)
    rows: list[ResultRow] = []
    for scn in scenarios:
        trials = scn.n_trials if n_trials is None else int(n_trials)
        scn = replace(scn, n_trials=trials)

        def one_trial(trial_idx: int) -> dict[str, TrialOutcome | None]:
            return run_trial(
                generate(scn, trial_idx), method_specs, objective=objective,
                n_star=n_star, delta_n=delta_n, zeta=zeta,
            )

        results = []
        # no one-worker pool: it measured ~12% more peak RSS on n=500 trials
        with ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext() as pool:
            trial_maps = (pool.map if pool else map)(one_trial, range(trials))
            for trial_idx, outcomes in enumerate(trial_maps):
                results.append(outcomes)
                if progress is not None:
                    progress(scn, trial_idx)

        model = scn.model
        for label in ["minEpan", "Raw", *(spec.label for spec in method_specs)]:
            done = [r[label] for r in results if r[label] is not None]
            prac_mean, prac_sd = _aggregate([o.mse_prac for o in done])
            sq_mean, sq_sd = _aggregate([(o.sigma2_hat - model.sigma2) ** 2 for o in done])
            sse_mean, sse_sd = _aggregate([o.sse_cor for o in done])
            rows.append(ResultRow(
                family=model.family, c=model.c, alpha=model.alpha, dim=model.dim,
                n=scn.n, sigma2=model.sigma2, seed=scn.seed, n_trials=trials,
                method=label,
                mse_prac_mean=prac_mean, mse_prac_sd=prac_sd,
                mse_sigma2_mean=sq_mean, mse_sigma2_sd=sq_sd,
                sse_cor_mean=sse_mean, sse_cor_sd=sse_sd,
                failures=trials - len(done),
            ))
    return rows
