"""Nonparametric error covariance and correlation estimation.

The covariance at lag t is a kernel-weighted ratio over all ordered pairs
(i, j), including i = j; the diagonal mass is what anchors the estimate
at lag 0.  For t < b the smoothing window is truncated at lag 0, so the
symmetric kernel is replaced by the boundary kernel with q = t/b (q is
clamped to a tiny positive value at t = 0; the formula is continuous in
q and the lag-0 estimate is dominated by the i = j mass regardless).

Every estimate is a sum over the design's sorted pair index, taken by
_PairSums from one fit or residual vector; calibration and the curve each
build one and evaluate all their lags on it.

The smoothing bandwidth b is picked by variance calibration: the largest
candidate keeping the kernel-based variance estimate within delta_n of
the RSS-based one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .bandwidth import _validate_grid
from .errors import DegenerateCorrelationError, EmptyWindowError, SingularFitError
from .kernels import BoundaryKernel
from .locfit import Dataset, FitResult, PairIndex, fit_all, rss

__all__ = [
    "DELTA_N_DEFAULT",
    "DEFAULT_N_STAR",
    "CovarianceEstimate",
    "CalibrationTrace",
    "CorrelationCurve",
    "sigma2_rss",
    "default_b_candidates",
    "calibrate_b",
    "covariance_curve",
    "estimate_correlation",
]

DELTA_N_DEFAULT = 2e-4
DEFAULT_N_STAR = 200
_RHO_MODES = ("by_chat0", "by_sigma2_hat")
DEFAULT_B_CANDIDATES = 25
_PILOT_POINTS = 256
_PILOT_FLOOR = 0.02  # pilot truncation when |C| falls below this fraction of C(0)
_SANITY_FACTOR = 1.5


class _PairSums:
    """A pair index's sorted distances with aligned residual products.

    The one route from a fit or a residual vector to pair sums.  Every lag
    evaluation touches only the pairs inside its window, which keeps curve
    evaluation linear in the window size.  The products r[i] * r[j] are
    filled in distance order up to each window's far end as windows first
    reach them, so calibration and truncated curves never multiply a pair
    beyond their widest window.
    """

    def __init__(self, fit_or_residuals, index: PairIndex):
        if isinstance(fit_or_residuals, FitResult):
            if fit_or_residuals.singular_count:
                raise SingularFitError("residual fit contains singular points")
            fit_or_residuals = fit_or_residuals.residuals
        residuals = np.array(fit_or_residuals, dtype=float)  # a copy: products are filled later
        if residuals.shape != (index.n,) or not np.isfinite(residuals).all():
            raise ValueError(
                f"need {index.n} finite residuals, one per design point, "
                f"got shape {residuals.shape}"
            )
        self.n = index.n
        self.dist = index.dist
        self._index = index
        self._residuals = residuals
        self._prod = np.empty(index.dist.shape)
        self.filled = 0  # products [0, filled) are computed
        self.diag = float(residuals @ residuals)

    def products(self, hi: int) -> np.ndarray:
        """Residual products of the hi nearest pairs."""
        if hi > self.filled:
            lo, self.filled = self.filled, hi
            head = self._prod[lo:hi]
            np.take(self._residuals, self._index.i[lo:hi], out=head)
            head *= self._residuals[self._index.j[lo:hi]]
        return self._prod[:hi]

    def estimate(self, t: float, b: float) -> float:
        """Weighted ratio at lag t; boundary kernel for t < b."""
        if not (np.isfinite(t) and np.isfinite(b)):
            raise ValueError(f"lag t and bandwidth b must be finite, got t={t}, b={b}")
        if b <= 0.0:
            raise ValueError(f"bandwidth b must be positive, got {b}")
        if t < 0.0:
            raise ValueError(f"lag t must be nonnegative, got {t}")
        kernel = BoundaryKernel(q=t / b)  # q >= 1 collapses to Epanechnikov
        lo = np.searchsorted(self.dist, t - b, side="right")
        hi = np.searchsorted(self.dist, t + b, side="right")
        u = (t - self.dist[lo:hi]) / b
        w = kernel.value(u)
        num = 2.0 * float(w @ self.products(hi)[lo:])
        den = 2.0 * float(w.sum())
        # Diagonal pairs sit at distance 0 with argument t/b; the kernel's
        # own support check zeroes them once t >= b.
        w_diag = float(kernel.value(np.asarray(t / b)))
        num += w_diag * self.diag
        den += w_diag * self.n
        mass = 2.0 * float(np.abs(w).sum()) + abs(w_diag) * self.n
        if mass == 0.0 or abs(den) < 1e-10 * mass:
            raise EmptyWindowError(t, b)
        return num / den


def _interpolate_truncated(t, t_grid, values, truncation_t):
    """Piecewise-linear curve; identically 0 at and beyond truncation."""
    t = np.asarray(t, dtype=float)
    out = np.interp(t, t_grid, values)
    beyond = (t >= truncation_t) & (t > 0.0)
    out = np.where(beyond, 0.0, out)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class CovarianceEstimate:
    t_grid: np.ndarray
    c_hat: np.ndarray
    b: float
    sigma2_hat: float
    sigma2_tilde: float
    truncation_t: float
    dropped: np.ndarray = field(default_factory=lambda: np.empty(0))
    flags: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))  # per lag

    def interpolate(self, t):
        return _interpolate_truncated(t, self.t_grid, self.c_hat, self.truncation_t)


@dataclass(frozen=True)
class CalibrationTrace:
    b_candidates: np.ndarray
    sigma2_tilde: np.ndarray
    discrepancy: np.ndarray
    chosen_b: float
    delta_n: float
    fallback: bool  # argmin fallback fired because no candidate qualified


@dataclass(frozen=True)
class CorrelationCurve:
    t_grid: np.ndarray
    rho: np.ndarray
    mode: str
    truncation_t: float
    clamped: bool

    def interpolate(self, t):
        return _interpolate_truncated(t, self.t_grid, self.rho, self.truncation_t)


def sigma2_rss(data: Dataset, h_t: float, ko) -> float:
    """RSS-based variance estimate at the dedicated (larger) bandwidth h_t."""
    fit = fit_all(data, h_t, ko)
    if fit.singular_count:
        raise SingularFitError(
            f"variance fit singular at {fit.singular_count} point(s) for h_t={h_t:.6g}"
        )
    return rss(fit)


def default_b_candidates(data: Dataset, size: int = DEFAULT_B_CANDIDATES) -> np.ndarray:
    """Log-spaced candidates from the minimum positive pair distance (visibly
    undersmoothing) up to half the median pair distance."""
    d = data.pair_index.dist  # ascending
    first_positive = int(np.searchsorted(d, 0.0, side="right"))
    if first_positive == d.size:
        raise ValueError("all design points coincide; no b candidates")
    lo = float(d[first_positive])
    mid = d.size // 2  # np.median of the sorted values, with its bits
    hi = float(d[mid] if d.size % 2 else (d[mid - 1] + d[mid]) / 2.0) / 2.0
    if hi <= lo:
        hi = 2.0 * lo
    return np.geomspace(lo, hi, size)


def calibrate_b(
    data: Dataset,
    fit_or_residuals,
    sigma2_hat: float,
    b_candidates=None,
    delta_n: float = DELTA_N_DEFAULT,
) -> CalibrationTrace:
    """Variance calibration: largest b with |sigma2_hat - C_hat(0; b)| <= delta_n.

    If no candidate qualifies, falls back to the discrepancy argmin with a
    warning (recorded on the trace).  If the largest candidate qualifies, a
    warning says that larger b were not tried.  A non-finite sigma2_hat or a NaN
    delta_n raises ValueError instead, since no discrepancy could qualify.
    """
    if not np.isfinite(sigma2_hat):
        raise ValueError(f"sigma2_hat must be finite, got {sigma2_hat}")
    if not delta_n >= 0.0:
        raise ValueError(f"delta_n must be nonnegative, got {delta_n}")
    if b_candidates is None:
        b_candidates = default_b_candidates(data)
    b_arr = _validate_grid(b_candidates)

    pairs = _PairSums(fit_or_residuals, data.pair_index)
    bs = [float(b) for b in b_arr]
    tildes = [pairs.estimate(0.0, b) for b in bs]

    # The coarse grid often straddles the narrow band where the two
    # variance estimates align; bisect the rightmost sign change of
    # (sigma2_tilde - sigma2_hat) and keep the refined candidates.
    if not any(abs(sigma2_hat - t) <= delta_n for t in tildes):
        # no sign is 0 here: a zero discrepancy would have qualified
        changes = np.flatnonzero(np.diff(np.sign(np.asarray(tildes) - sigma2_hat)))
        if changes.size:
            i = int(changes[-1])
            b_lo, t_lo, b_hi = bs[i], tildes[i], bs[i + 1]
            for _ in range(64):
                if b_hi / b_lo < 1.0 + 1e-12:
                    break
                mid = float(np.sqrt(b_lo * b_hi))
                t_mid = pairs.estimate(0.0, mid)
                bs.append(mid)
                tildes.append(t_mid)
                if abs(sigma2_hat - t_mid) <= delta_n:
                    break
                if np.sign(t_mid - sigma2_hat) == np.sign(t_lo - sigma2_hat):
                    b_lo, t_lo = mid, t_mid
                else:
                    b_hi = mid

    order = np.argsort(bs)
    b_all = np.asarray(bs)[order]
    tilde = np.asarray(tildes)[order]
    disc = np.abs(sigma2_hat - tilde)
    qualifying = np.flatnonzero(disc <= delta_n)
    if qualifying.size:
        chosen = int(qualifying[-1])
        fallback = False
        if chosen == b_all.size - 1:
            warnings.warn(
                f"chosen b={b_all[chosen]:.6g} is the largest candidate; "
                "larger b were not tried",
                stacklevel=2,
            )
    else:
        chosen = int(np.argmin(disc))
        fallback = True
        warnings.warn(
            f"no candidate b met |sigma2_hat - sigma2_tilde| <= {delta_n:.3g}; "
            f"falling back to argmin b={b_all[chosen]:.6g} "
            f"(discrepancy {disc[chosen]:.3g})",
            stacklevel=2,
        )
    return CalibrationTrace(
        b_candidates=b_all,
        sigma2_tilde=tilde,
        discrepancy=disc,
        chosen_b=float(b_all[chosen]),
        delta_n=float(delta_n),
        fallback=fallback,
    )


def _pilot_truncation(pairs: _PairSums, b: float, sigma2_tilde: float) -> float:
    """Smallest lag where a pilot curve changes sign or decays below the floor."""
    d_max = float(pairs.dist[-1]) if pairs.dist.size else 0.0
    upper = d_max / 2.0
    if upper <= 0.0:
        return 0.0
    ts = np.linspace(upper / _PILOT_POINTS, upper, _PILOT_POINTS)
    floor = _PILOT_FLOOR * abs(sigma2_tilde)
    for t in ts:
        try:
            val = pairs.estimate(float(t), b)
        except EmptyWindowError:
            continue
        if val <= 0.0 or abs(val) < floor:
            return float(t)
    return upper


def covariance_curve(
    data: Dataset,
    fit_or_residuals,
    b: float,
    n_star: int = DEFAULT_N_STAR,
    truncation_t: float | None = None,
    sigma2_hat: float = np.nan,
) -> CovarianceEstimate:
    """Covariance estimates on a lag grid {0} + n_star points up to truncation.

    Grid points whose window holds no pairs are dropped from interpolation
    with a warning; an EmptyWindowError if that leaves no lag strictly
    between 0 and the truncation.  The truncation lag itself is never
    estimated: its stored value is 0, so the served curve decays
    continuously into the truncated region.  flags marks the lags where
    |c_hat| exceeds _SANITY_FACTOR times |C(0)|, with one warning if any does.
    """
    if n_star < 2:
        raise ValueError(f"n_star must be >= 2, got {n_star}")
    if not 0.0 < b < np.inf:
        raise ValueError(f"bandwidth b must be finite and positive, got {b}")
    pairs = _PairSums(fit_or_residuals, data.pair_index)
    tilde = pairs.estimate(0.0, float(b))

    if truncation_t is None:
        truncation_t = _pilot_truncation(pairs, float(b), tilde)
    truncation_t = float(truncation_t)
    if not 0.0 <= truncation_t < np.inf:
        raise ValueError(f"truncation_t must be finite and nonnegative, got {truncation_t}")

    ts = np.concatenate([[0.0], np.linspace(truncation_t / n_star, truncation_t, n_star)])
    if truncation_t == 0.0:  # -0.0 too, which the estimate records as 0.0
        ts, truncation_t = ts[:1], 0.0
    values = np.zeros(ts.shape)  # the clamp at T: the curve is 0 from there on
    values[0] = tilde
    keep = np.ones(ts.shape, dtype=bool)
    dropped = []
    for idx in range(1, ts.size - 1):
        try:
            values[idx] = pairs.estimate(float(ts[idx]), float(b))
        except EmptyWindowError:
            keep[idx] = False
            dropped.append(ts[idx])
    if dropped:
        if len(dropped) == ts.size - 2:
            raise EmptyWindowError(float(dropped[0]), float(b))
        warnings.warn(
            f"{len(dropped)} lag grid point(s) had empty windows and were "
            "dropped from interpolation",
            stacklevel=2,
        )
    ts = ts[keep]
    values = values[keep]
    flags = np.abs(values) > _SANITY_FACTOR * abs(tilde)
    if flags.any():
        warnings.warn(
            f"covariance estimate exceeds {_SANITY_FACTOR:g} x C(0) somewhere on the grid",
            stacklevel=2,
        )
    return CovarianceEstimate(
        t_grid=ts,
        c_hat=values,
        b=float(b),
        sigma2_hat=float(sigma2_hat),
        sigma2_tilde=tilde,
        truncation_t=truncation_t,
        dropped=np.asarray(dropped),
        flags=flags,
    )


def estimate_correlation(cov: CovarianceEstimate, mode: str = "by_chat0") -> CorrelationCurve:
    """Correlation curve rho_hat = C_hat / C_hat(0) or C_hat / sigma2_hat.

    Values are clamped to [-1, 1]; the curve records whether clamping
    occurred.  In by_chat0 mode rho_hat(0) = 1 exactly.
    """
    if mode not in _RHO_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    denom = cov.sigma2_tilde if mode == "by_chat0" else cov.sigma2_hat
    if not np.isfinite(denom) or denom <= 0.0:
        raise DegenerateCorrelationError(
            f"nonpositive denominator {denom!r} for mode {mode}"
        )
    rho = cov.c_hat / denom
    if mode == "by_chat0" and cov.t_grid[0] == 0.0:
        rho[0] = 1.0
    clamped = bool(np.any(rho > 1.0) or np.any(rho < -1.0))
    rho = np.clip(rho, -1.0, 1.0)
    return CorrelationCurve(
        t_grid=cov.t_grid,
        rho=rho,
        mode=mode,
        truncation_t=cov.truncation_t,
        clamped=clamped,
    )
