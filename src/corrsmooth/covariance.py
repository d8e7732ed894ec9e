"""Nonparametric error covariance and correlation estimation.

This module is the one home of the chain that follows the bandwidth:
error_covariance fits at h_o, estimates sigma^2 from the RSS of a fit at
the larger h_t, and hands the residuals to residual_covariance, which
calibrates b, estimates the covariance curve at the chosen b and divides
it into the correlation curve.  The CLI and the simulation trials call
these two functions and no step of the chain on its own.

The covariance at lag t is a kernel-weighted ratio over all ordered pairs
(i, j), including i = j; the diagonal mass is what anchors the estimate
at lag 0.  For t < b the smoothing window is truncated at lag 0, so the
symmetric kernel is replaced by the boundary kernel with q = t/b (q is
clamped to a tiny positive value at t = 0; the formula is continuous in
q and the lag-0 estimate is dominated by the i = j mass regardless).

Every estimate is a sum over the design's sorted pair index, taken by
_PairSums from one residual vector; calibration and the curve each build
one.  No lag is evaluated on its own: the boundary kernel is a
quadratic on each window, so one vector pass sums the pairs once per
segment between window edges and gives every lag of the pass from those
segment moments.  Calibration evaluates all its candidates in one pass
(each bisection midpoint sums only the segments it splits), the pilot
truncation a block of lags per pass up to its first stop, and the curve
all of its lags in one pass on the pilot's segments.

The smoothing bandwidth b is picked by variance calibration: the largest
candidate keeping the kernel-based variance estimate within delta_n of
the RSS-based one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .bandwidth import _validate_grid, variance_fit_bandwidth
from .errors import (
    DegenerateCorrelationError, EmptyWindowError, NoFeasibleBandwidthError, SingularFitError,
)
from .kernels import BoundaryKernel, ProductEpanechnikovKernel
from .locfit import Dataset, FitResult, PairIndex, fit_all, rss

__all__ = [
    "DELTA_N_DEFAULT",
    "DEFAULT_N_STAR",
    "CovarianceEstimate",
    "CalibrationTrace",
    "CorrelationCurve",
    "ErrorCovariance",
    "sigma2_rss",
    "default_b_candidates",
    "calibrate_b",
    "covariance_curve",
    "estimate_correlation",
    "residual_covariance",
    "error_covariance",
]

DELTA_N_DEFAULT = 2e-4
DEFAULT_N_STAR = 200
DEFAULT_RHO_MODE = "by_chat0"
_RHO_MODES = (DEFAULT_RHO_MODE, "by_sigma2_hat")
DEFAULT_B_CANDIDATES = 25
_PILOT_POINTS = 256
_PILOT_BLOCK = 32  # lags per pilot pass
_PILOT_FLOOR = 0.02  # pilot truncation when |C| falls below this fraction of C(0)
_SANITY_FACTOR = 1.5


class _PairSums:
    """A pair index's sorted distances with aligned residual products, and
    the kernel-weighted ratio at any set of lags from them.

    estimates() evaluates an array of lags in one vector pass.  A lag's
    window is the open distance interval (t - b, t + b), whose ends carry
    zero weight.  The pass cuts the sorted pairs at the ends of all its
    windows, and at the kernel's sign change for lags below b / 3, into
    segments.  Each segment is summed once, over its products and over 1,
    into the moments sum e^k x (k <= 2) about its first distance a, with
    e = d - a.  On a segment the kernel is a quadratic in e / b whose
    coefficients are BoundaryKernel's shifted to tau = (t - a) / b; inside
    a window |tau| < 1 and e < 2b, so no sum is taken about a far anchor
    and no large terms cancel.  A window adds up its segments' terms.

    The segments' sums are kept, so a later pass sums only the segments
    that its new cuts create: a bisection midpoint of calibration sums the
    segments it splits.  The products r[i] * r[j] are filled in distance
    order up to the far end of the widest window so far, so calibration
    and truncated curves never multiply a pair beyond it.
    """

    def __init__(self, residuals, index: PairIndex):
        residuals = np.array(residuals, dtype=float)  # a copy: products are filled later
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
        # Segment k holds pairs [edges[k], edges[k + 1]); its row of sums is
        # (x, e x, e^2 x, 1, e, e^2) summed over the segment, with x the
        # products, or NaN until a window needs it.
        self._edges = np.empty(0, dtype=np.intp)
        self._sums = np.empty((0, 6))

    def products(self, hi: int) -> np.ndarray:
        """Residual products of the hi nearest pairs."""
        if hi > self.filled:
            lo, self.filled = self.filled, hi
            head = self._prod[lo:hi]
            # the indices are in range, so mode="clip" only skips the
            # checked take, which is three times slower on int32 indices
            np.take(self._residuals, self._index.i[lo:hi], out=head, mode="clip")
            head *= np.take(self._residuals, self._index.j[lo:hi], mode="clip")
        return self._prod[:hi]

    def estimate(self, t: float, b: float) -> float:
        """The estimate at one lag; EmptyWindowError if its window is empty."""
        value = float(self.estimates(t, b))
        if np.isnan(value):
            raise EmptyWindowError(t, b)
        return value

    def estimates(self, t, b) -> np.ndarray:
        """Weighted ratios at lags t with bandwidths b, broadcast together;
        boundary kernel for t < b, and NaN where a window is empty."""
        t, b = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(b, dtype=float))
        if not (np.isfinite(t).all() and np.isfinite(b).all()):
            raise ValueError(f"lag t and bandwidth b must be finite, got t={t}, b={b}")
        if not (b > 0.0).all():
            raise ValueError(f"bandwidth b must be positive, got {b}")
        if not (t >= 0.0).all():
            raise ValueError(f"lag t must be nonnegative, got {t}")
        shape = t.shape
        t, b = t.ravel(), b.ravel()
        kernel = BoundaryKernel(q=t / b)  # q >= 1 collapses to Epanechnikov
        lo = np.searchsorted(self.dist, t - b, side="right")
        hi = np.searchsorted(self.dist, t + b, side="left")
        cut = np.clip(np.searchsorted(self.dist, t - kernel.sign_change * b), lo, hi)
        edges = self._summed_segments(lo, cut, hi)
        first, split, last = (np.searchsorted(edges, p) for p in (lo, cut, hi))

        # Row l holds lag l's segments first[l] + j; the kernel at
        # u = tau - e / b is c0 + c1 e + c2 e^2 on each.
        seg = first[:, None] + np.arange(int((last - first).max(initial=0)))
        inside = seg < last[:, None]
        positive = seg < split[:, None]
        seg = np.minimum(seg, edges.size - 2)
        k0, k1, k2 = (k[:, None] for k in kernel.coefficients)
        width = b[:, None]
        tau = (t[:, None] - self.dist[edges[seg]]) / width
        c0 = (k2 * tau + k1) * tau + k0
        c1 = -(2.0 * k2 * tau + k1) / width
        c2 = k2 / (width * width)
        sums = self._sums[seg]
        prod = c0 * sums[..., 0] + c1 * sums[..., 1] + c2 * sums[..., 2]
        ones = c0 * sums[..., 3] + c1 * sums[..., 4] + c2 * sums[..., 5]
        num = np.where(inside, prod, 0.0).sum(axis=1)
        pos = np.where(positive, ones, 0.0).sum(axis=1)
        neg = np.where(inside & ~positive, ones, 0.0).sum(axis=1)

        # Diagonal pairs sit at distance 0 with argument t/b; their weight
        # is 0 once t >= b.
        w_diag = kernel.diagonal
        num = 2.0 * num + w_diag * self.diag
        den = 2.0 * (pos + neg) + w_diag * self.n
        mass = 2.0 * (np.abs(pos) + np.abs(neg)) + w_diag * self.n  # w_diag >= 0
        empty = (mass == 0.0) | (np.abs(den) < 1e-10 * mass)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(empty, np.nan, num / den).reshape(shape)

    def _summed_segments(self, lo, cut, hi) -> np.ndarray:
        """The segment edges after cutting at lo, cut and hi, with every
        segment inside some window [lo, hi) summed; returns the edges."""
        old = self._edges
        edges = np.union1d(old, np.concatenate([lo, cut, hi]))
        sums = np.full((max(edges.size - 1, 0), 6), np.nan)
        # the old edges are among the new, so a segment between two old
        # edges is an old segment and keeps its sums
        was_edge = np.isin(edges, old)
        kept = was_edge[:-1] & was_edge[1:]
        sums[kept] = self._sums[np.searchsorted(old, edges[:-1][kept])]
        cover = np.zeros(edges.size, dtype=np.intp)
        np.add.at(cover, np.searchsorted(edges, lo), 1)
        np.add.at(cover, np.searchsorted(edges, hi), -1)
        todo = np.flatnonzero((np.cumsum(cover[:-1]) > 0) & np.isnan(sums[:, 0]))
        if todo.size:
            self.products(int(edges[todo[-1] + 1]))
            runs = np.split(todo, np.flatnonzero(np.diff(todo) > 1) + 1)
            for run in runs:  # consecutive segments, summed in one reduceat each
                sums[run[0] : run[-1] + 1] = self._segment_sums(edges[run[0] : run[-1] + 2])
        self._edges, self._sums = edges, sums
        return edges

    def _segment_sums(self, edges) -> np.ndarray:
        """Rows (x, e x, e^2 x, 1, e, e^2) summed over each segment between
        consecutive edges, with e the distance minus the segment's first."""
        lo, hi = int(edges[0]), int(edges[-1])
        x = self._prod[lo:hi]
        d = self.dist[lo:hi]
        starts = edges[:-1] - lo
        counts = np.diff(edges)
        e = np.repeat(d[starts], counts)
        np.subtract(d, e, out=e)
        ex = e * x
        out = np.empty((counts.size, 6))
        out[:, 0] = np.add.reduceat(x, starts)
        out[:, 1] = np.add.reduceat(ex, starts)
        ex *= e
        out[:, 2] = np.add.reduceat(ex, starts)
        out[:, 3] = counts
        out[:, 4] = np.add.reduceat(e, starts)
        e *= e
        out[:, 5] = np.add.reduceat(e, starts)
        return out


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
    undersmoothing) up to half the median pair distance; with no positive
    distance, NoFeasibleBandwidthError, as from default_grid."""
    d = data.pair_index.dist  # ascending
    first_positive = int(np.searchsorted(d, 0.0, side="right"))
    if first_positive == d.size:
        raise NoFeasibleBandwidthError("all design points coincide; no b candidates")
    lo = float(d[first_positive])
    mid = d.size // 2  # np.median of the sorted values, with its bits
    hi = float(d[mid] if d.size % 2 else (d[mid - 1] + d[mid]) / 2.0) / 2.0
    if hi <= lo:
        hi = 2.0 * lo
    return np.geomspace(lo, hi, size)


def calibrate_b(
    data: Dataset,
    residuals,
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

    pairs = _PairSums(residuals, data.pair_index)
    bs = [float(b) for b in b_arr]
    tildes = pairs.estimates(0.0, b_arr)  # the nested windows [0, b) in one pass
    if np.isnan(tildes).any():
        raise EmptyWindowError(0.0, bs[int(np.argmax(np.isnan(tildes)))])
    tildes = tildes.tolist()

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


def _pilot_truncation(pairs: _PairSums, b: float) -> float:
    """Smallest lag where a pilot curve changes sign or decays below the floor.

    The pilot lags are evaluated _PILOT_BLOCK at a time, with lag 0, which
    sets the floor, in the first pass; no pass runs past the first stop.
    Lags with empty windows are skipped.
    """
    d_max = float(pairs.dist[-1]) if pairs.dist.size else 0.0
    upper = d_max / 2.0
    if upper <= 0.0:
        return 0.0
    ts = np.concatenate([[0.0], np.linspace(upper / _PILOT_POINTS, upper, _PILOT_POINTS)])
    floor = np.nan
    for start in range(0, ts.size, _PILOT_BLOCK):
        values = pairs.estimates(ts[start : start + _PILOT_BLOCK], b)
        if start == 0:
            floor, values[0] = _PILOT_FLOOR * abs(values[0]), np.nan
        stops = np.flatnonzero((values <= 0.0) | (np.abs(values) < floor))
        if stops.size:
            return float(ts[start + stops[0]])
    return upper


def covariance_curve(
    data: Dataset,
    residuals,
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
    b = float(b)
    pairs = _PairSums(residuals, data.pair_index)
    if truncation_t is None:
        truncation_t = _pilot_truncation(pairs, b)
    truncation_t = float(truncation_t)
    if not 0.0 <= truncation_t < np.inf:
        raise ValueError(f"truncation_t must be finite and nonnegative, got {truncation_t}")

    ts = np.concatenate([[0.0], np.linspace(truncation_t / n_star, truncation_t, n_star)])
    if truncation_t == 0.0:  # -0.0 too, which the estimate records as 0.0
        ts, truncation_t = ts[:1], 0.0
    values = np.zeros(ts.shape)  # the clamp at T: the curve is 0 from there on
    lags = ts[:-1] if ts.size > 1 else ts  # every lag but T, in one pass
    values[: lags.size] = pairs.estimates(lags, b)
    if np.isnan(values[0]):
        raise EmptyWindowError(0.0, b)
    tilde = float(values[0])
    empty = np.isnan(values)
    dropped = ts[empty]
    if dropped.size:
        if dropped.size == ts.size - 2:
            raise EmptyWindowError(float(dropped[0]), b)
        warnings.warn(
            f"{dropped.size} lag grid point(s) had empty windows and were "
            "dropped from interpolation",
            stacklevel=2,
        )
    ts = ts[~empty]
    values = values[~empty]
    flags = np.abs(values) > _SANITY_FACTOR * abs(tilde)
    if flags.any():
        warnings.warn(
            f"covariance estimate exceeds {_SANITY_FACTOR:g} x C(0) somewhere on the grid",
            stacklevel=2,
        )
    return CovarianceEstimate(
        t_grid=ts,
        c_hat=values,
        b=b,
        sigma2_hat=float(sigma2_hat),
        sigma2_tilde=tilde,
        truncation_t=truncation_t,
        dropped=dropped,
        flags=flags,
    )


def estimate_correlation(
    cov: CovarianceEstimate, mode: str = DEFAULT_RHO_MODE
) -> CorrelationCurve:
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


@dataclass(frozen=True)
class ErrorCovariance:
    """The chain's results: the calibration of b, the covariance curve at the
    chosen b and its correlation curve; the final fit and the variance-fit
    bandwidth h_t when the chain started from a bandwidth."""

    calibration: CalibrationTrace
    curve: CovarianceEstimate
    rho: CorrelationCurve
    fit: FitResult | None = None
    h_t: float = np.nan


def residual_covariance(
    data: Dataset,
    residuals,
    sigma2_hat: float,
    *,
    b_candidates=None,
    delta_n: float = DELTA_N_DEFAULT,
    n_star: int = DEFAULT_N_STAR,
    truncation_t: float | None = None,
    rho_mode: str = DEFAULT_RHO_MODE,
) -> ErrorCovariance:
    """Calibrate b against sigma2_hat, then estimate the covariance curve at
    the chosen b and its correlation curve, from one residual vector."""
    cal = calibrate_b(data, residuals, sigma2_hat, b_candidates, delta_n=delta_n)
    curve = covariance_curve(
        data, residuals, cal.chosen_b, n_star=n_star,
        truncation_t=truncation_t, sigma2_hat=sigma2_hat,
    )
    return ErrorCovariance(cal, curve, estimate_correlation(curve, rho_mode))


def error_covariance(data: Dataset, h_o: float, **options) -> ErrorCovariance:
    """The chain from a bandwidth: the product Epanechnikov fit at h_o,
    sigma2_hat from the RSS of the fit at h_t = variance_fit_bandwidth(h_o),
    and residual_covariance of the fit's residuals with the keyword options.

    A singular final fit raises SingularFitError before the variance fit.
    """
    ko = ProductEpanechnikovKernel(data.dim)
    fit = fit_all(data, h_o, ko)
    if fit.singular_count:
        raise SingularFitError(f"final fit singular at {fit.singular_count} point(s)")
    h_t = variance_fit_bandwidth(h_o, data.n, data.dim)
    chain = residual_covariance(data, fit.residuals, sigma2_rss(data, h_t, ko), **options)
    return replace(chain, fit=fit, h_t=h_t)
