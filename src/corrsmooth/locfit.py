"""Multivariate local linear regression with pluggable distance metrics.

The smoother solves the (D+1) x (D+1) weighted normal equations at each
target point.  Kernel weights enter un-normalized: the estimator is
invariant to any positive rescaling of the weights, so the 1/h factor is
dropped to avoid overflow at tiny bandwidths.

One workspace per design (see _Workspace) holds the systems' frame, the
design's per-point moments [1, x, x x^T, y, x y] and the geometry the
kernels weight; the kernel is passed beside it, so one workspace serves
every kernel and bandwidth of a selection.  A system's weighted sums come
from one BLAS product of the dense (m, n) weights with the moments, and
each system A is solved once, for the smoother-row coefficients
z = A^-1 e1 (A is symmetric): the fit is z . rhs, and row i of the hat
matrix is w_ij (z0 + z1 . (x_j - x_i)).  Only the RSS traces of many
annulus kernels at once (_window_rss) take their sums from prefix sums
along sorted rows instead, with the same solve.

Singularity is decided by partial-pivoted elimination on the normal
matrix: a fit is singular when some pivot falls below 1e-12 relative to
the largest entry of that system.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

from .errors import SingularFitError

__all__ = [
    "EARTH_RADIUS_KM",
    "Dataset",
    "FitResult",
    "PairIndex",
    "fit_all",
    "fit_points",
    "hat_matrix",
    "rss",
    "pairwise_distances",
    "load_csv",
]

EARTH_RADIUS_KM = 6371.0088
_PIVOT_RTOL = 1e-12
_PREFIX_BYTES = 4 << 20  # per chunk of rows in _window_rss
_METRICS = ("euclidean", "haversine")


def _check_latitudes(pts: np.ndarray) -> None:
    """Raise ValueError unless every row's first coordinate lies in [-90, 90]."""
    bad = np.flatnonzero(np.abs(pts[:, 0]) > 90.0)
    if bad.size:
        row = int(bad[0])
        raise ValueError(f"latitude must lie in [-90, 90]; row {row} has {float(pts[row, 0])!r}")


@dataclass(frozen=True)
class Dataset:
    """Design points (n x D), responses (n,), and a distance metric.

    Haversine datasets interpret the two columns as (latitude, longitude)
    in degrees; all distances and bandwidths are then in kilometers.
    """

    points: np.ndarray
    responses: np.ndarray
    metric: str = "euclidean"

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        y = np.asarray(self.responses, dtype=float)
        if pts.ndim != 2:
            raise ValueError("points must be a 2-d array (n x D)")
        if y.ndim != 1 or y.shape[0] != pts.shape[0]:
            raise ValueError("responses must be a 1-d array aligned with points")
        metric = str(self.metric).lower()
        if metric not in _METRICS:
            raise ValueError(f"metric must be one of {_METRICS}, got {self.metric!r}")
        n, d = pts.shape
        if n < d + 2:
            raise ValueError(f"need at least D+2 = {d + 2} points, got {n}")
        if not np.all(np.isfinite(pts)) or not np.all(np.isfinite(y)):
            raise ValueError("points and responses must be finite")
        if metric == "haversine" and d != 2:
            raise ValueError("haversine metric requires D=2 (latitude, longitude)")
        if metric == "haversine":
            _check_latitudes(pts)
        pts = pts.copy(order="C")
        y = y.copy()
        pts.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "responses", y)
        object.__setattr__(self, "metric", metric)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @cached_property
    def pair_index(self) -> PairIndex:
        """The design's pairs in sorted-distance order, built on first use.

        It is the only array set that lives with a Dataset: points and metric
        are immutable, so it never goes stale, and the b candidates, the
        calibration and the covariance curve of every residual vector on the
        design read it.  The n x n matrices stay per selection (see
        _Workspace).
        """
        return PairIndex.from_distances(pairwise_distances(self), self.n)


@dataclass(frozen=True)
class PairIndex:
    """Every pair i < j of n points in ascending order of distance: pair k
    joins points i[k] and j[k] at distance dist[k].

    The order is a stable argsort of the condensed pdist vector, so tied
    distances keep pdist order.  i and j are int32, and all three arrays are
    read-only; the index takes 16 bytes per pair.
    """

    n: int
    dist: np.ndarray
    i: np.ndarray
    j: np.ndarray

    @classmethod
    def from_distances(cls, distances, n: int) -> PairIndex:
        """The index of a condensed n(n-1)/2 distance vector in pdist order."""
        d = np.asarray(distances, dtype=float)
        if d.shape != (n * (n - 1) // 2,):
            raise ValueError("distances must be the condensed n(n-1)/2 vector")
        order = np.argsort(d, kind="stable")
        # Row r of the condensed vector pairs r with r + 1, ..., n - 1.  i and
        # j are allocated before the pdist-order tables they are gathered
        # from, so the freed tables leave no resident hole below them, and
        # the sorted distances come last, which keeps the build's peak low.
        # order is in range, and mode="clip" spares take a buffered copy of out.
        k = np.arange(n, dtype=np.int32)
        i = np.empty(d.size, dtype=np.int32)
        j = np.empty(d.size, dtype=np.int32)
        np.take(np.repeat(k, n - 1 - k), order, out=i, mode="clip")
        np.take(np.concatenate([k[r + 1 :] for r in range(n)]), order, out=j, mode="clip")
        dist = d[order]
        for arr in (dist, i, j):
            arr.setflags(write=False)
        return cls(n=n, dist=dist, i=i, j=j)


@dataclass(frozen=True)
class FitResult:
    fitted: np.ndarray
    residuals: np.ndarray
    singular_count: int


def _haversine(lat1, lon1, lat2, lon2):
    """Great-circle distance in km between degree coordinates."""
    p1, p2 = np.radians(lat1), np.radians(lat2)
    dphi = p2 - p1
    dlam = np.radians(lon2) - np.radians(lon1)
    a = np.sin(dphi / 2.0) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def _metric_distances(data: Dataset, targets: np.ndarray) -> np.ndarray:
    """(m, n) matrix of metric distances from each target to each design point."""
    pts = data.points
    if data.metric == "euclidean":
        return cdist(targets, pts)
    return _haversine(
        targets[:, None, 0], targets[:, None, 1], pts[None, :, 0], pts[None, :, 1]
    )


def _component_displacements(data: Dataset, targets: np.ndarray) -> np.ndarray:
    """(D, m, n) displacements feeding product-kernel weights, one contiguous
    (m, n) array per coordinate.

    Euclidean: raw coordinate differences.  Haversine: north/east
    great-circle components in km (local equirectangular scaling), so
    product-kernel bandwidths stay in the same km units as radial ones.
    """
    pts = data.points
    diff = pts.T[:, None, :] - targets.T[:, :, None]
    if data.metric == "euclidean":
        return diff
    # In place, with the ufuncs in the order of north = R * radians(dlat)
    # and east = (R * cos(lat_mid)) * radians(dlon).
    scale = pts[None, :, 0] + targets[:, None, 0]
    scale /= 2.0
    np.radians(scale, out=scale)
    np.cos(scale, out=scale)
    scale *= EARTH_RADIUS_KM
    np.radians(diff, out=diff)
    diff[0] *= EARTH_RADIUS_KM
    diff[1] *= scale
    return diff


class _Workspace:
    """One design's frame, moments and kernel geometry, shared by any kernel.

    The one place that knows the frame of the local systems: design is the
    design points minus their mean, and targets the fit points less the same
    mean (targets is design when none are given).  Each row of moments holds
    [1, x, x x^T (D*D entries), y, x y] of one centered point, so weights @
    moments gives every weighted sum of the normal equations.  The kernels'
    geometry reads the raw coordinates, each array built on first use.  A
    workspace lives for one selection, scan or fit, so its arrays do not
    outlive it.
    """

    def __init__(self, data: Dataset, targets: np.ndarray | None = None):
        self.data = data
        center = data.points.mean(axis=0)
        x, y = data.points - center, data.responses
        self.design = x
        self.moments = np.column_stack([
            np.ones(data.n), x, np.einsum("jk,jl->jkl", x, x).reshape(data.n, -1),
            y, x * y[:, None],
        ])
        raw = data.points if targets is None else np.ascontiguousarray(targets, dtype=float)
        self._raw_targets = raw
        self.targets = x if targets is None else raw - center

    @cached_property
    def distances(self) -> np.ndarray:
        """(m, n) metric distances, read by the annulus kernel."""
        return _metric_distances(self.data, self._raw_targets)

    @cached_property
    def sorted_distances(self) -> np.ndarray:
        return np.sort(self.distances, axis=1)

    @cached_property
    def displacements(self) -> np.ndarray:
        """(D, m, n) coordinate displacements, read by the product kernel."""
        return _component_displacements(self.data, self._raw_targets)


def _solve_batched(a: np.ndarray):
    """z = A^-1 e1 for a batch of small symmetric systems A, by Gaussian
    elimination with partial pivoting.

    As A is symmetric, z is also the first row of A^-1: the coefficients of
    the system's smoother row.  Returns (z, singular_mask); singular systems
    yield NaN rows.
    """
    m, k, _ = a.shape
    scale = np.abs(a).reshape(m, -1).max(axis=1)
    singular = scale <= 0.0
    aug = np.concatenate([a, np.broadcast_to(np.eye(k)[:, :1], (m, k, 1))], axis=2)
    rows = np.arange(m)
    for j in range(k):
        piv = np.abs(aug[:, j:, j]).argmax(axis=1) + j
        swap_from = aug[rows, j].copy()
        aug[rows, j] = aug[rows, piv]
        aug[rows, piv] = swap_from
        pivots = aug[:, j, j]
        singular |= np.abs(pivots) < _PIVOT_RTOL * scale
        safe = np.where(np.abs(pivots) > 0.0, pivots, 1.0)
        if j + 1 < k:
            factors = aug[:, j + 1 :, j] / safe[:, None]
            aug[:, j + 1 :, j:] -= factors[:, :, None] * aug[:, j : j + 1, j:]
    z = np.zeros((m, k))
    for j in range(k - 1, -1, -1):
        pivots = aug[:, j, j]
        safe = np.where(np.abs(pivots) > 0.0, pivots, 1.0)
        acc = aug[:, j, k]
        if j + 1 < k:
            acc = acc - np.einsum("ml,ml->m", aug[:, j, j + 1 : k], z[:, j + 1 :])
        z[:, j] = acc / safe
    z[singular] = np.nan
    return z, singular


def _normal_systems(ws: _Workspace, kernel, h: float):
    """The kernel's weights at bandwidth h and the weighted normal equations
    (a, rhs) for every target at once, centered at the targets."""
    if not 0.0 < h < np.inf:
        raise ValueError(f"bandwidth must be positive and finite, got {h}")
    xt = ws.targets
    m, d = xt.shape[0], ws.data.dim
    weights = kernel.weights(kernel.geometry(ws), h)
    sums = weights @ ws.moments
    s0 = sums[:, 0]
    p = sums[:, 1 : 1 + d]
    s2 = sums[:, 1 + d : 1 + d + d * d].reshape(m, d, d)
    t0 = sums[:, 1 + d + d * d]
    t1 = sums[:, 2 + d + d * d :]

    a = np.empty((m, d + 1, d + 1))
    a[:, 0, 0] = s0
    a0k = p - s0[:, None] * xt
    a[:, 0, 1:] = a0k
    a[:, 1:, 0] = a0k
    s2 = (
        s2
        - xt[:, :, None] * p[:, None, :]
        - p[:, :, None] * xt[:, None, :]
        + s0[:, None, None] * xt[:, :, None] * xt[:, None, :]
    )
    # z = A^-1 e1 is the smoother row only if A is symmetric to the bit
    a[:, 1:, 1:] = np.triu(s2) + np.triu(s2, 1).transpose(0, 2, 1)
    rhs = np.empty((m, d + 1))
    rhs[:, 0] = t0
    rhs[:, 1:] = t1 - xt * t0[:, None]
    return weights, a, rhs


def _window_rss(ws: _Workspace, windows) -> list:
    """In-sample RSS at every window of every (edges, powers) pair in
    windows (see RadialAnnulusKernel.windows), one trace per pair; +inf
    marks a window where some local system is singular.

    Window w weights design point j at target i by sum_k powers[w, k] d^k
    where edges[w, 0] < d = d_ij <= edges[w, 1], and by 0 elsewhere.  One
    pass over the targets' rows serves every window: each row is sorted
    once, and prefix sums along it of d^k times the target-centered moments
    [1, u, upper(u u^T), y, u y], u = x_j - x_i, give a window's weighted
    sums as the difference of two prefix entries found by searchsorted, so
    no (n, n) weights are formed.  Rows go in chunks of about _PREFIX_BYTES
    of prefix sums.  The sums add the terms in another order than
    _normal_systems, so the traces agree with its RSS to rounding, not bit
    for bit.  ws must target the design points.
    """
    if not windows:
        return []
    edges, powers = (np.concatenate(part) for part in zip(*windows))
    x, y, d = ws.design, ws.data.responses, ws.data.dim
    n, w, p = ws.data.n, edges.shape[0], powers.shape[1]
    upper = np.triu_indices(d)
    cols = 2 + 2 * d + upper[0].size
    chunk = max(1, _PREFIX_BYTES // (8 * (n + 1) * p * cols))
    residuals = np.empty((n, w))
    singular = np.zeros(w, dtype=bool)
    for start in range(0, n, chunk):
        rows = np.arange(start, min(start + chunk, n))
        dist = ws.distances[rows]
        order = np.argsort(dist, axis=1, kind="stable")
        s = np.take_along_axis(dist, order, axis=1)[..., None]
        u, yj = x[order] - ws.targets[rows, None], y[order][..., None]
        prefix = np.zeros((rows.size, n + 1, p, cols))
        terms = prefix[:, 1:]
        np.concatenate(
            [np.ones_like(yj), u, u[..., upper[0]] * u[..., upper[1]], yj, u * yj],
            axis=2, out=terms[:, :, 0],
        )
        for k in range(1, p):
            np.multiply(terms[:, :, k - 1], s, out=terms[:, :, k])
        np.cumsum(terms, axis=1, out=terms)
        lo, hi = (
            np.array([np.searchsorted(row, e, "right") for row in s[..., 0]]) for e in edges.T
        )
        at = np.arange(rows.size)[:, None]
        sums = np.einsum("rwkc,wk->rwc", prefix[at, hi] - prefix[at, lo], powers)
        sums = sums.reshape(-1, cols)
        a = np.empty((sums.shape[0], d + 1, d + 1))
        a[:, 0, 0] = sums[:, 0]
        a[:, 0, 1:] = a[:, 1:, 0] = sums[:, 1 : 1 + d]
        a[:, 1 + upper[0], 1 + upper[1]] = sums[:, 1 + d : -1 - d]
        a[:, 1 + upper[1], 1 + upper[0]] = sums[:, 1 + d : -1 - d]
        z, bad = _solve_batched(a)
        fits = np.einsum("ik,ik->i", z, sums[:, -1 - d :]).reshape(-1, w)
        residuals[rows] = y[rows, None] - fits
        singular |= bad.reshape(-1, w).any(axis=0)
    rss = np.einsum("iw,iw->w", residuals, residuals) / n
    rss[singular] = np.inf
    return np.split(rss, np.cumsum([e.shape[0] for e, _ in windows])[:-1])


def _smoother_rows(ws: _Workspace, kernel, h: float):
    """(weights, z, fit, singular_mask) at every target from one solve per
    system: the smoother-row coefficients z = A^-1 e1 and the fit z . rhs."""
    weights, a, rhs = _normal_systems(ws, kernel, h)
    z, singular = _solve_batched(a)
    return weights, z, np.einsum("ik,ik->i", z, rhs), singular


def fit_points(data: Dataset, targets, h: float, kernel):
    """Estimates at arbitrary points; singular targets come back as NaN.

    targets must be a nonempty, finite (m, D) array, with latitudes in
    [-90, 90] on a haversine dataset.
    """
    targets = np.asarray(targets, dtype=float)
    if targets.ndim != 2 or targets.shape[0] == 0 or targets.shape[1] != data.dim:
        raise ValueError(
            f"targets must be a nonempty (m, {data.dim}) array, got shape {targets.shape}"
        )
    if not np.all(np.isfinite(targets)):
        raise ValueError("targets must be finite")
    if data.metric == "haversine":
        _check_latitudes(targets)
    _, _, est, singular = _smoother_rows(_Workspace(data, targets), kernel, h)
    return est, singular


def fit_all(data: Dataset, h: float, kernel) -> FitResult:
    """In-sample fit at every design point, recording singular points."""
    return _fit_and_hat_diagonal(_Workspace(data), kernel, h)[0]


def _fit_and_hat_diagonal(ws: _Workspace, kernel, h: float):
    """In-sample fit and the diagonal w_ii z0 of its hat matrix from one solve.

    ws must target the design points.  hat_matrix's c_ii has the linear
    term z1 . (x_i - x_i) = 0 exactly, so the diagonal's sum equals np.trace
    of the hat matrix bit for bit; rows of singular systems are NaN.
    """
    weights, z, est, singular = _smoother_rows(ws, kernel, h)
    fit = FitResult(
        fitted=est, residuals=ws.data.responses - est, singular_count=int(singular.sum())
    )
    return fit, np.diagonal(weights) * z[:, 0]


def hat_matrix(data: Dataset, h: float, kernel):
    """All smoother rows at once: (n, n) matrix C with fitted = C @ Y.

    Row i is w_ij (z0 + z1 . (x_j - x_i)), from the design's displacements.
    Returns (C, singular_mask); singular rows are NaN.
    """
    ws = _Workspace(data)
    weights, z, _, singular = _smoother_rows(ws, kernel, h)
    x = ws.design
    lin = sum(z[:, 1 + k, None] * (x[:, k] - x[:, k, None]) for k in range(data.dim))
    return weights * (z[:, :1] + lin), singular


def rss(fit: FitResult) -> float:
    """Mean squared in-sample residual, (1/n) sum residual_i^2."""
    if fit.singular_count:
        raise SingularFitError(
            f"fit contains {fit.singular_count} singular point(s); RSS undefined"
        )
    r = fit.residuals
    return float(r @ r / r.shape[0])


def pairwise_distances(data: Dataset) -> np.ndarray:
    """Condensed n(n-1)/2 vector of metric distances, pdist ordering.

    Haversine pairs are the upper triangle of the n x n matrix that the
    fits read, so both come from one routine.
    """
    if data.metric == "euclidean":
        return pdist(data.points)
    return squareform(_metric_distances(data, data.points), checks=False)


def load_csv(path, metric: str = "euclidean") -> Dataset:
    """Read a dataset from CSV with header columns x1..xD then y."""
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [c.strip() for c in header]
        if "y" not in header:
            raise ValueError(f"{path}: column y not found")
        y_idx = header.index("y")
        coord_idx = []
        for d in range(1, len(header) + 1):
            name = f"x{d}"
            if name not in header:
                break
            coord_idx.append(header.index(name))
        if not coord_idx:
            raise ValueError(f"{path}: no coordinate columns x1..xD found")
        for i, name in enumerate(header):
            if re.fullmatch(r"x\d+", name) and i not in coord_idx:
                raise ValueError(
                    f"{path}: stray coordinate column {name}; expected x1..xD, no gap or repeat"
                )
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                rows.append(
                    [float(row[i]) for i in coord_idx] + [float(row[y_idx])]
                )
            except (ValueError, IndexError):
                raise ValueError(f"{path}: malformed row at line {lineno}") from None
    arr = np.asarray(rows, dtype=float)
    if arr.size == 0:
        raise ValueError(f"{path}: no data rows")
    return Dataset(points=arr[:, :-1], responses=arr[:, -1], metric=metric)
