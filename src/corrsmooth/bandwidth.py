"""Bandwidth selection: RSS minimization with the annulus kernel, factor
conversion to the Epanechnikov kernel, the elbow diagnostic for the inner
radius, a GCV baseline, and the closed-form oracle bandwidth for known
correlation models.

The candidate grid is data-driven (the theory leaves its endpoints as
unspecified constants): it spans the smallest bandwidth at which nearly
all points have enough positive-weight neighbors up to the bandwidth at
which the kernel's reach covers the point cloud.

One private scan does every single-kernel grid criterion's per-candidate
work on the dense weights: one solve per bandwidth gives the in-sample fit,
its RSS and its GCV score, which select_h_z, gcv_score, gcv_select and
gcv_scan (the simulation's GCV baseline and minEpan scan) read.  The elbow
scan selects many annulus kernels on one design, so it takes all their RSS
traces from one pass of per-row prefix sums (locfit._window_rss) and picks
each as select_h_z does.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import CorrsmoothError, NoElbowError, NoFeasibleBandwidthError
from .kernels import (
    DEFAULT_C2_OFFSET,
    MIN_AMISE,
    ProductEpanechnikovKernel,
    RadialAnnulusKernel,
    build_annulus_kernel,
)
from .locfit import (
    _PREFIX_BYTES, Dataset, _counts_below, _fit_and_hat_diagonal, _window_rss, _Workspace, rss,
)
from .locfit import fit_all  # noqa: F401  (perfbench's tracer test checks this binding)

__all__ = [
    "BandwidthSelection",
    "ElbowDiagnostic",
    "default_grid",
    "select_h_z",
    "select_h_o",
    "factor_ratio",
    "elbow_scan",
    "gcv_scan",
    "gcv_select",
    "gcv_score",
    "oracle_bandwidth",
    "variance_fit_bandwidth",
]

DEFAULT_GRID_SIZE = 30
DEFAULT_STABILITY_TOL = 0.10
_SCAN_CANDIDATES = 256
_NEIGHBOR_COVERAGE = 0.99


@dataclass
class BandwidthSelection:
    h_z: float
    grid: np.ndarray
    rss_trace: np.ndarray  # +inf marks infeasible candidates
    h_o: float | None = None
    factor_ratio: float | None = None


@dataclass
class ElbowDiagnostic:
    c1_list: np.ndarray
    cbar_list: np.ndarray  # NaN marks per-c1 failures
    h_z_list: np.ndarray
    feasible: np.ndarray
    chosen_c1: float
    chosen_index: int


def default_grid(
    data: Dataset, kernel, size: int = DEFAULT_GRID_SIZE, workspace: _Workspace | None = None
) -> np.ndarray:
    """Log-spaced candidate bandwidths over the data-driven feasible range.

    The lower end is the smallest of 256 log-spaced scan candidates at which
    >= 99% of the points have at least 2(D+1) neighbors with positive kernel
    weight, that is at distance d with lo*h < d < hi*h for the kernel's
    support (lo, hi) in units of h.  The upper end depends on the kernel:
    diam/(2*c1) for the annulus kernel, where its inner radius spans half
    the cloud's metric diameter, and the full Chebyshev diameter for the
    product kernel, where its support spans the whole cloud.

    This is _default_grids for one kernel, raising the
    NoFeasibleBandwidthError that says why a grid cannot be had.  A
    selection or scan passes its workspace of data, so the geometry the
    grid scans also serves its fits.
    """
    (grid,) = _default_grids(workspace or _Workspace(data), [kernel], size)
    if isinstance(grid, NoFeasibleBandwidthError):
        raise grid
    return grid


def _default_grids(ws: _Workspace, kernels, size: int = DEFAULT_GRID_SIZE) -> list:
    """Per kernel, default_grid's grid on ws's design, or the
    NoFeasibleBandwidthError that says why it has none.

    The kernels' reach must give the same sorted rows (as every annulus
    kernel's does: its workspace's sorted distances).  A point's neighbor
    count at a scan candidate is the number of its row's entries below
    hi*h less those at most lo*h, and one locfit._counts_below per chunk of
    rows gives them for every candidate of every kernel at once.
    """
    reaches = [kernel.reach(ws) for kernel in kernels]
    rows = reaches[0][0]
    n = rows.shape[0]
    min_neighbors = 2 * (ws.data.dim + 1)
    first_positive = np.count_nonzero(rows <= 0.0, axis=1)
    has_positive = first_positive < rows.shape[1]
    if not has_positive.any():
        return [NoFeasibleBandwidthError("all design points coincide") for _ in kernels]
    diam = float(rows[:, -1].max())
    nearest = float(rows[has_positive, first_positive[has_positive]].min())
    grids, scans = [None] * len(kernels), {}
    for at, (_, lo, hi) in enumerate(reaches):
        h_max = diam / (2.0 * lo) if lo > 0.0 else diam
        h_lo_scan = nearest / hi
        if h_lo_scan >= h_max:
            grids[at] = NoFeasibleBandwidthError(
                f"degenerate bandwidth range [{h_lo_scan:.3g}, {h_max:.3g}]"
            )
        else:
            scans[at] = (h_max, np.geomspace(h_lo_scan, h_max, _SCAN_CANDIDATES), lo, hi)
    if not scans:
        return grids
    # per scan candidate h: the entries below hi*h, then those at most lo*h
    thresholds = np.concatenate([
        part for _, candidates, lo, hi in scans.values()
        for part in (hi * candidates, np.nextafter(lo * candidates, np.inf))
    ])
    covered = np.zeros((len(scans), _SCAN_CANDIDATES), dtype=np.intp)
    chunk = max(1, _PREFIX_BYTES // (8 * (rows.shape[1] + 2 * thresholds.size)))
    for start in range(0, n, chunk):
        counts = _counts_below(rows[start : start + chunk], thresholds)
        pairs = counts.reshape(-1, len(scans), 2, _SCAN_CANDIDATES)
        covered += (pairs[:, :, 0] - pairs[:, :, 1] >= min_neighbors).sum(axis=0)
    for (at, (h_max, candidates, _, _)), count in zip(scans.items(), covered):
        ok = np.flatnonzero(count / n >= _NEIGHBOR_COVERAGE)
        h_min = float(candidates[ok[0]]) if ok.size else h_max
        grids[at] = np.geomspace(h_min, h_max, size) if h_min < h_max else (
            NoFeasibleBandwidthError(
                f"no bandwidth gives {min_neighbors} positive-weight neighbors to "
                f"{_NEIGHBOR_COVERAGE:.0%} of the {n} points; the design may be too sparse"
            )
        )
    return grids


def _validate_grid(grid) -> np.ndarray:
    """Candidates (bandwidths, b or c1 values) as a float array; a ValueError
    quoting them unless they are a nonempty 1-d list of finite, positive,
    strictly increasing values.  Every candidate list is checked here."""
    grid = np.asarray(grid, dtype=float)
    ok = grid.ndim == 1 and grid.size > 0 and np.all(np.isfinite(grid) & (grid > 0.0))
    if not ok or np.any(np.diff(grid) <= 0.0):
        raise ValueError(
            f"candidates {grid.tolist()} are not a nonempty list of finite, positive, "
            "strictly increasing values"
        )
    return grid


def _pick(trace) -> int:
    """Index of a trace's least entry, the first on ties; +inf marks an
    infeasible candidate, and NoFeasibleBandwidthError says none is finite."""
    if not np.any(np.isfinite(trace)):
        raise NoFeasibleBandwidthError(
            "every candidate bandwidth was infeasible; raise the upper grid bound"
        )
    return int(np.argmin(trace))


def _pick_h_z(grid, trace) -> float:
    """The grid bandwidth at the RSS trace's pick (_pick), with a warning to
    the selection's caller when it sits on the grid boundary."""
    best = _pick(trace)
    if best in (0, grid.size - 1):
        warnings.warn(
            f"selected bandwidth {grid[best]:.6g} sits on the grid boundary; "
            "consider widening the grid",
            stacklevel=3,
        )
    return float(grid[best])


def _scan(ws: _Workspace, kernel, grid):
    """(in-sample fit, RSS, GCV score) per grid bandwidth from one solve each;
    GCV is RSS/(1 - tr(H)/n)^2 with tr(H) the sum of the solve's hat diagonal.
    Both scores are +inf where the fit is singular, GCV also where tr(H) >= n."""
    for h in grid:
        fit, hat_diagonal = _fit_and_hat_diagonal(ws, kernel, float(h))
        if fit.singular_count:
            yield fit, np.inf, np.inf
            continue
        score = rss(fit)
        denom = 1.0 - float(hat_diagonal.sum()) / ws.data.n
        yield fit, score, score / denom**2 if denom > 0.0 else np.inf


def select_h_z(
    data: Dataset, kz: RadialAnnulusKernel, grid, workspace: _Workspace | None = None
) -> BandwidthSelection:
    """Pick the grid bandwidth minimizing in-sample RSS under the annulus kernel.

    Infeasible candidates (any singular local fit) carry an +inf sentinel;
    ties break toward the smaller bandwidth.  Every candidate's fit reads
    one workspace of data: the given one, or a new one.
    """
    grid = _validate_grid(grid)
    trace = np.array([score for _, score, _ in _scan(workspace or _Workspace(data), kz, grid)])
    return BandwidthSelection(h_z=_pick_h_z(grid, trace), grid=grid, rss_trace=trace)


def factor_ratio(kz, ko) -> float:
    """Moment-ratio constant converting the RSS-optimal bandwidth of one
    kernel into the MISE-optimal bandwidth of another of the same dimension."""
    if kz.dim != ko.dim:
        raise ValueError(f"kernel dimensions differ: {kz.dim} and {ko.dim}")
    mz = kz.moments()
    mo = ko.moments()
    ratio = (mo.muK2 * mz.mu2**2) / (mo.mu2**2 * mz.muK2)
    return float(ratio ** (1.0 / (kz.dim + 4)))


def select_h_o(
    data: Dataset, kz: RadialAnnulusKernel, grid=None, grid_size: int = DEFAULT_GRID_SIZE
) -> BandwidthSelection:
    """select_h_z on grid (default_grid's of grid_size if None), converted by the factor
    method to the product Epanechnikov kernel ko: h_o = h_z * factor_ratio(kz, ko).

    One workspace serves the grid and the selection, so the distances are
    built once.  It is dropped on return, so its n x n arrays do not outlive
    the selection into later fits.
    """
    ws = _Workspace(data)
    if grid is None:
        grid = default_grid(data, kz, size=grid_size, workspace=ws)
    sel = select_h_z(data, kz, grid, workspace=ws)
    ratio = factor_ratio(kz, ProductEpanechnikovKernel(kz.dim))
    return replace(sel, h_o=sel.h_z * ratio, factor_ratio=ratio)


def elbow_scan(
    data: Dataset,
    c1_list,
    objective: str = MIN_AMISE,
    c2_offset: float = DEFAULT_C2_OFFSET,
    stability_tol: float = DEFAULT_STABILITY_TOL,
    grid_size: int = DEFAULT_GRID_SIZE,
) -> ElbowDiagnostic:
    """Scan inner radii and pick the first c1 where the ratio C-bar settles.

    Per candidate: build the annulus kernel (c2 = c1 + offset) and its
    default grid, pick its RSS bandwidth h as select_h_z does, with the same
    grid-boundary warning, and record C-bar = (mu(K^2)/mu2^2)^(1/(D+4)) / h.
    The chosen c1 is the first with two consecutive relative changes below
    stability_tol.  The c1 list is checked as every candidate list is
    (_validate_grid); a candidate whose kernel, grid or pick fails
    numerically (CorrsmoothError) becomes a gap, and a bad argument raises.
    One workspace serves the whole scan: one count over its sorted
    distances gives every grid (_default_grids), and one pass over its rows
    gives every candidate's RSS trace without the dense weights
    (locfit._window_rss), agreeing with select_h_z's trace to rounding.
    """
    c1_arr = _validate_grid(c1_list)
    if c1_arr.size < 3:
        raise ValueError("need >= 3 candidates for stability detection")
    dim = data.dim

    cbar = np.full(c1_arr.shape, np.nan)
    h_zs = np.full(c1_arr.shape, np.nan)
    ws = _Workspace(data)
    built = []
    for idx, c1 in enumerate(c1_arr):
        try:
            built.append((idx, build_annulus_kernel(c1, c1 + c2_offset, dim, objective)))
        except CorrsmoothError:
            continue
    grids = _default_grids(ws, [kz for _, kz in built], grid_size) if built else []
    candidates = [
        (idx, kz, _validate_grid(grid)) for (idx, kz), grid in zip(built, grids)
        if not isinstance(grid, NoFeasibleBandwidthError)
    ]
    traces = _window_rss(ws, [kz.windows(grid) for _, kz, grid in candidates])
    for (idx, kz, grid), trace in zip(candidates, traces):
        try:
            h_zs[idx] = _pick_h_z(grid, trace)
        except CorrsmoothError:
            continue
        m = kz.moments()
        cbar[idx] = (m.muK2 / m.mu2**2) ** (1.0 / (dim + 4)) / h_zs[idx]

    feasible = np.isfinite(cbar)
    if not feasible.any():
        raise NoElbowError("every c1 candidate failed; no elbow trace available")
    live = np.flatnonzero(feasible)
    if live.size < 3:
        raise NoElbowError(
            f"only {live.size} feasible c1 candidate(s); need >= 3 for stability"
        )
    vals = cbar[live]
    rel = np.abs(np.diff(vals)) / np.abs(vals[:-1])
    chosen = None
    for j in range(1, rel.size):
        if rel[j - 1] < stability_tol and rel[j] < stability_tol:
            chosen = int(live[j])
            break
    if chosen is None:
        raise NoElbowError(
            f"no elbow found: C-bar never stabilized below {stability_tol:.0%} "
            "for two consecutive steps"
        )
    return ElbowDiagnostic(
        c1_list=c1_arr,
        cbar_list=cbar,
        h_z_list=h_zs,
        feasible=feasible,
        chosen_c1=float(c1_arr[chosen]),
        chosen_index=chosen,
    )


def gcv_score(data: Dataset, ko, h: float) -> float:
    """GCV criterion RSS/(1 - tr(H)/n)^2 at one bandwidth; +inf if infeasible."""
    return next(_scan(_Workspace(data), ko, [h]))[2]


def gcv_select(data: Dataset, ko, grid) -> float:
    """Generalized cross-validation baseline: minimize the GCV score on a grid.

    One workspace serves the whole grid.  This selector ignores error
    correlation by design and serves as the naive reference the annulus
    pipeline is compared against.
    """
    grid = _validate_grid(grid)
    return float(grid[_pick([gcv for _, _, gcv in _scan(_Workspace(data), ko, grid)])])


def gcv_scan(data: Dataset) -> tuple[np.ndarray, tuple, np.ndarray]:
    """(grid, fits, GCV scores) over the product Epanechnikov kernel's default
    grid, all from one workspace, so the geometry is built once."""
    ko, ws = ProductEpanechnikovKernel(data.dim), _Workspace(data)
    grid = default_grid(data, ko, workspace=ws)
    fits, _, scores = zip(*_scan(ws, ko, grid))
    return grid, fits, np.array(scores)


def variance_fit_bandwidth(h_o: float, n: int, dim: int) -> float:
    """Bandwidth for the RSS variance estimator: h_o * n^(-1/(D+8)) / n^(-1/(D+4))."""
    return float(h_o) * n ** (1.0 / (dim + 4) - 1.0 / (dim + 8))


def _laplacian_integral(mu, dim: int, grid_per_axis: int, eps: float = 1e-4) -> float:
    """int_{[0,1]^D} sum_d d2 mu / dx_d^2 dx by midpoint rule + central differences."""
    axes = [np.linspace(0.5 / grid_per_axis, 1.0 - 0.5 / grid_per_axis, grid_per_axis)] * dim
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    total = np.zeros(mesh.shape[0])
    base = 2.0 * mu(mesh)
    for d in range(dim):
        plus = mesh.copy()
        plus[:, d] += eps
        minus = mesh.copy()
        minus[:, d] -= eps
        total += (mu(plus) - base + mu(minus)) / eps**2
    return float(total.mean())


def oracle_bandwidth(model, mu, ko, n: int) -> float:
    """Closed-form bandwidth minimizing the leading MISE term for a known model.

    Assumes the uniform design density on [0, 1]^D.  Valid for alpha in
    (0, 1]; the alpha = 1 branch adds the domain volume (1) to the
    correlation integral, which model.correlation_integral() gives (see
    simulate.CorrelationModel).  mu must be the known regression function
    (callable on (m, D) arrays).
    """
    alpha = model.alpha
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if model.sigma2 <= 0.0:
        raise ValueError("degenerate noise: sigma2 must be positive for the oracle")
    dim = model.dim
    if ko.dim != dim:
        raise ValueError(f"kernel dimension {ko.dim} differs from the model's {dim}")
    grid_per_axis = 201 if dim <= 2 else 61
    c_rho = model.correlation_integral()
    delta_f = _laplacian_integral(mu, dim, grid_per_axis)
    if delta_f == 0.0:
        raise CorrsmoothError("curvature integral is zero; oracle bandwidth diverges")
    mo = ko.moments()
    noise = model.sigma2 * (c_rho + 1.0) if alpha == 1.0 else model.sigma2 * c_rho
    const = (4.0 * noise / delta_f**2) * (mo.muK2 / mo.mu2**2)
    return float(const ** (1.0 / (dim + 4)) * n ** (-alpha / (dim + 4)))
