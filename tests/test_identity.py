"""Bit-for-bit identity of the fitting paths with their reference forms.

The references below are the formulas the fits used before they shared
one workspace and one solve per candidate: the np.where/prod kernel value,
the annulus profile on every entry, GCV from fit_all plus the n x n hat
matrix, the minEpan scan as a fit_all loop, and the bandwidth grid's floor
found by one n x n neighbor mask per scan candidate.  sse_cor is held to
its form from before it evaluated the true correlation only below a cut,
and haversine pairs to their gather over triu_indices, from before they
were read off the n x n distance matrix.  Every such comparison is exact
(== or equal bytes), not approximate.

There are two exceptions.  The covariance layer's pair sums now come from
one vector pass of segment moments for all lags, which rounds otherwise
than one kernel-weighted sum per lag with every residual product computed
up front.  They are held to that per-lag reference within 1e-12 of |C(0)|,
with the same empty windows, chosen b, truncation lag, dropped lags and
flags, and both to an 80-bit oracle of direct window sums.

The other is the weighted sums of the normal equations.  They now
come from one product of the weights with the design's moments, which adds
the terms in another order than the five separate dense sums of the
reference; both are taken in the workspace's centered frame.  The systems
are held to that reference within a stated bound on rounding, the fits
solved from them within what the systems' measured differences can move a
solution, and the hat coefficients within a stated tolerance; the weights
themselves stay byte-equal.  An 80-bit oracle, with each system built at
its own target, holds the fits to their conditioning and the singular
masks to equality.

The elbow scan's RSS traces come from one pass of per-row prefix sums for
all its kernels and bandwidths, not from the dense weights.  Its windows
are held to the dense support by ==, its traces to the 80-bit oracle within
what the oracle's bound on each fit can move an RSS, its feasibility flags
to the dense scan's, and its picks to the dense selections' by ==.
"""

import functools
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corrsmooth
import corrsmooth.bandwidth as bandwidth_mod
import corrsmooth.covariance as covariance_mod
import corrsmooth.simulate as simulate_mod

from corrsmooth.bandwidth import (
    _scan,
    default_grid,
    elbow_scan,
    gcv_scan,
    gcv_score,
    gcv_select,
    select_h_o,
)
from corrsmooth.covariance import (
    _PILOT_POINTS,
    CorrelationCurve,
    DELTA_N_DEFAULT,
    _PairSums,
    calibrate_b,
    covariance_curve,
    default_b_candidates,
)
from corrsmooth.errors import EmptyWindowError
from corrsmooth.kernels import (
    ProductEpanechnikovKernel,
    RadialAnnulusKernel,
    build_annulus_kernel,
)
from corrsmooth.locfit import (
    Dataset,
    PairIndex,
    _PIVOT_RTOL,
    _component_displacements,
    _haversine,
    _metric_distances,
    _normal_systems,
    _window_rss,
    _Workspace,
    fit_all,
    fit_points,
    hat_matrix,
    pairwise_distances,
    rss,
)
from corrsmooth.simulate import (
    FAMILIES,
    CorrelationModel,
    SimScenario,
    correlation_value,
    generate,
    min_epan_mse,
    mse_prac,
    parse_method,
    run_method_trial,
    run_trial,
    sse_cor,
)


def reference_product_value(u):
    per = 0.75 * np.maximum(0.0, 1.0 - u * u)
    per = np.where(np.abs(u) <= 1.0, per, 0.0)
    return per.prod(axis=-1)


def reference_gcv_score(data, ko, h):
    fit = fit_all(data, h, ko)
    if fit.singular_count:
        return np.inf
    c, singular = hat_matrix(data, h, ko)
    if singular.any():
        return np.inf
    denom = 1.0 - float(np.trace(c)) / data.n
    if denom <= 0.0:
        return np.inf
    return rss(fit) / denom**2


def reference_min_epan_mse(sim, extra_h=()):
    """The minEpan row's former definition: a fit_all scan over the default
    grid plus every method's chosen bandwidth."""
    ko = ProductEpanechnikovKernel(sim.dataset.dim)
    hs = list(default_grid(sim.dataset, ko)) + [float(h) for h in extra_h]
    best = np.inf
    for h in sorted(set(hs)):
        fit = fit_all(sim.dataset, h, ko)
        if fit.singular_count == 0:
            best = min(best, mse_prac(fit.fitted, sim.mu_true))
    return best


def raw_geometry(data, kernel):
    """The in-sample geometry a kernel weights, built without a workspace:
    metric distances (annulus) or coordinate displacements (product)."""
    if isinstance(kernel, RadialAnnulusKernel):
        return _metric_distances(data, data.points)
    return _component_displacements(data, data.points)


def reference_support(data, kernel):
    """The distances a kernel's grid scans and its support (lo, hi) in units of h."""
    if isinstance(kernel, RadialAnnulusKernel):
        return raw_geometry(data, kernel), kernel.c1, kernel.c2
    return np.abs(raw_geometry(data, kernel)).max(axis=0), 0.0, 1.0


def reference_default_grid(data, kernel, size=30):
    dist, lo, hi = reference_support(data, kernel)
    min_neighbors = 2 * (data.dim + 1)
    positive = dist[dist > 0.0]
    diam = float(dist.max())
    h_max = diam / (2.0 * lo) if lo > 0.0 else diam
    for h in np.geomspace(float(positive.min()) / hi, h_max, 256):
        if lo > 0.0:
            mask = (dist > lo * h) & (dist < hi * h)
        else:
            mask = (dist > 0.0) & (dist < hi * h)
        if (mask.sum(axis=1) >= min_neighbors).mean() >= 0.99:
            return np.geomspace(float(h), h_max, size)
    raise AssertionError("reference scan found no floor")


def _grid_datasets():
    rng = np.random.default_rng(7)
    yield "euclidean", Dataset(points=rng.random((200, 2)), responses=rng.normal(size=200))
    # every site of a 13 x 13 integer lattice twice: distances tie among
    # themselves and with the scan thresholds lo*h and hi*h
    side = np.arange(13.0)
    sites = np.stack(np.meshgrid(side, side, indexing="ij"), axis=-1).reshape(-1, 2)
    lattice = np.concatenate([sites, sites])
    yield "lattice", Dataset(points=lattice, responses=rng.normal(size=lattice.shape[0]))
    lat = 30.0 + 7.0 * rng.random(300)
    lon = -92.0 + 14.0 * rng.random(300)
    yield "haversine", Dataset(
        points=np.column_stack([lat, lon]), responses=rng.normal(size=300), metric="haversine"
    )


_GRID_KERNELS = {
    "za(1,1.5)": build_annulus_kernel(1.0, 1.5, 2),
    "za(2.5,3)": build_annulus_kernel(2.5, 3.0, 2),
    "product": ProductEpanechnikovKernel(2),
}


@pytest.mark.parametrize("kernel_name", sorted(_GRID_KERNELS))
def test_default_grid_matches_mask_scan(kernel_name):
    kernel = _GRID_KERNELS[kernel_name]
    for name, data in _grid_datasets():
        ref = reference_default_grid(data, kernel)
        assert np.array_equal(default_grid(data, kernel), ref), name


def test_lattice_tie_at_hi_h_decides_the_product_floor():
    # each point of the doubled lattice has >= 6 neighbors at Chebyshev
    # distance exactly 1 = hi*h of the first scan candidate; the strict
    # d < hi*h leaves them out there, so the floor is the second candidate
    data = dict(_grid_datasets())["lattice"]
    grid = default_grid(data, ProductEpanechnikovKernel(2))
    assert grid[0] == np.geomspace(1.0, 12.0, 256)[1]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_product_kernel_value_matches_reference(dim):
    rng = np.random.default_rng(dim)
    u = rng.normal(scale=1.5, size=(40, 30, dim))
    special = np.array([1.0, -1.0, np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0),
                        0.0, -0.0, np.nan, np.inf, -np.inf])
    picks = rng.random(u.shape) < 0.3
    u[picks] = rng.choice(special, size=int(picks.sum()))
    kernel = ProductEpanechnikovKernel(dim)
    new = kernel.value(u)
    ref = reference_product_value(u)
    assert new.shape == ref.shape
    assert np.array_equal(new, ref)
    assert not np.signbit(new).any()
    # single vectors and one-row batches take the same path
    assert kernel.value(u[0, 0]) == ref[0, 0]
    assert np.array_equal(kernel.value(u[0]), ref[0])


@pytest.mark.parametrize("dim, mu_id", [(2, "mu2d"), (3, "mu3d")])
def test_gcv_matches_reference_on_full_grid(dim, mu_id):
    model = CorrelationModel("exponential", c=1.0, alpha=1.0, dim=dim, sigma2=0.1)
    sim = generate(SimScenario(mu_id, 150, model, seed=40 + dim), 0)
    ko = ProductEpanechnikovKernel(dim)
    grid = default_grid(sim.dataset, ko)
    grid = np.concatenate([[grid[0] / 8.0], grid])
    ref = [reference_gcv_score(sim.dataset, ko, float(h)) for h in grid]
    assert ref[0] == np.inf  # singular systems at the added tiny bandwidth
    assert np.isfinite(ref).sum() >= 25
    new = [gcv_score(sim.dataset, ko, float(h)) for h in grid]
    assert new == ref
    assert gcv_select(sim.dataset, ko, grid) == grid[int(np.argmin(ref))]
    # the trials' scan gives gcv_score's scores on the default grid, and the
    # GCV row picks what gcv_select picks there
    scan_grid, _, scores = gcv_scan(sim.dataset)
    assert np.array_equal(scan_grid, grid[1:])
    assert list(scores) == new[1:]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        trial = run_method_trial(sim, parse_method("gcv"), n_star=40)
    assert trial.h == gcv_select(sim.dataset, ko, default_grid(sim.dataset, ko))


@pytest.mark.parametrize("dim, h", [(2, 1.0), (3, 0.5)])
def test_gcv_matches_reference_when_denominator_nonpositive(dim, h):
    # clusters of D+1 points far apart: each local fit interpolates its own
    # cluster, so tr(H) = n in exact arithmetic and 1 - tr(H)/n is zero.  Its
    # sign after rounding is a coin flip per design, so the branch is reached
    # on the first seeded design whose rounding lands at or below 0.
    ko = ProductEpanechnikovKernel(dim)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        pts = np.concatenate([10.0 * c + 0.3 * rng.random((dim + 1, dim)) for c in range(12)])
        data = Dataset(points=pts, responses=rng.normal(size=pts.shape[0]))
        c, singular = hat_matrix(data, h, ko)
        if 1.0 - float(np.trace(c)) / data.n <= 0.0:
            break
    else:
        pytest.fail("no seeded design reached a nonpositive GCV denominator")
    assert not singular.any()
    grid = np.array([h / 100.0, h, 4.0 * h, 40.0 * h])
    assert hat_matrix(data, grid[0], ko)[1].any()  # singular systems
    ref = [reference_gcv_score(data, ko, g) for g in grid]
    assert ref[1] == np.inf  # from the denominator alone
    assert [gcv_score(data, ko, g) for g in grid] == ref
    assert gcv_select(data, ko, grid) == grid[int(np.argmin(ref))]


@pytest.mark.parametrize("dim, mu_id", [(2, "mu2d"), (3, "mu3d")])
def test_min_epan_mse_matches_fit_all_loop(dim, mu_id):
    model = CorrelationModel("spherical", c=2.0, alpha=1.0, dim=dim, sigma2=0.1)
    sim = generate(SimScenario(mu_id, 150, model, seed=17), 0)
    assert min_epan_mse(sim) == reference_min_epan_mse(sim)


def test_run_trial_min_epan_matches_scan_over_grid_and_method_bandwidths():
    model = CorrelationModel("spherical", c=2.0, alpha=1.0, dim=2, sigma2=0.1)
    sim = generate(SimScenario("mu2d", 150, model, seed=1), 0)
    specs = [parse_method(m) for m in ("za(1,1.5)", "za(2,2.5)", "gcv")]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = run_trial(sim, specs, n_star=40)
    chosen = [out[spec.label].h for spec in specs]
    assert out["minEpan"].mse_prac == reference_min_epan_mse(sim, chosen)
    # on this seed a method's bandwidth beats every grid point
    assert out["minEpan"].mse_prac < min_epan_mse(sim)
    # the GCV row reads the draw's shared scan; gcv_select scans on its own
    ko = ProductEpanechnikovKernel(2)
    assert out["GCV"].h == gcv_select(sim.dataset, ko, default_grid(sim.dataset, ko))
    # a fresh copy of the draw has no scan yet; its GCV row computes the same outcome
    cold = generate(SimScenario("mu2d", 150, model, seed=1), 0)
    assert "product_scan" not in vars(cold)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fresh = run_method_trial(cold, specs[2], n_star=40)
    assert fresh == out["GCV"]


def reference_weights(ws, kernel, h):
    """The kernel at every entry: the annulus profile of dist / h, or the
    np.where/prod product value."""
    if isinstance(kernel, RadialAnnulusKernel):
        return kernel.profile(ws.distances / h)
    return reference_product_value(np.moveaxis(ws.displacements, 0, -1) / h)


def reference_normal_systems(ws, weights):
    """The normal equations from five separate dense sums, s2 by einsum, in
    the workspace's centered frame."""
    x, y, xt = ws.design, ws.data.responses, ws.targets
    m, d = xt.shape[0], ws.data.dim
    s0 = weights.sum(axis=1)
    p = weights @ x
    s2 = np.einsum("ij,jkl->ikl", weights, np.einsum("jk,jl->jkl", x, x))
    t0 = weights @ y
    t1 = weights @ (x * y[:, None])
    a = np.empty((m, d + 1, d + 1))
    a[:, 0, 0] = s0
    a0k = p - s0[:, None] * xt
    a[:, 0, 1:] = a0k
    a[:, 1:, 0] = a0k
    a[:, 1:, 1:] = (
        s2
        - xt[:, :, None] * p[:, None, :]
        - p[:, :, None] * xt[:, None, :]
        + s0[:, None, None] * xt[:, :, None] * xt[:, None, :]
    )
    rhs = np.empty((m, d + 1))
    rhs[:, 0] = t0
    rhs[:, 1:] = t1 - xt * t0[:, None]
    return a, rhs


def reference_solve(a, *rhs):
    """Gaussian elimination with partial pivoting, one elimination for every
    (m, k) right-hand side, in the dtype of a; the singular rule is the
    fits' own (a pivot below _PIVOT_RTOL of the system's largest entry).
    Returns ([solution per rhs], singular_mask); singular rows are NaN."""
    m, k, _ = a.shape
    scale = np.abs(a).reshape(m, -1).max(axis=1)
    singular = scale <= 0.0
    aug = np.concatenate([a] + [b[:, :, None].astype(a.dtype) for b in rhs], axis=2)
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
    solutions = []
    for col in range(k, k + len(rhs)):
        x = np.zeros((m, k), dtype=a.dtype)
        for j in range(k - 1, -1, -1):
            pivots = aug[:, j, j]
            safe = np.where(np.abs(pivots) > 0.0, pivots, 1.0)
            acc = aug[:, j, col]
            if j + 1 < k:
                acc = acc - np.einsum("ml,ml->m", aug[:, j, j + 1 : k], x[:, j + 1 :])
            x[:, j] = acc / safe
        x[singular] = np.nan
        solutions.append(x)
    return solutions, singular


def reference_solution(ws, kernel, h, rhs_fn):
    weights = reference_weights(ws, kernel, h)
    a, rhs = reference_normal_systems(ws, weights)
    (z,), singular = reference_solve(a, rhs_fn(rhs))
    return weights, z, singular


def reference_hat_matrix(data, h, kernel):
    ws = _Workspace(data)
    weights, z, singular = reference_solution(ws, kernel, h, _unit_rhs)
    x = ws.design
    lin = z[:, 1:] @ x.T - np.einsum("ik,ik->i", z[:, 1:], x)[:, None]
    return weights * (z[:, 0][:, None] + lin), singular


def _unit_rhs(rhs):
    e1 = np.zeros_like(rhs)
    e1[:, 0] = 1.0
    return e1


def assert_same_bytes(new, ref):
    assert new.shape == ref.shape and new.dtype == ref.dtype
    assert new.tobytes() == ref.tobytes()


# Each entry of a system is a sum of terms no larger than s0 (1 + X)^2 for
# the matrix, or s0 (1 + X) Y for the right-hand side, where X and Y bound
# |x| and |y| and s0 is the weight sum of its row; summed in another order,
# the entries differ from the reference's by a few ulps of that size.
_SYSTEM_RTOL = 1e-13
# Hat coefficients of the euclidean design agree within 1e-11.
_HAT_ATOL = 1e-11


def assert_close(new, ref, atol):
    assert new.shape == ref.shape
    assert np.array_equal(np.isnan(new), np.isnan(ref))
    assert np.nanmax(np.abs(new - ref), initial=0.0) <= atol


def assert_fits_match_reference(ws, kernel, h, est):
    """The fits est at ws's targets against the solutions of the reference
    systems, with equal NaN positions.

    A difference dA, drhs between the systems moves a solution beta by
    |A^-1| (|dA| |beta| + |drhs|) to first order, and the elimination adds a
    few ulps, |A^-1| 8 eps |A| |beta|.  Near-singular systems (small h) and
    uncentered sums on raw degrees (haversine) make that large; the fits may
    differ by twice its first entry.
    """
    weights, a, rhs = _normal_systems(ws, kernel, h)
    a_ref, rhs_ref = reference_normal_systems(ws, weights)
    (beta,), singular = reference_solve(a_ref, rhs_ref)
    assert np.array_equal(np.isnan(est), singular)
    ok = ~singular
    moved = np.abs(a - a_ref)[ok] + 8.0 * np.finfo(float).eps * np.abs(a_ref[ok])
    moved = np.einsum("mij,mj->mi", moved, np.abs(beta[ok])) + np.abs(rhs - rhs_ref)[ok]
    bound = np.einsum("mi,mi->m", np.abs(np.linalg.inv(a_ref[ok]))[:, 0], moved)
    assert (np.abs(est[ok] - beta[ok, 0]) <= 2.0 * bound).all()


def assert_systems_match_reference(ws, kernel, h):
    weights, a, rhs = _normal_systems(ws, kernel, h)
    assert_same_bytes(weights, reference_weights(ws, kernel, h))
    a_ref, rhs_ref = reference_normal_systems(ws, weights)
    reach = max(np.abs(ws.design).max(), np.abs(ws.targets).max())
    s0 = weights.sum(axis=1)
    a_scale = s0 * (1.0 + reach) ** 2
    rhs_scale = s0 * (1.0 + reach) * np.abs(ws.data.responses).max()
    assert (np.abs(a - a_ref) <= _SYSTEM_RTOL * a_scale[:, None, None]).all()
    assert (np.abs(rhs - rhs_ref) <= _SYSTEM_RTOL * rhs_scale[:, None]).all()


@pytest.mark.parametrize("kernel_name", ["za(1,1.5)", "za(2.5,3)"])
def test_annulus_moment_sums_match_dense_on_haversine_design(kernel_name):
    data = dict(_grid_datasets())["haversine"]
    assert (data.points[:, 1] < 0.0).all()
    kernel = _GRID_KERNELS[kernel_name]
    ws = _Workspace(data)
    for h in default_grid(data, kernel):
        assert_systems_match_reference(ws, kernel, float(h))


@pytest.mark.parametrize("c1, c2, hs", [(1.0, 1.5, (2.0, 4.0, 10.0)), (2.5, 3.0, (2.0, 4.0))])
def test_annulus_moment_sums_match_dense_when_distances_tie_support_edges(c1, c2, hs):
    data = dict(_grid_datasets())["lattice"]
    kernel = build_annulus_kernel(c1, c2, 2)
    ws = _Workspace(data)
    for h in hs:
        r = ws.distances / h
        assert (r == c1).any() and (r == c2).any()  # both inclusive edges are hit
        assert_systems_match_reference(ws, kernel, h)


@pytest.mark.parametrize("dim", [2, 3])
def test_product_moment_sums_match_dense(dim):
    rng = np.random.default_rng(60 + dim)
    data = Dataset(points=rng.random((180, dim)), responses=rng.normal(size=180))
    kernel = ProductEpanechnikovKernel(dim)
    ws = _Workspace(data)
    for h in default_grid(data, kernel):
        assert_systems_match_reference(ws, kernel, float(h))


@pytest.mark.parametrize("kernel_name", sorted(_GRID_KERNELS))
def test_singular_rows_match_dense(kernel_name):
    # far below the grid floor some targets have no design point in the
    # annulus; the product kernel keeps only each target's own point
    data = dict(_grid_datasets())["euclidean"]
    kernel = _GRID_KERNELS[kernel_name]
    h = float(default_grid(data, kernel)[0]) / 8.0
    ws = _Workspace(data)
    weights, _, _ = _normal_systems(ws, kernel, h)
    if isinstance(kernel, RadialAnnulusKernel):
        assert not weights.any(axis=1).all()  # rows with an empty support
    assert_systems_match_reference(ws, kernel, h)
    fit = fit_all(data, h, kernel)
    _, _, singular = reference_solution(ws, kernel, h, lambda rhs: rhs)
    assert fit.singular_count == int(singular.sum()) > 0
    assert_fits_match_reference(ws, kernel, h, fit.fitted)


@pytest.mark.parametrize("kernel_name", sorted(_GRID_KERNELS))
def test_out_of_sample_fit_matches_dense(kernel_name):
    data = dict(_grid_datasets())["haversine"]
    kernel = _GRID_KERNELS[kernel_name]
    rng = np.random.default_rng(5)
    targets = np.column_stack([30.0 + 7.0 * rng.random(90), -92.0 + 14.0 * rng.random(90)])
    for h in default_grid(data, kernel)[::7]:
        ws = _Workspace(data, targets=targets)
        assert_systems_match_reference(ws, kernel, float(h))
        _, _, singular_ref = reference_solution(ws, kernel, float(h), lambda rhs: rhs)
        for layout in (targets, np.asfortranarray(targets)):
            est, singular = fit_points(data, layout, float(h), kernel)
            assert_fits_match_reference(ws, kernel, float(h), est)
            assert np.array_equal(singular, singular_ref)


@pytest.mark.parametrize("kernel_name", sorted(_GRID_KERNELS))
def test_weights_and_fits_do_not_depend_on_memory_layout(kernel_name):
    # Fortran-ordered geometry reaches the kernel as a non-C-contiguous
    # array; Fortran-ordered design points reach every fit
    data = dict(_grid_datasets())["euclidean"]
    kernel = _GRID_KERNELS[kernel_name]
    ws = _Workspace(data)
    flipped = Dataset(np.asfortranarray(data.points), data.responses)
    targets = data.points[::3] + 0.01
    for h in default_grid(data, kernel)[::9]:
        geometry = np.asfortranarray(kernel.geometry(ws))
        assert not geometry.flags.c_contiguous
        assert_same_bytes(
            kernel.weights(geometry, float(h)), reference_weights(ws, kernel, float(h))
        )
        assert_same_bytes(
            fit_all(flipped, float(h), kernel).fitted, fit_all(data, float(h), kernel).fitted
        )
        assert_same_bytes(
            fit_points(data, np.asfortranarray(targets), float(h), kernel)[0],
            fit_points(data, targets, float(h), kernel)[0],
        )


@pytest.mark.parametrize("kernel_name", sorted(_GRID_KERNELS))
def test_hat_matrix_and_coefficients_match_dense(kernel_name):
    data = dict(_grid_datasets())["euclidean"]
    kernel = _GRID_KERNELS[kernel_name]
    for h in default_grid(data, kernel)[::9]:
        c, singular = hat_matrix(data, float(h), kernel)
        c_ref, singular_ref = reference_hat_matrix(data, float(h), kernel)
        assert_close(c, c_ref, _HAT_ATOL)
        assert np.array_equal(singular, singular_ref)


def oracle_fits(data, kernel, h):
    """In-sample fits, singular mask and 2-norm condition numbers of
    np.longdouble systems, each built at its own target from the
    displacements x_j - x_i, with the fits' own weights and singular rule."""
    x = data.points.astype(np.longdouble)
    w = kernel.weights(raw_geometry(data, kernel), h).astype(np.longdouble)
    v = np.concatenate([np.ones((data.n, data.n, 1), np.longdouble), x[None] - x[:, None]], axis=2)
    wv = w[:, :, None] * v
    a = np.einsum("mjk,mjl->mkl", wv, v)
    rhs = np.einsum("mjk,j->mk", wv, data.responses.astype(np.longdouble))
    (beta,), singular = reference_solve(a, rhs)
    kappa = np.full(data.n, np.inf)
    kappa[~singular] = np.linalg.cond(a[~singular].astype(float))
    return beta[:, 0].astype(float), singular, kappa


def _oracle_datasets():
    rng = np.random.default_rng(0)
    yield "euclidean", Dataset(points=rng.random((150, 2)), responses=rng.normal(size=150))
    # on these sites, sums about the coordinate origin called one za(0.5,1)
    # window at the grid floor nonsingular where it is singular
    rng = np.random.default_rng(1)
    lat, lon = 30.0 + 7.0 * rng.random(200), -92.0 + 14.0 * rng.random(200)
    yield "haversine", Dataset(
        points=np.column_stack([lat, lon]), responses=rng.normal(size=200), metric="haversine"
    )


# Rounding a system of condition number kappa may move its fit by about
# kappa eps of the response scale; the fits may differ from the oracle's by
# this many times that.  The worst measured was 10.5 (haversine, product).
_ORACLE_EPS_MULT = 64.0


@pytest.mark.parametrize(
    "annulus", [None, (1.0, 1.5), (0.5, 1.0)], ids=["product", "za(1,1.5)", "za(0.5,1)"]
)
@pytest.mark.parametrize("name", ["euclidean", "haversine"])
def test_fits_match_extended_precision_oracle(name, annulus):
    data = dict(_oracle_datasets())[name]
    kernel = ProductEpanechnikovKernel(2) if annulus is None else build_annulus_kernel(*annulus, 2)
    scale = _ORACLE_EPS_MULT * np.finfo(float).eps * np.abs(data.responses).max()
    for h in default_grid(data, kernel):
        fitted = fit_all(data, float(h), kernel).fitted
        est, singular, kappa = oracle_fits(data, kernel, float(h))
        assert np.array_equal(np.isnan(fitted), singular)
        ok = ~singular
        assert (np.abs(fitted - est)[ok] <= scale * kappa[ok]).all()


def _window_positions(rows, edges):
    """Per window of (W, 2) edges and sorted row, the mask of the positions in
    [lo, hi) that the elbow's pass sums: lo and hi by searchsorted(..., "right")."""
    lo, hi = (np.array([np.searchsorted(row, e, "right") for row in rows]).T for e in edges.T)
    pos = np.arange(rows.shape[1])
    return (pos >= lo[:, :, None]) & (pos < hi[:, :, None])


@pytest.mark.parametrize("name", ["lattice", "haversine"])
def test_elbow_windows_hold_exactly_the_dense_support(name, monkeypatch):
    sets = dict(_grid_datasets()) if name == "lattice" else dict(_oracle_datasets())
    data = sets[name]
    scanned = []

    def recording_window_rss(ws, windows):
        scanned.extend(windows)
        return _window_rss(ws, windows)

    monkeypatch.setattr(bandwidth_mod, "_window_rss", recording_window_rss)
    c1s = np.arange(0.5, 3.01, 0.25)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        elbow_scan(data, c1s, stability_tol=np.inf)
    assert len(scanned) == c1s.size
    ws = _Workspace(data)
    rows, ties = ws.sorted_distances, {"c1": 0, "c2": 0}
    for c1, (edges, _) in zip(c1s, scanned):
        kernel = build_annulus_kernel(c1, c1 + 0.5, 2)
        # bandwidths that put a distance at c1 h or at c2 h: exact lattice
        # ones, and on the sphere d / c, which lands there for many d
        tied = [2.0, 4.0, 10.0] if name == "lattice" else [
            d / c for d in rows[0, 10:25] for c in (kernel.c1, kernel.c2)
        ]
        hs = np.concatenate([default_grid(data, kernel, workspace=ws), tied])
        windows = _window_positions(rows, np.concatenate([edges, kernel.windows(tied)[0]]))
        for h, window in zip(hs, windows, strict=True):
            r = rows / h
            assert np.array_equal(window, (r >= kernel.c1) & (r <= kernel.c2))
            ties["c1"] += int((r == kernel.c1).any())
            ties["c2"] += int((r == kernel.c2).any())
    assert ties["c1"] > 0 and ties["c2"] > 0  # both inclusive edges are hit


# A fit within delta_i of the oracle's moves the mean squared residual by at
# most mean(delta_i (2 |r_i| + delta_i)), r the oracle's residuals, with
# delta_i = _ORACLE_EPS_MULT eps kappa_i max|y| as for the fits above.  The
# worst measured was a quarter of that (euclidean, za(1,1.5), the grid's top,
# where a window's sums cancel most of their prefix sums).
@pytest.mark.parametrize("annulus", [(1.0, 1.5), (0.5, 1.0)], ids=["za(1,1.5)", "za(0.5,1)"])
@pytest.mark.parametrize("name", ["euclidean", "haversine"])
def test_elbow_rss_matches_extended_precision_oracle(name, annulus):
    data = dict(_oracle_datasets())[name]
    kernel = build_annulus_kernel(*annulus, 2)
    ws = _Workspace(data)
    grid = default_grid(data, kernel, workspace=ws)
    (trace,) = _window_rss(ws, [kernel.windows(grid)])
    dense = np.array([score for _, score, _ in _scan(ws, kernel, grid)])
    assert np.array_equal(np.isfinite(trace), np.isfinite(dense))
    scale = _ORACLE_EPS_MULT * np.finfo(float).eps * np.abs(data.responses).max()
    for h, score in zip(grid, trace):
        est, singular, kappa = oracle_fits(data, kernel, float(h))
        assert np.isfinite(score) == (not singular.any())
        if singular.any():
            continue
        r, delta = data.responses - est, scale * kappa
        assert abs(score - r @ r / data.n) <= np.mean(delta * (2.0 * np.abs(r) + delta))


def _golden_cli_sites():
    """The 120 lat/lon sites and responses of tests/test_golden_cli.py's CSV."""
    rng = np.random.default_rng(2718)
    lat = 30.0 + 3.0 * rng.random(120)
    lon = -92.0 + 4.0 * rng.random(120)
    y = 2.0 * np.sin(np.pi * (lon + 92.0) / 2.0) + 2.0 * ((lat - 30.0) / 3.0) ** 2
    y = y + 0.3 * rng.standard_normal(120)
    return Dataset(points=np.column_stack([lat, lon]), responses=y, metric="haversine")


def _cube_sites():
    """A 3-d design, whose systems have three entries of u u^T above the diagonal."""
    rng = np.random.default_rng(3)
    x = rng.random((200, 3))
    return Dataset(points=x, responses=np.sin(3.0 * x.sum(axis=1)) + 0.2 * rng.normal(size=200))


@pytest.mark.parametrize("name, grid_size", [
    ("euclidean", 30), ("haversine", 30), ("golden_cli", 8), ("cube", 12),
])
def test_elbow_picks_match_the_dense_selections(name, grid_size):
    extra = {"golden_cli": _golden_cli_sites, "cube": _cube_sites}
    data = extra[name]() if name in extra else dict(_oracle_datasets())[name]
    c1s = np.arange(0.5, 2.51, 0.25)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        diag = elbow_scan(data, c1s, grid_size=grid_size, stability_tol=np.inf)
        dense = [
            select_h_o(data, build_annulus_kernel(c1, c1 + 0.5, data.dim), grid_size=grid_size).h_z
            for c1 in c1s
        ]
    assert diag.feasible.all()
    assert diag.h_z_list.tolist() == dense


_GOLDEN_SCRIPT = """
import hashlib
import warnings
from corrsmooth.simulate import (
    CorrelationModel, SimScenario, _openblas_threads, generate, run_table,
)
get, _ = _openblas_threads()
before = get()
model = CorrelationModel("spherical", c=2.0, alpha=1.0, dim=2, sigma2=0.1)
scn = SimScenario("mu2d", 150, model, seed=2024, n_trials=1)
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    rows = run_table([scn], ["za(1,1.5)", "gcv"], n_star=40)
    pooled = run_table([scn], ["za(1,1.5)", "gcv"], n_trials=3, n_star=40, threads=2)
for row in rows + pooled:
    print(repr(row))
print(hashlib.sha256(generate(scn, 0).dataset.responses.tobytes()).hexdigest())
print("blas threads", before, get())
"""


_GOLDEN_BASE = ("family='spherical', c=2.0, alpha=1.0, dim=2, n=150, sigma2=0.1, "
                "seed=2024, n_trials=1")
_GOLDEN_ROWS = [
    f"ResultRow({_GOLDEN_BASE}, method='minEpan', mse_prac_mean=0.014403563971919307, "
    "mse_prac_sd=0.0, mse_sigma2_mean=nan, mse_sigma2_sd=nan, sse_cor_mean=nan, "
    "sse_cor_sd=nan, failures=0)",
    f"ResultRow({_GOLDEN_BASE}, method='Raw', mse_prac_mean=nan, mse_prac_sd=nan, "
    "mse_sigma2_mean=0.0003526009937590173, mse_sigma2_sd=0.0, "
    "sse_cor_mean=3.744763403675162, sse_cor_sd=0.0, failures=0)",
    f"ResultRow({_GOLDEN_BASE}, method='ZA(1,1.5)', mse_prac_mean=0.026484976687090604, "
    "mse_prac_sd=0.0, mse_sigma2_mean=9.050663955276551e-05, mse_sigma2_sd=0.0, "
    "sse_cor_mean=3.8778426491802542, sse_cor_sd=0.0, failures=0)",
    f"ResultRow({_GOLDEN_BASE}, method='GCV', mse_prac_mean=0.02432523563441487, "
    "mse_prac_sd=0.0, mse_sigma2_mean=0.0016933304833041392, mse_sigma2_sd=0.0, "
    "sse_cor_mean=28.437441485498624, sse_cor_sd=0.0, failures=0)",
]


@functools.cache
def _golden_output(blas_threads):
    src = str(Path(corrsmooth.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads, OMP_NUM_THREADS=blas_threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _GOLDEN_SCRIPT], env=env, capture_output=True,
        text=True, timeout=240, check=True,
    )
    return out.stdout.splitlines()


def test_run_table_golden_rows():
    """run_table rows for one small seeded scenario, recorded before the
    product-kernel sweeps shared one workspace and one solve per candidate,
    re-recorded when the normal equations took their sums from one matrix
    product, again when the local systems moved to the design's
    centered frame with one solve for the smoother row, and again when the
    covariance layer evaluated all lags in one vector pass and sse_cor
    summed over the sorted pair index, which moved the SSE_cor values.

    The rows come from a child interpreter with OpenBLAS on one thread, as
    they did before generate pinned its eigendecomposition to one thread.
    Re-record these values only together with a CHANGES.md note that says
    which numbers moved and why.
    """
    lines = _golden_output("1")
    assert lines[:4] == _GOLDEN_ROWS
    _, _, before, after = lines[-1].split()
    assert before == after


def test_run_table_golden_rows_on_two_blas_threads():
    """With OpenBLAS on two threads, the serial rows, three trials pooled
    over two worker threads (whose BLAS calls run while another trial has
    the count pinned to one), and generate's response bytes all equal the
    one-thread run, and the pin hands the count back."""
    lines = _golden_output("2")
    assert lines[:-1] == _golden_output("1")[:-1]
    _, _, before, after = lines[-1].split()
    assert before == after


class PerLagSums:
    """estimates() as one estimate() per lag, NaN where it raises EmptyWindowError."""

    def estimates(self, t, b):
        t, b = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(b, dtype=float))
        out = np.empty(t.shape)
        for k, (lag, width) in enumerate(zip(t.flat, b.flat)):
            try:
                out.flat[k] = self.estimate(float(lag), float(width))
            except EmptyWindowError:
                out.flat[k] = np.nan
        return out


class ReferencePairSums(PerLagSums):
    """The pair sums as one window per lag, with every product r[i] * r[j]
    computed up front and the kernel formula of the code that summed them
    so, before all lags were evaluated in one vector pass."""

    def __init__(self, residuals, index):
        residuals = np.asarray(residuals, dtype=float)
        self.n = residuals.shape[0]
        self.dist = index.dist
        self.prod = residuals[index.i]
        self.prod *= residuals[index.j]
        self.diag = float(residuals @ residuals)

    @staticmethod
    def kernel(q, u):
        q = min(float(q), 1.0)
        if q <= 0.0:
            q = np.finfo(float).eps
        core = (12.0 * (u + 1.0) / (1.0 + q) ** 4) * (
            u * (1.0 - 2.0 * q) + (3.0 * q * q - 2.0 * q + 1.0) / 2.0
        )
        return np.where((u >= -1.0) & (u <= q), core, 0.0)

    def estimate(self, t, b):
        lo = np.searchsorted(self.dist, t - b, side="right")
        hi = np.searchsorted(self.dist, t + b, side="right")
        w = self.kernel(t / b, (t - self.dist[lo:hi]) / b)
        num = 2.0 * float(w @ self.prod[lo:hi])
        den = 2.0 * float(w.sum())
        w_diag = float(self.kernel(t / b, np.asarray(t / b)))
        num += w_diag * self.diag
        den += w_diag * self.n
        mass = 2.0 * float(np.abs(w).sum()) + abs(w_diag) * self.n
        if mass == 0.0 or abs(den) < 1e-10 * mass:
            raise EmptyWindowError(t, b)
        return num / den


# The vector pass adds each window's terms in another order than one sum
# per lag, and its segment moments carry a quadratic's coefficients: both
# round differently, by at most about 1e-14 of C(0) on these designs.
_PASS_RTOL = 1e-12


def assert_same_estimates(got, ref, c0):
    """Equal empty windows, and values within _PASS_RTOL of |C(0)|."""
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    assert np.array_equal(np.isnan(got), np.isnan(ref))
    assert np.nanmax(np.abs(got - ref), initial=0.0) <= _PASS_RTOL * abs(c0)


def bisecting_sigma2(tildes):
    """A sigma2_hat halfway between two neighbouring candidates' estimates and
    farther than delta_n from each, so that calibration must bisect."""
    mids = (tildes[:-1] + tildes[1:]) / 2.0
    return float([m for m in mids if np.abs(tildes - m).min() > DELTA_N_DEFAULT][-1])


def calibration_and_curve(data, r, s2, pairs_cls, monkeypatch, **curve_kwargs):
    monkeypatch.setattr(covariance_mod, "_PairSums", pairs_cls)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cal = calibrate_b(data, r, s2)
        curve = covariance_curve(data, r, cal.chosen_b, sigma2_hat=s2, **curve_kwargs)
    return cal, curve


def test_calibration_pilot_and_curve_match_eager_products(exponential_field, monkeypatch):
    r = exponential_field.responses
    assert_matches_eager_products(exponential_field, float(r @ r / r.size), monkeypatch, bisects=False)


def spherical_errors(n=400):
    """A seeded design whose responses are its true spherical errors."""
    model = CorrelationModel("spherical", c=3.0, alpha=1.0, dim=2, sigma2=0.1)
    sim = generate(SimScenario("mu2d", n, model, seed=27, n_trials=1), 0)
    return Dataset(points=sim.dataset.points, responses=sim.errors)


def test_bisected_calibration_and_curve_match_eager_products(monkeypatch):
    data = spherical_errors()
    tildes = ReferencePairSums(data.responses, data.pair_index).estimates(
        0.0, default_b_candidates(data)
    )
    assert_matches_eager_products(data, bisecting_sigma2(tildes), monkeypatch, bisects=True)


def assert_matches_eager_products(data, s2, monkeypatch, bisects):
    r = data.responses
    cal, curve = calibration_and_curve(data, r, s2, _PairSums, monkeypatch)
    ref_cal, ref_curve = calibration_and_curve(data, r, s2, ReferencePairSums, monkeypatch)
    assert (cal.b_candidates.size > 25) == bisects
    # the same candidates and midpoints, the same b, fallback and truncation
    assert cal.b_candidates.tobytes() == ref_cal.b_candidates.tobytes()
    assert (cal.chosen_b, cal.fallback) == (ref_cal.chosen_b, ref_cal.fallback)
    assert_same_estimates(cal.sigma2_tilde, ref_cal.sigma2_tilde, s2)
    assert curve.truncation_t == ref_curve.truncation_t > 0.0
    assert curve.t_grid.tobytes() == ref_curve.t_grid.tobytes()
    assert curve.dropped.tobytes() == ref_curve.dropped.tobytes()
    assert curve.flags.tobytes() == ref_curve.flags.tobytes()
    assert curve.c_hat[0] == curve.sigma2_tilde and curve.c_hat[-1] == 0.0  # the clamp at T
    assert_same_estimates(curve.c_hat, ref_curve.c_hat, curve.sigma2_tilde)
    # every pilot lag up to half the largest distance, past the truncation too
    b = cal.chosen_b
    upper = float(data.pair_index.dist[-1]) / 2.0
    pilot = np.linspace(upper / _PILOT_POINTS, upper, _PILOT_POINTS)
    assert_same_estimates(
        _PairSums(r, data.pair_index).estimates(pilot, b),
        ReferencePairSums(r, data.pair_index).estimates(pilot, b),
        curve.sigma2_tilde,
    )


def test_window_reaching_the_last_pair_matches_eager_products(exponential_field):
    r = exponential_field.responses
    index = exponential_field.pair_index
    ref = ReferencePairSums(r, index)
    d_max = float(index.dist[-1])
    b = d_max / 50.0
    pairs = _PairSums(r, index)
    c0 = pairs.estimate(0.0, b)  # a short head first
    assert_same_estimates(c0, ref.estimate(0.0, b), c0)
    lags = [d_max - b / 2.0, d_max]
    assert_same_estimates(pairs.estimates(lags, b), ref.estimates(lags, b), c0)
    assert pairs.filled == index.dist.size


@pytest.mark.parametrize("n", [2, 3])
def test_tiny_designs_match_eager_products(n, monkeypatch):
    rng = np.random.default_rng(n)
    pts = rng.random((n, 1))
    r = rng.normal(size=n)
    index = PairIndex.from_distances(np.abs(pts - pts.T)[np.triu_indices(n, k=1)], n)
    d_max = float(index.dist[-1])
    lags = [0.0, *index.dist, d_max / 2.0, 2.0 * d_max]
    for b in (d_max / 4.0, d_max, 4.0 * d_max):
        got = _PairSums(r, index).estimates(lags, b)
        assert_same_estimates(got, ReferencePairSums(r, index).estimates(lags, b), got[0])
    if n == 3:  # the smallest Dataset in one dimension
        data = Dataset(points=pts, responses=r)
        s2 = float(r @ r / n)
        cal, _ = calibration_and_curve(data, r, s2, _PairSums, monkeypatch)
        ref, _ = calibration_and_curve(data, r, s2, ReferencePairSums, monkeypatch)
        assert (cal.chosen_b, cal.fallback) == (ref.chosen_b, ref.fallback)
        assert cal.b_candidates.tobytes() == ref.b_candidates.tobytes()
        assert_same_estimates(cal.sigma2_tilde, ref.sigma2_tilde, s2)


class OraclePairSums(PerLagSums):
    """Each window summed directly in 80-bit long double: the kernel at
    every pair, its products and the diagonal, with the empty-window rule."""

    def __init__(self, residuals, index):
        r = np.asarray(residuals, dtype=np.longdouble)
        self.n = r.size
        self.dist = index.dist
        self.d = index.dist.astype(np.longdouble)
        self.prod = r[index.i] * r[index.j]
        self.diag = (r * r).sum()

    def estimate(self, t, b):
        lo = np.searchsorted(self.dist, t - b - 1e-9 * b)  # the support test decides
        hi = np.searchsorted(self.dist, t + b + 1e-9 * b, side="right")
        t, b = np.longdouble(t), np.longdouble(b)
        q = max(min(t / b, np.longdouble(1.0)), np.longdouble(np.finfo(float).eps))
        u = (t - self.d[lo:hi]) / b
        k = 12 * (u + 1) * (u * (1 - 2 * q) + (3 * q * q - 2 * q + 1) / 2) / (1 + q) ** 4
        w = np.where((u > -1) & (u < q), k, 0)
        w[u == q] = k[u == q]  # pairs at distance 0 sit at u = q
        w_diag = 6 * (1 - q) / (1 + q) ** 2
        num = 2 * (w * self.prod[lo:hi]).sum() + w_diag * self.diag
        den = 2 * w.sum() + w_diag * self.n
        mass = 2 * np.abs(w).sum() + w_diag * self.n
        if mass == 0 or abs(den) < 1e-10 * mass:
            raise EmptyWindowError(float(t), float(b))
        return float(num / den)


def test_vector_pass_matches_the_80_bit_oracle(monkeypatch):
    """Every lag a calibration, its bisection, a pilot and a curve evaluate,
    with boundary lags t < b, the window reaching the last pair and an empty
    window, within 1e-12 of |C(0)| of 80-bit direct window sums.  On this
    design the vector pass is off by at most ~1e-14 of C(0), and the
    per-lag sums by about the same."""
    data = spherical_errors()
    r = data.responses
    oracle = OraclePairSums(r, data.pair_index)
    cands = default_b_candidates(data)
    s2 = bisecting_sigma2(oracle.estimates(0.0, cands))
    cal, curve = calibration_and_curve(data, r, s2, _PairSums, monkeypatch)
    assert cal.b_candidates.size > cands.size
    b = cal.chosen_b
    c0 = oracle.estimate(0.0, b)
    expected = oracle.estimates(0.0, cal.b_candidates)  # the candidates and midpoints
    for got in (_PairSums, ReferencePairSums):
        assert_same_estimates(got(r, data.pair_index).estimates(0.0, cal.b_candidates), expected, s2)
    upper = float(data.pair_index.dist[-1]) / 2.0
    d_max = 2.0 * upper
    pilot = np.linspace(upper / _PILOT_POINTS, upper, _PILOT_POINTS)
    lags = np.concatenate([curve.t_grid[:-1], pilot, [d_max - b / 2.0, d_max + 2.0 * b]])
    assert (curve.t_grid < b).sum() > 2  # boundary lags
    expected = oracle.estimates(lags, b)
    assert np.isnan(expected[-1]) and not np.isnan(expected[-2])  # empty, and the last pair's
    for got in (_PairSums, ReferencePairSums):
        assert_same_estimates(got(r, data.pair_index).estimates(lags, b), expected, c0)
    assert_same_estimates(curve.c_hat[:-1], expected[: curve.t_grid.size - 1], c0)


def reference_sse_cor(rho_hat, model, distances, n, zeta):
    """sse_cor with the true correlation evaluated at every distance."""
    d = np.asarray(distances, dtype=float)
    rho_true = correlation_value(model, d, n)
    mask = rho_true >= zeta
    diff = rho_hat.interpolate(d[mask]) - rho_true[mask]
    return float(diff @ diff)


def _line_curve(reach):
    return CorrelationCurve(
        t_grid=np.array([0.0, reach, 2.0 * reach]), rho=np.array([1.0, 0.3, 0.0]),
        mode="by_chat0", truncation_t=2.0 * reach, clamped=False,
    )


# a denormal, values at and around the cut's rounding slack, and 1 - ulp
_ZETA_EDGES = [5e-324, 1e-300, 1e-15, 2.0**-47, 2.0**-46, 1e-12, 1e-6, 0.999999,
               float(np.nextafter(1.0, 0.0))]


@settings(max_examples=150, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    c=st.floats(0.05, 20.0),
    alpha=st.floats(0.0, 1.0, exclude_min=True),
    dim=st.integers(1, 3),
    n=st.integers(1, 10**6),
    zeta=st.one_of(
        st.sampled_from(_ZETA_EDGES), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_sse_cor_cut_matches_the_unfiltered_loop(family, c, alpha, dim, n, zeta, seed):
    model = CorrelationModel(family, c, alpha, dim)
    scale = n ** (alpha / dim)
    cut = simulate_mod._sse_cut(model, n, zeta)
    reach = cut if np.isfinite(cut) else 50.0 / (c * scale)
    rng = np.random.default_rng(seed)
    near = [0.0, reach, *(np.nextafter(reach, [0.0, np.inf]))]
    if family == "spherical":  # the zero tail starts at s = c, where rounding is noisiest
        edge = c / scale
        near += [edge, *(np.nextafter(edge, [0.0, np.inf])), *(edge * (1.0 - 1e-10 * rng.random(40)))]
    d = np.concatenate([3.0 * reach * rng.random(400), near, [np.nan, np.inf]])
    rng.shuffle(d)
    rho_hat = _line_curve(reach)
    with np.errstate(invalid="ignore"):  # the spherical profile at an infinite distance
        assert sse_cor(rho_hat, model, d, n, zeta) == reference_sse_cor(rho_hat, model, d, n, zeta)
    past = d[d > cut]
    assert (correlation_value(model, past[np.isfinite(past)], n) < zeta).all()


def test_sse_cor_still_rejects_negative_and_drops_nan_distances():
    model = CorrelationModel("exponential", c=1.0)
    rho_hat = _line_curve(0.2)
    with pytest.raises(ValueError, match="nonnegative"):
        sse_cor(rho_hat, model, np.array([0.01, 5.0, -0.2]), 100)
    d = np.array([0.01, np.nan, 0.02, 50.0, np.nan, 0.3])
    got = sse_cor(rho_hat, model, d, 100)
    assert got > 0.0
    assert got == sse_cor(rho_hat, model, d[~np.isnan(d)], 100)
    assert got == reference_sse_cor(rho_hat, model, d, 100, simulate_mod.ZETA_DEFAULT)


def reference_haversine_pairs(data):
    """Haversine pairs gathered over triu_indices, in pdist order."""
    iu, ju = np.triu_indices(data.n, k=1)
    pts = data.points
    return _haversine(pts[iu, 0], pts[iu, 1], pts[ju, 0], pts[ju, 1])


def _lat_lon_clouds(n=400):
    rng = np.random.default_rng(24)
    yield "ordinary", (30.0 + 7.0 * rng.random(n), -92.0 + 14.0 * rng.random(n))
    # longitudes 170 to 190 east wrapped into [-180, 180), both edges present
    lon = (170.0 + 20.0 * rng.random(n - 2) + 180.0) % 360.0 - 180.0
    yield "antimeridian", (-20.0 + 40.0 * rng.random(n), np.concatenate([[180.0, -180.0], lon]))
    # a polar cap, the pole itself included
    lat = np.concatenate([[90.0], 85.0 + 5.0 * rng.random(n - 1)])
    yield "pole", (lat, -180.0 + 360.0 * rng.random(n))


@pytest.mark.parametrize("name", ["ordinary", "antimeridian", "pole"])
def test_haversine_pairs_match_the_triu_gather(name):
    lat, lon = dict(_lat_lon_clouds())[name]
    data = Dataset(points=np.column_stack([lat, lon]), responses=np.zeros(lat.size), metric="haversine")
    assert pairwise_distances(data).tobytes() == reference_haversine_pairs(data).tobytes()
