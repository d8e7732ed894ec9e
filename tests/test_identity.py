"""Bit-for-bit identity of the fitting paths with their reference forms.

The references below are the formulas the fits used before they shared
one workspace and one solve per candidate and before they summed second
moments over the kernel's support only: the np.where/prod kernel value, the
annulus profile on every entry, the normal equations with s2 as one einsum
over all design points, GCV from fit_all plus the n x n hat matrix, the
minEpan scan as a fit_all loop, and the bandwidth grid's floor found by one
n x n neighbor mask per scan candidate.  The covariance layer is held to its
forms from before it computed only the pairs its windows reach: pair sums
with every residual product computed up front, and sse_cor evaluating the
true correlation at every distance.  Every comparison is exact (== or
equal bytes), not approximate.
"""

import dataclasses
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
import corrsmooth.simulate as simulate_mod

from corrsmooth.bandwidth import default_grid, gcv_score, gcv_select
from corrsmooth.covariance import (
    _PILOT_POINTS,
    CorrelationCurve,
    _PairSums,
    _pilot_truncation,
    calibrate_b,
    covariance_curve,
)
from corrsmooth.errors import EmptyWindowError
from corrsmooth.kernels import (
    BoundaryKernel,
    ProductEpanechnikovKernel,
    RadialAnnulusKernel,
    build_annulus_kernel,
)
from corrsmooth.locfit import (
    Dataset,
    PairIndex,
    _normal_systems,
    _solve_batched,
    _Workspace,
    fit_all,
    fit_points,
    hat_matrix,
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


def reference_support(data, kernel):
    """The distances a kernel's grid scans and its support (lo, hi) in units of h."""
    if isinstance(kernel, RadialAnnulusKernel):
        return kernel.geometry(data, data.points), kernel.c1, kernel.c2
    return np.abs(kernel.geometry(data, data.points)).max(axis=0), 0.0, 1.0


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


@pytest.mark.parametrize("dim, h", [(2, 1.0), (3, 0.5)])
def test_gcv_matches_reference_when_denominator_nonpositive(dim, h):
    # clusters of D+1 points far apart: each local fit interpolates its own
    # cluster, so tr(H) rounds to about n and 1 - tr(H)/n lands at or below 0
    rng = np.random.default_rng(0)
    pts = np.concatenate([10.0 * c + 0.3 * rng.random((dim + 1, dim)) for c in range(12)])
    data = Dataset(points=pts, responses=rng.normal(size=pts.shape[0]))
    ko = ProductEpanechnikovKernel(dim)
    grid = np.array([h / 100.0, h, 4.0 * h, 40.0 * h])
    assert hat_matrix(data, grid[0], ko)[1].any()  # singular systems
    assert 1.0 - float(np.trace(hat_matrix(data, h, ko)[0])) / data.n <= 0.0
    ref = [reference_gcv_score(data, ko, g) for g in grid]
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
    assert dataclasses.replace(fresh, seconds=out["GCV"].seconds) == out["GCV"]


def reference_weights(ws, h):
    """The kernel at every entry: the annulus profile of dist / h, or the
    np.where/prod product value."""
    if isinstance(ws.kernel, RadialAnnulusKernel):
        return ws.kernel.profile(ws.kernel_geometry / h)
    return reference_product_value(np.moveaxis(ws.kernel_geometry, 0, -1) / h)


def reference_normal_systems(ws, weights):
    """The normal equations with every sum dense, s2 by einsum over all j."""
    data = ws.data
    x, y, xt = data.points, data.responses, ws.targets
    m, d = xt.shape[0], data.dim
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


def reference_solution(ws, h, rhs_fn):
    weights = reference_weights(ws, h)
    a, rhs = reference_normal_systems(ws, weights)
    (z,), singular = _solve_batched(a, rhs_fn(rhs))
    return weights, z, singular


def reference_hat_matrix(data, h, kernel):
    ws = _Workspace(data, kernel)
    weights, z, singular = reference_solution(ws, h, _unit_rhs)
    x = data.points
    lin = z[:, 1:] @ x.T - np.einsum("ik,ik->i", z[:, 1:], x)[:, None]
    return weights * (z[:, 0][:, None] + lin), singular


def _unit_rhs(rhs):
    e1 = np.zeros_like(rhs)
    e1[:, 0] = 1.0
    return e1


def assert_same_bytes(new, ref):
    assert new.shape == ref.shape and new.dtype == ref.dtype
    assert new.tobytes() == ref.tobytes()


def assert_systems_match_reference(ws, h):
    weights, a, rhs = _normal_systems(ws, h)
    assert_same_bytes(weights, reference_weights(ws, h))
    a_ref, rhs_ref = reference_normal_systems(ws, weights)
    assert_same_bytes(a, a_ref)
    assert_same_bytes(rhs, rhs_ref)


@pytest.mark.parametrize("kernel_name", ["za(1,1.5)", "za(2.5,3)"])
def test_annulus_moment_sums_match_dense_on_haversine_design(kernel_name):
    data = dict(_grid_datasets())["haversine"]
    assert (data.points[:, 1] < 0.0).all()
    kernel = _GRID_KERNELS[kernel_name]
    ws = _Workspace(data, kernel)
    for h in default_grid(data, kernel):
        assert_systems_match_reference(ws, float(h))


@pytest.mark.parametrize("c1, c2, hs", [(1.0, 1.5, (2.0, 4.0, 10.0)), (2.5, 3.0, (2.0, 4.0))])
def test_annulus_moment_sums_match_dense_when_distances_tie_support_edges(c1, c2, hs):
    data = dict(_grid_datasets())["lattice"]
    kernel = build_annulus_kernel(c1, c2, 2)
    ws = _Workspace(data, kernel)
    for h in hs:
        r = ws.kernel_geometry / h
        assert (r == c1).any() and (r == c2).any()  # both inclusive edges are hit
        assert_systems_match_reference(ws, h)


@pytest.mark.parametrize("dim", [2, 3])
def test_product_moment_sums_match_dense(dim):
    rng = np.random.default_rng(60 + dim)
    data = Dataset(points=rng.random((180, dim)), responses=rng.normal(size=180))
    kernel = ProductEpanechnikovKernel(dim)
    ws = _Workspace(data, kernel)
    for h in default_grid(data, kernel):
        assert_systems_match_reference(ws, float(h))


@pytest.mark.parametrize("kernel_name", sorted(_GRID_KERNELS))
def test_singular_rows_match_dense(kernel_name):
    # far below the grid floor some targets have no design point in the
    # annulus; the product kernel keeps only each target's own point
    data = dict(_grid_datasets())["euclidean"]
    kernel = _GRID_KERNELS[kernel_name]
    h = float(default_grid(data, kernel)[0]) / 8.0
    ws = _Workspace(data, kernel)
    weights, _, _ = _normal_systems(ws, h)
    if isinstance(kernel, RadialAnnulusKernel):
        assert not weights.any(axis=1).all()  # rows with an empty support
    assert_systems_match_reference(ws, h)
    fit = fit_all(data, h, kernel)
    _, z, singular = reference_solution(ws, h, lambda rhs: rhs)
    assert fit.singular_count == int(singular.sum()) > 0
    assert_same_bytes(fit.fitted, z[:, 0])


@pytest.mark.parametrize("kernel_name", sorted(_GRID_KERNELS))
def test_out_of_sample_fit_matches_dense(kernel_name):
    data = dict(_grid_datasets())["haversine"]
    kernel = _GRID_KERNELS[kernel_name]
    rng = np.random.default_rng(5)
    targets = np.column_stack([30.0 + 7.0 * rng.random(90), -92.0 + 14.0 * rng.random(90)])
    for h in default_grid(data, kernel)[::7]:
        ws = _Workspace(data, kernel, targets=targets)
        assert_systems_match_reference(ws, float(h))
        _, z, singular_ref = reference_solution(ws, float(h), lambda rhs: rhs)
        for layout in (targets, np.asfortranarray(targets)):
            est, singular = fit_points(data, layout, float(h), kernel)
            assert_same_bytes(est, z[:, 0])
            assert np.array_equal(singular, singular_ref)


@pytest.mark.parametrize("kernel_name", sorted(_GRID_KERNELS))
def test_weights_and_fits_do_not_depend_on_memory_layout(kernel_name):
    # Fortran-ordered geometry reaches the kernel as a non-C-contiguous
    # array; Fortran-ordered design points reach every fit
    data = dict(_grid_datasets())["euclidean"]
    kernel = _GRID_KERNELS[kernel_name]
    ws = _Workspace(data, kernel)
    flipped = Dataset(np.asfortranarray(data.points), data.responses)
    targets = data.points[::3] + 0.01
    for h in default_grid(data, kernel)[::9]:
        geometry = np.asfortranarray(ws.kernel_geometry)
        assert not geometry.flags.c_contiguous
        weights, positions = kernel.weights(geometry, float(h))
        assert_same_bytes(weights, reference_weights(ws, float(h)))
        assert_same_bytes(positions, ws.kernel.weights(ws.kernel_geometry, float(h))[1])
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
        assert_same_bytes(c, c_ref)
        assert np.array_equal(singular, singular_ref)


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
    f"ResultRow({_GOLDEN_BASE}, method='minEpan', mse_prac_mean=0.014403563971919607, "
    "mse_prac_sd=0.0, mse_sigma2_mean=nan, mse_sigma2_sd=nan, sse_cor_mean=nan, "
    "sse_cor_sd=nan, failures=0)",
    f"ResultRow({_GOLDEN_BASE}, method='Raw', mse_prac_mean=nan, mse_prac_sd=nan, "
    "mse_sigma2_mean=0.0003526009937590173, mse_sigma2_sd=0.0, "
    "sse_cor_mean=3.7447634036751647, sse_cor_sd=0.0, failures=0)",
    f"ResultRow({_GOLDEN_BASE}, method='ZA(1,1.5)', mse_prac_mean=0.026484976687090676, "
    "mse_prac_sd=0.0, mse_sigma2_mean=9.050663955276551e-05, mse_sigma2_sd=0.0, "
    "sse_cor_mean=3.877842649180275, sse_cor_sd=0.0, failures=0)",
    f"ResultRow({_GOLDEN_BASE}, method='GCV', mse_prac_mean=0.024325235634415052, "
    "mse_prac_sd=0.0, mse_sigma2_mean=0.0016933304833041535, mse_sigma2_sd=0.0, "
    "sse_cor_mean=28.437441485498766, sse_cor_sd=0.0, failures=0)",
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
    product-kernel sweeps shared one workspace and one solve per candidate.

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


class ReferencePairSums:
    """The pair sums with every product r[i] * r[j] computed up front."""

    def __init__(self, residuals, index):
        residuals = np.asarray(residuals, dtype=float)
        self.n = residuals.shape[0]
        self.dist = index.dist
        self.prod = residuals[index.i]
        self.prod *= residuals[index.j]
        self.diag = float(residuals @ residuals)

    def estimate(self, t, b):
        kernel = BoundaryKernel(q=t / b)
        lo = np.searchsorted(self.dist, t - b, side="right")
        hi = np.searchsorted(self.dist, t + b, side="right")
        u = (t - self.dist[lo:hi]) / b
        w = kernel.value(u)
        num = 2.0 * float(w @ self.prod[lo:hi])
        den = 2.0 * float(w.sum())
        w_diag = float(kernel.value(np.asarray(t / b)))
        num += w_diag * self.diag
        den += w_diag * self.n
        mass = 2.0 * float(np.abs(w).sum()) + abs(w_diag) * self.n
        if mass == 0.0 or abs(den) < 1e-10 * mass:
            raise EmptyWindowError(t, b)
        return num / den


def estimates_or_empty(pairs, lags, b):
    """The estimate at each lag, or None where its window is empty."""
    out = []
    for t in lags:
        try:
            out.append(pairs.estimate(float(t), b))
        except EmptyWindowError:
            out.append(None)
    return out


def test_calibration_pilot_and_curve_match_eager_products(exponential_field):
    data = exponential_field
    r = data.responses
    s2 = float(r @ r / data.n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cal = calibrate_b(data, r, s2)
        curve = covariance_curve(data, r, cal.chosen_b, sigma2_hat=s2)
    ref = ReferencePairSums(r, data.pair_index)
    assert list(cal.sigma2_tilde) == [ref.estimate(0.0, float(b)) for b in cal.b_candidates]
    b = cal.chosen_b
    tilde = ref.estimate(0.0, b)
    assert curve.sigma2_tilde == curve.c_hat[0] == tilde
    assert curve.truncation_t == _pilot_truncation(ref, b, tilde) > 0.0
    # every pilot lag up to half the largest distance, past the truncation too
    upper = float(ref.dist[-1]) / 2.0
    pilot = np.linspace(upper / _PILOT_POINTS, upper, _PILOT_POINTS)
    pairs = _PairSums(r, data.pair_index)
    pairs.estimate(0.0, b)
    assert estimates_or_empty(pairs, pilot, b) == estimates_or_empty(ref, pilot, b)
    assert curve.dropped.size == 0 and curve.c_hat[-1] == 0.0  # the clamp at T
    assert list(curve.c_hat[1:-1]) == [ref.estimate(float(t), b) for t in curve.t_grid[1:-1]]


def test_window_reaching_the_last_pair_matches_eager_products(exponential_field):
    r = exponential_field.responses
    index = exponential_field.pair_index
    ref = ReferencePairSums(r, index)
    d_max = float(index.dist[-1])
    b = d_max / 50.0
    pairs = _PairSums(r, index)
    assert pairs.estimate(0.0, b) == ref.estimate(0.0, b)  # a short head first
    for t in (d_max - b / 2.0, d_max):
        assert pairs.estimate(t, b) == ref.estimate(t, b)
    assert pairs.filled == index.dist.size


@pytest.mark.parametrize("n", [2, 3])
def test_tiny_designs_match_eager_products(n):
    rng = np.random.default_rng(n)
    pts = rng.random((n, 1))
    r = rng.normal(size=n)
    index = PairIndex.from_distances(np.abs(pts - pts.T)[np.triu_indices(n, k=1)], n)
    d_max = float(index.dist[-1])
    lags = [0.0, *index.dist, d_max / 2.0, 2.0 * d_max]
    for b in (d_max / 4.0, d_max, 4.0 * d_max):
        assert estimates_or_empty(_PairSums(r, index), lags, b) == estimates_or_empty(
            ReferencePairSums(r, index), lags, b
        )
    if n == 3:  # the smallest Dataset in one dimension
        data = Dataset(points=pts, responses=r)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cal = calibrate_b(data, r, float(r @ r / n))
        ref = ReferencePairSums(r, data.pair_index)
        assert list(cal.sigma2_tilde) == [ref.estimate(0.0, float(b)) for b in cal.b_candidates]


def reference_sse_cor(rho_hat, model, distances, n, zeta):
    """sse_cor with the true correlation evaluated at every distance."""
    d = np.asarray(distances, dtype=float)
    kept_d, kept_rho = [], []
    for start in range(0, d.size, simulate_mod._SSE_CHUNK):
        chunk = d[start : start + simulate_mod._SSE_CHUNK]
        rho_true = correlation_value(model, chunk, n)
        mask = rho_true >= zeta
        kept_d.append(chunk[mask])
        kept_rho.append(rho_true[mask])
    if not any(part.size for part in kept_d):
        return 0.0
    diff = rho_hat.interpolate(np.concatenate(kept_d)) - np.concatenate(kept_rho)
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
