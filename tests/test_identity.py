"""Bit-for-bit identity of the product-kernel sweeps with their reference forms.

The references below are the formulas the sweeps used before they shared
one workspace and one solve per candidate: the np.where/prod kernel value,
GCV from fit_all plus the n x n hat matrix, the minEpan scan as a fit_all
loop, and the bandwidth grid's floor found by one n x n neighbor mask per
scan candidate.  Every comparison is exact (==), not approximate.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import corrsmooth

from corrsmooth.bandwidth import default_grid, gcv_score, gcv_select
from corrsmooth.kernels import (
    ProductEpanechnikovKernel,
    RadialAnnulusKernel,
    build_annulus_kernel,
)
from corrsmooth.locfit import Dataset, fit_all, hat_matrix, rss
from corrsmooth.simulate import (
    CorrelationModel,
    SimScenario,
    generate,
    min_epan_mse,
    mse_prac,
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


def test_min_epan_mse_matches_fit_all_loop():
    model = CorrelationModel("spherical", c=2.0, alpha=1.0, dim=2, sigma2=0.1)
    sim = generate(SimScenario("mu2d", 150, model, seed=17), 0)
    extra = [0.05, 0.2137, np.nan]
    assert min_epan_mse(sim, extra_h=extra) == reference_min_epan_mse(sim, extra[:2])


_GOLDEN_SCRIPT = """
import warnings
from corrsmooth.simulate import CorrelationModel, SimScenario, run_table
model = CorrelationModel("spherical", c=2.0, alpha=1.0, dim=2, sigma2=0.1)
scn = SimScenario("mu2d", 150, model, seed=2024, n_trials=1)
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    rows = run_table([scn], ["za(1,1.5)", "gcv"], n_star=40)
for row in rows:
    print(repr(row))
"""


def test_run_table_golden_rows():
    """run_table rows for one small seeded scenario, recorded before the
    product-kernel sweeps shared one workspace and one solve per candidate.

    The rows come from a child interpreter with OpenBLAS pinned to one
    thread, because generate's eigendecomposition rounds differently with
    more BLAS threads.  Re-record these values only together with a
    CHANGES.md note that says which numbers moved and why.
    """
    src = str(Path(corrsmooth.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _GOLDEN_SCRIPT], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    )
    base = ("family='spherical', c=2.0, alpha=1.0, dim=2, n=150, sigma2=0.1, "
            "seed=2024, n_trials=1")
    expected = [
        f"ResultRow({base}, method='minEpan', mse_prac_mean=0.014403563971919607, "
        "mse_prac_sd=0.0, mse_sigma2_mean=nan, mse_sigma2_sd=nan, sse_cor_mean=nan, "
        "sse_cor_sd=nan, failures=0)",
        f"ResultRow({base}, method='Raw', mse_prac_mean=nan, mse_prac_sd=nan, "
        "mse_sigma2_mean=0.0003526009937590173, mse_sigma2_sd=0.0, "
        "sse_cor_mean=3.7447634036751647, sse_cor_sd=0.0, failures=0)",
        f"ResultRow({base}, method='ZA(1,1.5)', mse_prac_mean=0.026484976687090676, "
        "mse_prac_sd=0.0, mse_sigma2_mean=9.050663955276551e-05, mse_sigma2_sd=0.0, "
        "sse_cor_mean=3.877842649180275, sse_cor_sd=0.0, failures=0)",
        f"ResultRow({base}, method='GCV', mse_prac_mean=0.024325235634415052, "
        "mse_prac_sd=0.0, mse_sigma2_mean=0.0016933304833041535, mse_sigma2_sd=0.0, "
        "sse_cor_mean=28.437441485498766, sse_cor_sd=0.0, failures=0)",
    ]
    assert out.stdout.splitlines() == expected
