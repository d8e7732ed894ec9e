import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate

from corrsmooth.bandwidth import (
    default_grid,
    elbow_scan,
    factor_ratio,
    gcv_select,
    oracle_bandwidth,
    select_h_o,
    select_h_z,
    variance_fit_bandwidth,
)
from corrsmooth.errors import CorrsmoothError, NoElbowError, NoFeasibleBandwidthError
from corrsmooth.kernels import (
    MIN_AMISE,
    ProductEpanechnikovKernel,
    build_annulus_kernel,
)
from corrsmooth.locfit import Dataset, fit_all, fit_points, hat_matrix, rss
from corrsmooth.simulate import (
    CorrelationModel,
    SimScenario,
    generate,
    mse_prac,
    mu2d,
)

from conftest import make_affine_dataset

KZ = build_annulus_kernel(1.0, 1.5, 2, MIN_AMISE)
KO = ProductEpanechnikovKernel(2)


def test_select_on_affine_data_prefers_smallest_feasible():
    data = make_affine_dataset(n=150, dim=2, seed=4)
    grid = np.geomspace(0.1, 0.8, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sel = select_h_z(data, KZ, grid)
    feasible = np.isfinite(sel.rss_trace)
    assert np.all(sel.rss_trace[feasible] < 1e-16)  # RSS ~ 0 everywhere feasible
    # those RSS values are rounding noise, so their argmin is arbitrary; with
    # responses of exactly 0 every feasible RSS is exactly 0.0, a true tie
    zero = Dataset(points=data.points, responses=np.zeros(data.n))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tied = select_h_z(zero, KZ, grid)
    assert np.array_equal(np.isfinite(tied.rss_trace), feasible)
    assert np.all(tied.rss_trace[feasible] == 0.0)
    assert tied.h_z == grid[np.flatnonzero(feasible)[0]]  # ties go to the smaller h


def test_select_errors_when_every_candidate_singular():
    data = make_affine_dataset(n=60, dim=2, seed=5)
    with pytest.raises(NoFeasibleBandwidthError, match="grid bound"):
        select_h_z(data, KZ, np.array([1e-6]))


def test_select_validates_grid():
    data = make_affine_dataset(n=60, dim=2, seed=5)
    with pytest.raises(ValueError):
        select_h_z(data, KZ, np.array([]))
    with pytest.raises(ValueError):
        select_h_z(data, KZ, np.array([0.2, 0.1]))
    with pytest.raises(ValueError):
        select_h_z(data, KZ, np.array([-0.1, 0.2]))


def test_grid_subset_containing_hz_returns_same_hz():
    model = CorrelationModel("spherical", c=2.0, alpha=1.0, dim=2, sigma2=0.1)
    sim = generate(SimScenario("mu2d", 300, model, seed=77, n_trials=1), 0)
    grid = default_grid(sim.dataset, KZ, size=12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sel = select_h_z(sim.dataset, KZ, grid)
        sub = grid[np.isin(grid, [grid[0], sel.h_z, grid[-1]])]
        sel2 = select_h_z(sim.dataset, KZ, sub)
    assert sel2.h_z == sel.h_z


def test_select_h_o_identity_and_linearity():
    # one-point grids fix h_z; the cloud spans [0, 2]^2, so both are feasible
    data = make_affine_dataset(n=400, dim=2, seed=4)
    data = Dataset(points=2.0 * data.points, responses=data.responses)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sel = select_h_o(data, KZ, grid=[0.5])
        h2 = select_h_o(data, KZ, grid=[1.0]).h_o
    h1 = sel.h_o
    assert sel.h_z == 0.5
    assert sel.factor_ratio == factor_ratio(KZ, KO)  # the target is the product kernel
    assert h1 == 0.5 * factor_ratio(KZ, KO)
    assert h2 == pytest.approx(2.0 * h1)  # doubling h_z doubles h_o


def test_select_h_o_default_grid_matches_select_h_z():
    model = CorrelationModel("spherical", c=2.0, alpha=1.0, dim=2, sigma2=0.1)
    sim = generate(SimScenario("mu2d", 200, model, seed=12, n_trials=1), 0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sel = select_h_o(sim.dataset, KZ, grid_size=12)
        ref = select_h_z(sim.dataset, KZ, default_grid(sim.dataset, KZ, size=12))
    assert sel.grid.tobytes() == ref.grid.tobytes()
    assert sel.rss_trace.tobytes() == ref.rss_trace.tobytes()
    assert sel.h_z == ref.h_z
    assert sel.h_o == ref.h_z * factor_ratio(KZ, KO)


def test_factor_ratio_plugin_formula():
    mz = KZ.moments()
    expected = (0.36 * mz.mu2**2 / (0.04 * mz.muK2)) ** (1.0 / 6.0)
    assert factor_ratio(KZ, KO) == pytest.approx(expected, rel=1e-12)
    assert 0.5 * factor_ratio(KZ, KO) == pytest.approx(
        0.5 * ((9.0 / 25.0) * mz.mu2**2 / ((1.0 / 25.0) * mz.muK2)) ** (1.0 / 6.0)
    )


def test_factor_ratio_rejects_kernels_of_different_dimensions():
    with pytest.raises(ValueError, match="dimensions differ"):
        factor_ratio(KZ, ProductEpanechnikovKernel(3))


def test_default_grid_bounds():
    model = CorrelationModel("spherical", c=2.0, alpha=1.0, dim=2, sigma2=0.1)
    sim = generate(SimScenario("mu2d", 400, model, seed=3, n_trials=1), 0)
    grid = default_grid(sim.dataset, KZ)
    assert grid.size == 30
    assert np.all(np.diff(grid) > 0)
    # upper end: annulus reach covers half the cloud diameter
    from corrsmooth.locfit import pairwise_distances

    diam = pairwise_distances(sim.dataset).max()
    assert grid[-1] == pytest.approx(diam / (2.0 * KZ.c1))
    # lower end keeps at least 2(D+1) annulus neighbors for 99% of points
    fit = fit_all(sim.dataset, grid[0], KZ)
    assert fit.singular_count <= 0.02 * sim.dataset.n


def test_gcv_matches_hand_computation_on_toy():
    # dense-algebra GCV on n=10: build every hat row with explicit inverses
    rng = np.random.default_rng(14)
    pts = rng.random((10, 2))
    y = rng.normal(size=10)
    data = Dataset(points=pts, responses=y)
    h = 0.9
    hat = np.zeros((10, 10))
    for i in range(10):
        u = (pts - pts[i]) / h
        w = np.prod(np.where(np.abs(u) <= 1, 0.75 * (1 - u * u), 0.0), axis=1)
        xmat = np.column_stack([np.ones(10), pts - pts[i]])
        a_inv = np.linalg.inv(xmat.T @ (w[:, None] * xmat))
        hat[i] = (a_inv[0] @ (xmat.T * w))
    resid = y - hat @ y
    expected = (resid @ resid / 10.0) / (1.0 - np.trace(hat) / 10.0) ** 2
    from corrsmooth.bandwidth import gcv_score

    assert gcv_score(data, KO, h) == pytest.approx(expected, abs=1e-12)
    assert gcv_select(data, KO, np.array([h])) == h


def test_gcv_near_oracle_on_iid_errors():
    # with uncorrelated errors GCV should land within a factor 2 of the
    # exhaustive-scan optimum on the same grid
    rng = np.random.default_rng(101)
    x = rng.random((300, 2))
    truth = mu2d(x)
    y = truth + 0.2 * rng.standard_normal(300)
    data = Dataset(points=x, responses=y)
    grid = default_grid(data, KO, size=20)
    h_gcv = gcv_select(data, KO, grid)
    scan = []
    for h in grid:
        fit = fit_all(data, h, KO)
        scan.append(mse_prac(fit.fitted, truth) if fit.singular_count == 0 else np.inf)
    h_best = grid[int(np.argmin(scan))]
    assert 0.5 <= h_gcv / h_best <= 2.0


def test_gcv_undersmooths_under_strong_correlation():
    model = CorrelationModel("spherical", c=3.0, alpha=1.0, dim=2, sigma2=0.1)
    sim = generate(SimScenario("mu2d", 400, model, seed=55, n_trials=1), 0)
    kz = build_annulus_kernel(2.0, 2.5, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        h_o = select_h_o(sim.dataset, kz).h_o
        h_gcv = gcv_select(sim.dataset, KO, default_grid(sim.dataset, KO))
    assert h_gcv < h_o


def test_elbow_constant_trace_picks_second_element(monkeypatch):
    # synthetic constant C-bar trace: stability holds from the start
    import corrsmooth.bandwidth as bw

    data = make_affine_dataset(n=80, dim=2, seed=6)
    c1s = np.array([0.5, 1.0, 1.5, 2.0])
    kernels = iter([build_annulus_kernel(c1, c1 + 0.5, 2) for c1 in c1s])

    def fake_pick(grid, trace):  # one call per candidate, in c1 order
        m = next(kernels).moments()
        return (m.muK2 / m.mu2**2) ** (1.0 / 6.0) / 7.0  # forces C-bar == 7

    monkeypatch.setattr(bw, "_pick_h_z", fake_pick)
    diag = bw.elbow_scan(data, c1s)
    assert_allclose(diag.cbar_list, 7.0)
    assert diag.chosen_index == 1
    assert diag.chosen_c1 == c1s[1]


def test_elbow_strictly_decreasing_trace_errors(monkeypatch):
    import corrsmooth.bandwidth as bw

    data = make_affine_dataset(n=80, dim=2, seed=6)
    c1s = np.array([0.5, 1.0, 1.5, 2.0, 2.5])
    kernels = iter([build_annulus_kernel(c1, c1 + 0.5, 2) for c1 in c1s])
    values = iter([16.0, 8.0, 4.0, 2.0, 1.0])

    def fake_pick(grid, trace):  # one call per candidate, in c1 order
        m = next(kernels).moments()
        return (m.muK2 / m.mu2**2) ** (1.0 / 6.0) / next(values)

    monkeypatch.setattr(bw, "_pick_h_z", fake_pick)
    with pytest.raises(NoElbowError, match="no elbow"):
        bw.elbow_scan(data, c1s)


def test_elbow_needs_three_candidates():
    data = make_affine_dataset(n=80, dim=2, seed=6)
    with pytest.raises(ValueError, match=">= 3 candidates"):
        elbow_scan(data, [1.0])


def test_elbow_gap_handling():
    # c1 = 40 leaves no bandwidth with enough positive-weight neighbors
    # (NoFeasibleBandwidthError), so it must become a gap, not end the scan
    model = CorrelationModel("spherical", c=2.0, alpha=1.0, dim=2, sigma2=0.1)
    sim = generate(SimScenario("mu2d", 250, model, seed=9, n_trials=1), 0)
    with pytest.raises(NoFeasibleBandwidthError):
        default_grid(sim.dataset, build_annulus_kernel(40.0, 40.5, 2), size=10)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        diag = elbow_scan(sim.dataset, [0.5, 1.0, 1.5, 2.0, 40.0], grid_size=10)
    assert diag.feasible.tolist() == [True, True, True, True, False]
    assert np.isnan(diag.cbar_list[-1])
    assert diag.chosen_c1 in (1.0, 1.5, 2.0)


@pytest.mark.parametrize("c1_list, c2_offset", [
    ([0.0, 0.5, 1.0, 1.5], 0.5),  # c1 = 0 is no candidate
    ([0.5, 1.0, 1.5], -1.0),  # c2 < c1 is a bad argument, not three gaps
])
def test_elbow_bad_arguments_raise(c1_list, c2_offset):
    data = make_affine_dataset(n=80, dim=2, seed=6)
    with pytest.raises(ValueError):
        elbow_scan(data, c1_list, c2_offset=c2_offset)


@pytest.fixture()
def distance_builds(monkeypatch):
    """Records the target count of every metric distance matrix built."""
    import corrsmooth.locfit as locfit_mod

    builds = []
    real = locfit_mod._metric_distances

    def counting(data, targets):
        builds.append(len(targets))
        return real(data, targets)

    monkeypatch.setattr(locfit_mod, "_metric_distances", counting)
    return builds


def test_elbow_scan_builds_distance_matrix_once(distance_builds):
    model = CorrelationModel("spherical", c=2.0, alpha=1.0, dim=2, sigma2=0.1)
    sim = generate(SimScenario("mu2d", 200, model, seed=9, n_trials=1), 0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        diag = elbow_scan(sim.dataset, [0.5, 1.0, 1.5, 2.0, 2.5], grid_size=10)
    assert diag.feasible.all()
    assert distance_builds == [200]


def test_za_trial_builds_distance_matrix_once(distance_builds):
    from corrsmooth.simulate import MethodSpec, run_method_trial

    model = CorrelationModel("spherical", c=2.0, alpha=1.0, dim=2, sigma2=0.1)
    sim = generate(SimScenario("mu2d", 150, model, seed=9, n_trials=1), 0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = run_method_trial(sim, MethodSpec("za", 1.0, 1.5), n_star=40)
    assert np.isfinite(out.h)
    assert distance_builds == [150]


def test_cli_fit_builds_distance_matrix_once(distance_builds, tmp_path):
    from corrsmooth.cli import main

    model = CorrelationModel("spherical", c=2.0, alpha=1.0, dim=2, sigma2=0.1)
    data = generate(SimScenario("mu2d", 150, model, seed=9, n_trials=1), 0).dataset
    csv_path = tmp_path / "data.csv"
    rows = np.column_stack([data.points, data.responses])
    csv_path.write_text("x1,x2,y\n" + "".join(f"{a!r},{b!r},{c!r}\n" for a, b, c in rows.tolist()))
    argv = ["fit", "--input", str(csv_path), "--grid-size", "10", "--surface-grid", "5"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main([*argv, "--output-dir", str(tmp_path / "fit")]) == 0
    assert distance_builds == [150]


def test_error_covariance_builds_displacements_once(monkeypatch):
    import corrsmooth.locfit as locfit_mod
    from corrsmooth.covariance import error_covariance

    builds = []
    real = locfit_mod._component_displacements

    def counting(data, targets):
        builds.append(len(targets))
        return real(data, targets)

    monkeypatch.setattr(locfit_mod, "_component_displacements", counting)
    model = CorrelationModel("spherical", c=2.0, alpha=1.0, dim=2, sigma2=0.1)
    data = generate(SimScenario("mu2d", 150, model, seed=9, n_trials=1), 0).dataset
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        chain = error_covariance(data, 0.3, n_star=40)
    assert chain.fit.singular_count == 0 and chain.h_t > 0.3
    assert builds == [150]  # the final fit at h_o and the variance fit at h_t share it


def test_annulus_kernel_rejects_a_design_of_another_dimension():
    model = CorrelationModel("spherical", c=2.0, alpha=1.0, dim=2, sigma2=0.1)
    data = generate(SimScenario("mu2d", 300, model, seed=3, n_trials=1), 0).dataset
    kz3 = build_annulus_kernel(1.0, 1.5, 3)
    grid = default_grid(data, KZ)
    for call in (
        lambda: default_grid(data, kz3),
        lambda: select_h_z(data, kz3, grid),
        lambda: fit_all(data, float(grid[10]), kz3),
        lambda: fit_points(data, data.points[:5], float(grid[10]), kz3),
    ):
        with pytest.raises(ValueError, match="dimension"):
            call()

def test_elbow_determinism():
    model = CorrelationModel("spherical", c=2.0, alpha=1.0, dim=2, sigma2=0.1)
    sim = generate(SimScenario("mu2d", 250, model, seed=9, n_trials=1), 0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        d1 = elbow_scan(sim.dataset, [0.5, 1.0, 1.5, 2.0], grid_size=10)
        d2 = elbow_scan(sim.dataset, [0.5, 1.0, 1.5, 2.0], grid_size=10)
    assert d1.chosen_c1 == d2.chosen_c1
    assert_allclose(d1.cbar_list, d2.cbar_list, rtol=0, atol=0)


def test_elbow_reproduction_on_geo_fixture(geo_dataset):
    # seeded stand-in for the county-mortality workflow: the stability
    # heuristic must land where the visual pick does, c1 in [0.75, 2.0]
    data, _, _ = geo_dataset
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        diag = elbow_scan(data, np.arange(0.25, 6.01, 0.25), grid_size=20)
    assert 0.75 <= diag.chosen_c1 <= 2.0
    assert diag.c1_list.size == 24


def test_elbow_warns_of_grid_boundary_picks_as_the_dense_selections_do(geo_dataset):
    # the elbow picks from its one prefix-sum pass, select_h_o from one dense
    # scan per kernel; both say the same for every pick on the grid's edge
    data, _, _ = geo_dataset
    c1s = np.arange(0.25, 3.01, 0.5)
    with warnings.catch_warnings(record=True) as elbow:
        warnings.simplefilter("always")
        elbow_scan(data, c1s, grid_size=6, stability_tol=np.inf)
    with warnings.catch_warnings(record=True) as dense:
        warnings.simplefilter("always")
        for c1 in c1s:
            select_h_o(data, build_annulus_kernel(c1, c1 + 0.5, 2), grid_size=6)
    assert len(elbow) == 3  # three of the six picks sit on a grid edge
    assert [str(w.message) for w in elbow] == [str(w.message) for w in dense]
    assert all("sits on the grid boundary" in str(w.message) for w in elbow)


def test_variance_fit_bandwidth_exponent_arithmetic():
    # D=2, n=500: h_T = h * 500^(1/6 - 1/10) = h * 500^(1/15)
    assert variance_fit_bandwidth(0.2, 500, 2) == pytest.approx(0.2 * 500 ** (1.0 / 15.0))


def test_oracle_bandwidth_spherical_constant():
    model = CorrelationModel("spherical", c=2.0, alpha=1.0, dim=2, sigma2=0.1)
    crho = model.correlation_integral()
    assert abs(crho - np.pi * 4.0 / 5.0) < 1e-3  # analytic pi c^2 / 5
    h = oracle_bandwidth(model, mu2d, KO, 500)
    # independent recomputation: Delta_f = 4 for this mean surface
    expected = (
        (4.0 * 0.1 * (crho + 1.0) / 16.0) * (0.36 / 0.04)
    ) ** (1.0 / 6.0) * 500 ** (-1.0 / 6.0)
    assert h == pytest.approx(expected, rel=1e-3)


def test_oracle_bandwidth_n_scaling():
    model = CorrelationModel("spherical", c=2.0, alpha=0.8, dim=2, sigma2=0.1)
    h1 = oracle_bandwidth(model, mu2d, KO, 500)
    h2 = oracle_bandwidth(model, mu2d, KO, 1000)
    assert h2 / h1 == pytest.approx(2.0 ** (-0.8 / 6.0), rel=1e-12)


def test_oracle_bandwidth_rejects_degenerate_noise():
    model = CorrelationModel("spherical", c=2.0, alpha=1.0, dim=2, sigma2=0.0)
    with pytest.raises(ValueError, match="degenerate noise"):
        oracle_bandwidth(model, mu2d, KO, 500)


def test_oracle_bandwidth_rejects_kernel_of_other_dimension():
    model = CorrelationModel("spherical", c=2.0, alpha=1.0, dim=2, sigma2=0.1)
    with pytest.raises(ValueError, match="differs from the model"):
        oracle_bandwidth(model, mu2d, ProductEpanechnikovKernel(3), 500)


def test_oracle_bandwidth_rejects_nonintegrable_family():
    model = CorrelationModel("inverse_quadratic", c=3.0, alpha=1.0, dim=2, sigma2=0.1)
    with pytest.raises(CorrsmoothError, match="not integrable"):
        oracle_bandwidth(model, mu2d, KO, 500)


def test_oracle_exponential_family_has_closed_form():
    # C_rho for the exponential profile in D=2 is 2*pi/c^2
    for c in (1.0, 2.5):
        assert CorrelationModel("exponential", c=c, dim=2).correlation_integral() == (
            pytest.approx(2.0 * np.pi / c**2, rel=1e-8)
        )
