import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.spatial.distance import squareform

import corrsmooth.simulate as simulate
from corrsmooth.cli import main
from corrsmooth.errors import SingularFitError
from corrsmooth.kernels import ProductEpanechnikovKernel, build_annulus_kernel
from corrsmooth.locfit import Dataset, hat_matrix, pairwise_distances
from corrsmooth.simulate import (
    CorrelationModel,
    MethodSpec,
    SimScenario,
    correlation_penalty,
    correlation_value,
    draw_correlated_errors,
    generate,
    min_epan_mse,
    mse_prac,
    mu2d,
    mu3d,
    parse_method,
    run_table,
    run_trial,
    sse_cor,
)


def test_correlation_value_at_zero_is_one():
    for family in ("spherical", "exponential", "inverse_quadratic"):
        model = CorrelationModel(family, c=2.0, alpha=1.0, dim=2)
        assert correlation_value(model, 0.0, 500) == 1.0


def test_spherical_support_edge():
    model = CorrelationModel("spherical", c=2.0, alpha=1.0, dim=2)
    edge = 2.0 * 500 ** (-0.5)
    assert correlation_value(model, edge, 500) == pytest.approx(0.0, abs=1e-12)
    assert correlation_value(model, edge * 1.01, 500) == 0.0


def test_inverse_quadratic_half_value():
    # solve 1/(1 + c n^{2a/D} t^2) = 1/2 at t = n^{-a/D}/sqrt(c)
    model = CorrelationModel("inverse_quadratic", c=3.0, alpha=1.0, dim=2)
    t = 500 ** (-0.5) / np.sqrt(3.0)
    assert correlation_value(model, t, 500) == pytest.approx(0.5, rel=1e-12)


def test_correlation_nonincreasing_in_lag():
    ts = np.linspace(0.0, 0.5, 200)
    for family, c in [("spherical", 2.0), ("exponential", 1.5), ("inverse_quadratic", 5.0)]:
        model = CorrelationModel(family, c=c, alpha=1.0, dim=2)
        vals = correlation_value(model, ts, 500)
        assert np.all(np.diff(vals) <= 1e-15)


def test_model_validation():
    with pytest.raises(ValueError, match="family"):
        CorrelationModel("gaussian", c=1.0)
    with pytest.raises(ValueError):
        CorrelationModel("spherical", c=-1.0)
    with pytest.raises(ValueError):
        CorrelationModel("spherical", c=1.0, alpha=1.5)


def test_scenario_validation():
    model = CorrelationModel("spherical", c=2.0, dim=2)
    with pytest.raises(ValueError, match="D=3"):
        SimScenario("mu3d", 100, model, seed=0)
    with pytest.raises(ValueError, match="mu_id"):
        SimScenario("mu9d", 100, model, seed=0)


def test_generate_deterministic_and_zero_noise():
    model = CorrelationModel("spherical", c=2.0, alpha=1.0, dim=2, sigma2=0.1)
    scn = SimScenario("mu2d", 100, model, seed=123, n_trials=3)
    a = generate(scn, 1)
    b = generate(scn, 1)
    assert np.array_equal(a.dataset.points, b.dataset.points)
    assert np.array_equal(a.errors, b.errors)
    c = generate(scn, 2)
    assert not np.array_equal(a.errors, c.errors)

    quiet = SimScenario(
        "mu2d", 100, CorrelationModel("spherical", c=2.0, sigma2=0.0), seed=5
    )
    sim = generate(quiet, 0)
    assert np.array_equal(sim.dataset.responses, sim.mu_true)


def test_generator_stream_pins():
    # PCG64 stream stability: first uniforms for a known seed
    rng = np.random.default_rng(12345)
    assert_allclose(
        rng.random(3),
        [0.22733602246716966, 0.31675833970975287, 0.7973654573327341],
        rtol=0,
        atol=0,
    )


def test_generated_moments_match_model():
    # Monte-Carlo oracle on a fixed 2-point design: variance and pairwise
    # correlation within 3 standard errors over many replicates
    model = CorrelationModel("spherical", c=2.0, alpha=1.0, dim=2, sigma2=0.1)
    n_rep = 10**4
    pts = np.array([[0.3, 0.3], [0.3 + 0.04, 0.3]])
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff * diff).sum(-1))
    rho = correlation_value(model, dist, 2)
    cov = 0.1 * rho
    rng = np.random.default_rng(777)
    from corrsmooth.simulate import draw_correlated_errors

    draws = np.array([draw_correlated_errors(cov, rng) for _ in range(n_rep)])
    var_est = draws[:, 0].var(ddof=1)
    se_var = np.sqrt(2.0 / (n_rep - 1)) * 0.1
    assert abs(var_est - 0.1) < 3 * se_var
    corr_est = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
    target = rho[0, 1]
    se_corr = (1 - target**2) / np.sqrt(n_rep)
    assert abs(corr_est - target) < 3 * se_corr


def test_generated_covariance_matrix_symmetric_psd():
    model = CorrelationModel("inverse_quadratic", c=7.0, alpha=1.0, dim=2, sigma2=0.1)
    scn = SimScenario("mu2d", 150, model, seed=99)
    sim = generate(scn, 0)
    dist = squareform(pairwise_distances(sim.dataset))
    cov = 0.1 * correlation_value(model, dist, 150)
    assert np.abs(cov - cov.T).max() == 0.0
    vals = np.linalg.eigvalsh(cov + 1e-10 * 0.1 * np.eye(150))
    assert vals.min() > -1e-8


def test_mu_functions():
    x = np.array([[0.5, 0.25]])
    assert mu2d(x)[0] == pytest.approx(2 * 0.25 + 2 * np.cos(np.pi * 0.25))
    x3 = np.array([[0.1, 0.5, 0.2]])
    assert mu3d(x3)[0] == pytest.approx(0.1 + np.sin(np.pi * 0.5) + 2 * 0.04)


def test_mse_prac_arithmetic():
    assert mse_prac([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert mse_prac([2.0, 1.0], [1.0, 2.0]) == 1.0
    with pytest.raises(ValueError):
        mse_prac([1.0], [1.0, 2.0])


def test_sse_cor_zero_cases():
    model = CorrelationModel("spherical", c=2.0, alpha=1.0, dim=2)
    d = np.array([0.01, 0.05, 0.4])

    class PerfectRho:
        def interpolate(self, t):
            return correlation_value(model, t, 500)

    assert sse_cor(PerfectRho(), model, d, 500) == 0.0
    # every pair below threshold: empty sum
    far = np.array([0.5, 0.9])
    assert sse_cor(PerfectRho(), model, far, 500) == 0.0
    with pytest.raises(ValueError):
        sse_cor(PerfectRho(), model, d, 500, zeta=1.5)


def test_sse_cor_counts_only_correlated_pairs():
    model = CorrelationModel("spherical", c=2.0, alpha=1.0, dim=2)
    d = np.array([0.01, 0.5])  # second pair has rho = 0 < zeta

    class ZeroRho:
        def interpolate(self, t):
            return np.zeros_like(np.asarray(t))

    truth = correlation_value(model, 0.01, 500)
    assert sse_cor(ZeroRho(), model, d, 500) == pytest.approx(truth**2)


def test_correlation_penalty_uncorrelated_model_is_zero():
    rng = np.random.default_rng(17)
    data = Dataset(points=rng.random((50, 2)), responses=rng.normal(size=50))
    # spherical with minuscule range: every off-diagonal rho is 0
    model = CorrelationModel("spherical", c=1e-9, alpha=1.0, dim=2, sigma2=0.1)
    val = correlation_penalty(data, model, 0.4, ProductEpanechnikovKernel(2))
    assert val == 0.0


def test_correlation_penalty_matches_hand_sum():
    rng = np.random.default_rng(18)
    data = Dataset(points=rng.random((12, 2)), responses=rng.normal(size=12))
    model = CorrelationModel("spherical", c=2.0, alpha=1.0, dim=2, sigma2=0.1)
    h = 0.6
    ko = ProductEpanechnikovKernel(2)
    total = 0.0
    dist = squareform(pairwise_distances(data))
    c = hat_matrix(data, h, ko)[0]
    for i in range(12):
        for s in range(12):
            if s != i:
                total += c[i, s] * correlation_value(model, dist[i, s], 12)
    expected = 2.0 * 0.1 / 12 * total
    got = correlation_penalty(data, model, h, ko)
    assert got == pytest.approx(expected, abs=1e-12)


def test_annulus_penalty_smaller_than_epanechnikov():
    model = CorrelationModel("spherical", c=2.0, alpha=1.0, dim=2, sigma2=0.1)
    sim = generate(SimScenario("mu2d", 300, model, seed=41), 0)
    kz = build_annulus_kernel(1.0, 1.5, 2)
    ko = ProductEpanechnikovKernel(2)
    h = 0.35
    p_z = correlation_penalty(sim.dataset, model, h, kz)
    p_o = correlation_penalty(sim.dataset, model, h, ko)
    assert abs(p_z) < abs(p_o)


def test_parse_method():
    assert parse_method("gcv") == MethodSpec(kind="gcv")
    spec = parse_method("za(1,1.5)")
    assert spec.kind == "za" and spec.c1 == 1.0 and spec.c2 == 1.5
    assert spec.label == "ZA(1,1.5)"
    with pytest.raises(ValueError):
        parse_method("za[1,2]")
    for bad in ("za(2,1)", "za(1,1)", "za(0,1)", "za(-1,0.5)"):
        with pytest.raises(ValueError, match="0 < c1 < c2"):
            parse_method(bad)


def _failing_trial(exc):
    def trial(*args, **kwargs):
        raise exc
    return trial


def test_run_table_counts_numerical_failures(monkeypatch):
    import corrsmooth.simulate as sim_mod

    monkeypatch.setattr(sim_mod, "run_method_trial", _failing_trial(SingularFitError("boom")))
    model = CorrelationModel("spherical", c=2.0, alpha=1.0, dim=2, sigma2=0.1)
    scn = SimScenario("mu2d", 150, model, seed=909, n_trials=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = run_table([scn], ["gcv"], n_star=40)
    gcv = rows[2]
    assert gcv.method == "GCV" and gcv.failures == 2
    assert np.isnan(gcv.mse_prac_mean)
    assert rows[0].failures == 0 and rows[1].failures == 0


def test_run_table_counts_reference_row_failures(monkeypatch):
    import corrsmooth.simulate as sim_mod

    model = CorrelationModel("spherical", c=2.0, alpha=1.0, dim=2, sigma2=0.1)
    scn = SimScenario("mu2d", 150, model, seed=909, n_trials=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        clean = run_table([scn], ["gcv"], n_star=40)
        monkeypatch.setattr(sim_mod, "run_raw_trial", _failing_trial(SingularFitError("raw")))
        monkeypatch.setattr(sim_mod, "min_epan_mse", _failing_trial(SingularFitError("scan")))
        rows = run_table([scn], ["gcv"], n_star=40)
    for row in rows[:2]:
        assert row.failures == 2
        assert np.isnan(row.mse_prac_mean)
        assert np.isnan(row.mse_sigma2_mean)
        assert np.isnan(row.sse_cor_mean)
    assert rows[2] == clean[2]


@pytest.mark.parametrize("target", ["run_raw_trial", "min_epan_mse"])
def test_run_table_propagates_reference_row_bugs(monkeypatch, target):
    import corrsmooth.simulate as sim_mod

    monkeypatch.setattr(sim_mod, target, _failing_trial(ValueError("bug")))
    model = CorrelationModel("spherical", c=2.0, alpha=1.0, dim=2, sigma2=0.1)
    scn = SimScenario("mu2d", 150, model, seed=909, n_trials=1)
    with pytest.raises(ValueError, match="bug"):
        run_table([scn], ["gcv"], n_star=40)


@pytest.mark.parametrize("exc_type", [TypeError, ValueError])
def test_run_table_propagates_programming_errors(monkeypatch, exc_type):
    # only CorrsmoothError counts as a trial failure; a plain ValueError is a bug
    import corrsmooth.simulate as sim_mod

    monkeypatch.setattr(sim_mod, "run_method_trial", _failing_trial(exc_type("bug")))
    model = CorrelationModel("spherical", c=2.0, alpha=1.0, dim=2, sigma2=0.1)
    scn = SimScenario("mu2d", 150, model, seed=909, n_trials=1)
    with pytest.raises(exc_type, match="bug"):
        run_table([scn], ["gcv"], n_star=40)


def _bench_sim(n=150):
    # the scenario that corrsmooth bench runs, at its default seed 0
    model = CorrelationModel("spherical", c=2.0, alpha=1.0, dim=2, sigma2=0.1)
    return generate(SimScenario("mu2d", n, model, seed=0), 0)


def test_run_trial_rows_in_order_with_their_seconds():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = run_trial(_bench_sim(), [parse_method("za(1,1.5)"), parse_method("gcv")], n_star=40)
    assert list(out) == ["ZA(1,1.5)", "GCV", "Raw", "minEpan"]
    for outcome in out.values():
        assert np.isfinite(outcome.seconds) and outcome.seconds >= 0.0
    assert np.isfinite(out["minEpan"].mse_prac) and np.isnan(out["minEpan"].sse_cor)


def test_run_trial_scans_the_product_grid_once(monkeypatch):
    # GCV and minEpan read one product-kernel scan of the draw: one product
    # default_grid, and 30 grid fits + 2 final fits + 2 variance fits
    import corrsmooth.bandwidth as bandwidth_mod
    import corrsmooth.locfit as locfit_mod

    grids, fits = [], []
    real_grid, real_systems = bandwidth_mod.default_grid, locfit_mod._normal_systems

    def counting_grid(data, kernel, *args, **kwargs):
        grids.append(isinstance(kernel, ProductEpanechnikovKernel))
        return real_grid(data, kernel, *args, **kwargs)

    def counting_systems(ws, h):
        in_sample = ws.targets is ws.data.points
        fits.append(isinstance(ws.kernel, ProductEpanechnikovKernel) and in_sample)
        return real_systems(ws, h)

    monkeypatch.setattr(bandwidth_mod, "default_grid", counting_grid)
    monkeypatch.setattr(simulate, "default_grid", counting_grid)
    monkeypatch.setattr(locfit_mod, "_normal_systems", counting_systems)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = run_trial(_bench_sim(), [parse_method("za(1,1.5)"), parse_method("gcv")], n_star=40)
    assert all(outcome is not None for outcome in out.values())
    assert sum(grids) == 1
    assert sum(fits) == 34


@pytest.mark.parametrize("target, label", [
    ("run_method_trial", "GCV"), ("run_raw_trial", "Raw"), ("min_epan_mse", "minEpan"),
])
def test_run_trial_fails_rows_only_on_numerical_errors(monkeypatch, target, label):
    sim = _bench_sim(n=100)
    monkeypatch.setattr(simulate, target, _failing_trial(SingularFitError("numerical")))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = run_trial(sim, [parse_method("gcv")], n_star=30)
    assert out[label] is None
    assert all(o.seconds >= 0.0 for key, o in out.items() if key != label)
    monkeypatch.setattr(simulate, target, _failing_trial(ValueError("bug")))
    with pytest.raises(ValueError, match="bug"):
        run_trial(sim, [parse_method("gcv")], n_star=30)


@pytest.mark.parametrize("threads", [1, 2])
def test_run_table_reports_each_trial_as_it_finishes(monkeypatch, threads):
    events = []
    real_generate = simulate.generate

    def recording_generate(scn, trial):
        events.append(("generate", trial))
        return real_generate(scn, trial)

    monkeypatch.setattr(simulate, "generate", recording_generate)
    scn = SimScenario("mu2d", 100, CorrelationModel("exponential", c=1.0), seed=12, n_trials=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_table([scn], ["gcv"], n_star=20, threads=threads,
                  progress=lambda s, trial: events.append(("progress", trial)))
    reports = [trial for kind, trial in events if kind == "progress"]
    assert reports == [0, 1, 2]
    for trial in range(3):
        assert events.index(("generate", trial)) < events.index(("progress", trial))
    if threads == 1:
        assert events == [(kind, t) for t in range(3) for kind in ("generate", "progress")]


def test_bench_writes_the_h_o_of_run_trial(tmp_path):
    assert main(["bench", "--n", "150", "--output-dir", str(tmp_path)]) == 0
    report = dict(line.split("=", 1) for line in (tmp_path / "bench.txt").read_text().splitlines())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = run_trial(_bench_sim(), [parse_method("za(1,1.5)"), parse_method("gcv")])
    assert report["h_o"] == repr(out["ZA(1,1.5)"].h)


def test_bench_exits_2_when_a_row_fails(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(simulate, "run_raw_trial", _failing_trial(SingularFitError("raw")))
    assert main(["bench", "--n", "150", "--output-dir", str(tmp_path)]) == 2
    assert "Raw" in capsys.readouterr().err
    assert not (tmp_path / "bench.txt").exists()


def test_run_table_single_trial_structure():
    model = CorrelationModel("spherical", c=2.0, alpha=1.0, dim=2, sigma2=0.1)
    scn = SimScenario("mu2d", 200, model, seed=404, n_trials=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = run_table([scn], ["za(1,1.5)"], n_star=60)
    methods = [r.method for r in rows]
    assert methods == ["minEpan", "Raw", "ZA(1,1.5)"]
    za = rows[2]
    assert za.mse_prac_sd == 0.0  # single trial, sd reported as 0
    assert za.failures == 0
    assert np.isnan(rows[0].sse_cor_mean)  # minEpan has no covariance metrics
    assert np.isnan(rows[1].mse_prac_mean)  # Raw has no regression metric
    # minEpan bounds the method on the shared scan
    assert rows[0].mse_prac_mean <= za.mse_prac_mean + 1e-15


def test_run_table_deterministic_and_thread_invariant():
    model = CorrelationModel("spherical", c=2.0, alpha=1.0, dim=2, sigma2=0.1)
    scn = SimScenario("mu2d", 150, model, seed=505, n_trials=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        r1 = run_table([scn], ["za(1,1.5)"], n_star=40)
        r2 = run_table([scn], ["za(1,1.5)"], n_star=40)
        r3 = run_table([scn], ["za(1,1.5)"], n_star=40, threads=2)
    assert r1 == r2
    assert r1 == r3


def test_run_table_rows_equal_across_trial_thread_counts():
    # four trials spread over two worker threads, with the GCV sweep as well
    scn = SimScenario("mu2d", 150, CorrelationModel("exponential", c=1.0), seed=11, n_trials=4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        one = run_table([scn], ["za(1,1.5)", "gcv"], n_star=30, threads=1)
        two = run_table([scn], ["za(1,1.5)", "gcv"], n_star=30, threads=2)
    assert [r.method for r in one] == ["minEpan", "Raw", "ZA(1,1.5)", "GCV"]
    assert one == two


def test_min_epan_bounds_method_on_every_trial():
    model = CorrelationModel("spherical", c=2.0, alpha=1.0, dim=2, sigma2=0.1)
    scn = SimScenario("mu2d", 200, model, seed=606, n_trials=2)
    for trial in range(2):
        sim = generate(scn, trial)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = run_trial(sim, [MethodSpec("za", 1.0, 1.5)], n_star=40)
        assert out["minEpan"].mse_prac <= out["ZA(1,1.5)"].mse_prac
        assert out["minEpan"].mse_prac <= min_epan_mse(sim)


def test_three_dimensional_pipeline_smoke():
    model = CorrelationModel("exponential", c=1.5, alpha=1.0, dim=3, sigma2=0.1)
    scn = SimScenario("mu3d", 250, model, seed=808, n_trials=1)
    sim = generate(scn, 0)
    from corrsmooth.simulate import run_method_trial

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = run_method_trial(sim, MethodSpec("za", 1.0, 1.5), n_star=50)
    assert np.isfinite(out.mse_prac)
    assert np.isfinite(out.sigma2_hat)
    assert np.isfinite(out.sse_cor)


def test_selected_bandwidth_gives_clean_fit_on_sp_scenario():
    # singular_count = 0 guards the grid lower bound on seeded runs
    model = CorrelationModel("spherical", c=2.0, alpha=1.0, dim=2, sigma2=0.1)
    sim = generate(SimScenario("mu2d", 300, model, seed=707), 0)
    kz = build_annulus_kernel(1.0, 1.5, 2)
    from corrsmooth.bandwidth import default_grid, select_h_z
    from corrsmooth.locfit import fit_all

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        grid = default_grid(sim.dataset, kz)
        sel = select_h_z(sim.dataset, kz, grid)
    assert sel.h_z not in (grid[0], grid[-1])  # interior, no endpoint warning
    fit = fit_all(sim.dataset, sel.h_z, kz)
    assert fit.singular_count == 0
    # RSS trace is finite and single-troughed on the feasible range
    finite = sel.rss_trace[np.isfinite(sel.rss_trace)]
    assert finite.size > 5
    trough = int(np.argmin(finite))
    assert np.all(np.diff(finite[: trough + 1]) <= 1e-12) or trough < 3


def test_draw_correlated_errors_warns_without_blas_thread_calls(monkeypatch):
    cov = np.array([[1.0, 0.5], [0.5, 1.0]])
    pinned = draw_correlated_errors(cov, np.random.default_rng(3))
    monkeypatch.setattr(simulate, "_openblas_threads", lambda: None)
    with pytest.warns(RuntimeWarning, match="cannot pin"):
        unpinned = draw_correlated_errors(cov, np.random.default_rng(3))
    assert np.array_equal(unpinned, pinned)
