import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from corrsmooth.covariance import (
    CalibrationTrace,
    calibrate_b,
    covariance_curve,
    default_b_candidates,
    estimate_correlation,
    estimate_covariance,
    sigma2_rss,
)
from corrsmooth.errors import (
    CorrsmoothError,
    DegenerateCorrelationError,
    EmptyWindowError,
    SingularFitError,
)
from corrsmooth.kernels import ProductEpanechnikovKernel
from corrsmooth.locfit import Dataset, fit_all, pairwise_distances
from corrsmooth.simulate import (
    CorrelationModel,
    SimScenario,
    correlation_value,
    generate,
)

from conftest import make_affine_dataset

KO = ProductEpanechnikovKernel(2)


def sp3_sim(seed=314, n=500):
    model = CorrelationModel("spherical", c=3.0, alpha=1.0, dim=2, sigma2=0.1)
    return generate(SimScenario("mu2d", n, model, seed=seed, n_trials=1), 0)


def test_constant_residuals_give_constant_covariance():
    rng = np.random.default_rng(3)
    pts = rng.random((40, 2))
    d = pairwise_distances(Dataset(points=pts, responses=np.zeros(40)))
    eps = np.full(40, 1.7)
    assert estimate_covariance(eps, d, 0.05, 0.2) == pytest.approx(1.7**2, rel=1e-12)
    assert estimate_covariance(eps, d, 0.0, 0.2) == pytest.approx(1.7**2, rel=1e-12)


def test_lag_zero_matches_variance_formula():
    # at t = 0 the estimate is the kernel-weighted variance formula by definition
    rng = np.random.default_rng(4)
    pts = rng.random((60, 2))
    eps = rng.normal(size=60)
    d = pairwise_distances(Dataset(points=pts, responses=np.zeros(60)))
    b = 0.1
    got = estimate_covariance(eps, d, 0.0, b)
    # independent dense computation with the boundary kernel at q -> 0+
    from corrsmooth.kernels import BoundaryKernel

    k = BoundaryKernel(q=0.0)
    num = float(k.value(np.asarray(0.0))) * float(eps @ eps)
    den = float(k.value(np.asarray(0.0))) * 60.0
    iu, ju = np.triu_indices(60, k=1)
    w = k.value((0.0 - d) / b)
    num += 2.0 * float(w @ (eps[iu] * eps[ju]))
    den += 2.0 * float(w.sum())
    assert got == pytest.approx(num / den, rel=1e-12)


def test_windowed_path_matches_dense_double_sum():
    # independent oracle: all ordered pairs, no sorting or windowing
    rng = np.random.default_rng(8)
    pts = rng.random((50, 2))
    eps = rng.normal(size=50)
    data = Dataset(points=pts, responses=np.zeros(50))
    d = pairwise_distances(data)
    from corrsmooth.kernels import BoundaryKernel
    from scipy.spatial.distance import squareform

    dmat = squareform(d)
    for t, b in [(0.02, 0.08), (0.15, 0.08), (0.08, 0.08), (0.3, 0.1)]:
        k = BoundaryKernel(q=t / b)
        w = k.value((t - dmat) / b)  # includes the diagonal at distance 0
        num = float(np.einsum("ij,i,j->", w, eps, eps))
        den = float(w.sum())
        assert estimate_covariance(eps, d, t, b) == pytest.approx(num / den, rel=1e-12)


def test_empty_window_raises_with_context():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    d = pairwise_distances(Dataset(points=pts, responses=np.zeros(4)))
    with pytest.raises(EmptyWindowError) as err:
        estimate_covariance(np.ones(4), d, 10.0, 0.01)
    assert err.value.t == 10.0
    assert err.value.b == 0.01


def test_oracle_agreement_with_true_errors():
    # plug the known model: C_n(t) = sigma^2 rho_n(t); Theorem-rate tolerance
    # frozen after seed verification at n=500
    sim = sp3_sim()
    d = pairwise_distances(sim.dataset)
    n = sim.n
    t_check = 0.5 * 3.0 * n ** (-0.5)
    truth = 0.1 * correlation_value(sim.model, t_check, n)
    s2_raw = float(sim.errors @ sim.errors / n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cal = calibrate_b(sim.dataset, sim.errors, s2_raw)
    got = estimate_covariance(sim.errors, d, t_check, cal.chosen_b)
    assert abs(got - truth) < 0.03

    # max deviation over the grid up to 0.8x the correlation range
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        curve = covariance_curve(
            sim.dataset, sim.errors, cal.chosen_b, n_star=50,
            truncation_t=0.11, sigma2_hat=s2_raw,
        )
    limit = 0.8 * 3.0 * n ** (-0.5)
    mask = curve.t_grid <= limit
    truth_grid = 0.1 * correlation_value(sim.model, curve.t_grid[mask], n)
    assert np.abs(curve.c_hat[mask] - truth_grid).max() < 0.05


def test_sigma2_rss_on_noiseless_affine_data():
    data = make_affine_dataset(n=150, dim=2, seed=12)
    assert sigma2_rss(data, 0.4, KO) < 1e-16


def test_sigma2_rss_raises_on_singular():
    data = make_affine_dataset(n=60, dim=2, seed=13)
    with pytest.raises(SingularFitError):
        sigma2_rss(data, 1e-9, KO)
    with pytest.raises(ValueError):
        sigma2_rss(data, -0.1, KO)


def test_calibration_largest_qualifying_rule():
    # spec arithmetic example: discrepancies (3e-4, 1e-4, 1e-4, 5e-4) at
    # delta 2e-4 -> third candidate
    sim = sp3_sim(seed=11, n=120)
    pairs_b = np.array([0.05, 0.1, 0.15, 0.2])
    target = np.array([3e-4, 1e-4, 1e-4, 5e-4])

    import corrsmooth.covariance as cov

    class FakePairs:
        def __init__(self, *a, **k):
            pass

        def estimate(self, t, b):
            idx = int(np.argmin(np.abs(pairs_b - b)))
            return 0.1 + target[idx]

    real = cov._PairSums
    cov._PairSums = FakePairs
    try:
        trace = calibrate_b(sim.dataset, sim.errors, 0.1, pairs_b, delta_n=2e-4)
    finally:
        cov._PairSums = real
    assert trace.chosen_b == pytest.approx(0.15)
    assert not trace.fallback


def test_calibration_all_qualifying_takes_last():
    sim = sp3_sim(seed=12, n=120)
    import corrsmooth.covariance as cov

    class FakePairs:
        def __init__(self, *a, **k):
            pass

        def estimate(self, t, b):
            return 0.1  # zero discrepancy everywhere

    real = cov._PairSums
    cov._PairSums = FakePairs
    try:
        with pytest.warns(UserWarning, match="largest candidate"):
            trace = calibrate_b(sim.dataset, sim.errors, 0.1, np.array([0.1, 0.2, 0.4]))
    finally:
        cov._PairSums = real
    assert trace.chosen_b == pytest.approx(0.4)


def test_calibration_fallback_warns_on_unreachable_tolerance():
    sim = sp3_sim(seed=13, n=150)
    fit = fit_all(sim.dataset, 0.35, KO)
    with pytest.warns(UserWarning, match="falling back"):
        trace = calibrate_b(sim.dataset, fit, 0.5, delta_n=0.0)
    assert trace.fallback
    assert trace.chosen_b == trace.b_candidates[np.argmin(trace.discrepancy)]


def test_calibration_warns_when_the_largest_candidate_is_chosen():
    # every candidate qualifies, so the largest-qualifying rule stops at the grid's top
    sim = sp3_sim(seed=13, n=150)
    with pytest.warns(UserWarning, match="largest candidate; larger b were not tried") as caught:
        trace = calibrate_b(sim.dataset, sim.errors, 0.1, delta_n=1e9)
    assert not trace.fallback
    assert trace.chosen_b == trace.b_candidates[-1] == default_b_candidates(sim.dataset)[-1]
    # not the selection's grid-boundary text, which the benchmark counts as its own kind
    assert not any("sits on the grid boundary" in str(w.message) for w in caught)


def test_calibration_interior_pick_does_not_warn():
    sim = sp3_sim(seed=13, n=150)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = calibrate_b(sim.dataset, sim.errors, 0.1, np.array([0.01, 0.02, 10.0]),
                            delta_n=0.05)
    assert not trace.fallback and trace.chosen_b < 10.0


def test_calibration_rejects_bad_candidates():
    sim = sp3_sim(seed=14, n=120)
    with pytest.raises(ValueError):
        calibrate_b(sim.dataset, sim.errors, 0.1, np.array([]))
    with pytest.raises(ValueError):
        calibrate_b(sim.dataset, sim.errors, 0.1, np.array([0.2, 0.1]))


def test_calibration_contract_on_seeded_run():
    # |C_hat(0) - sigma2_hat| <= delta_n at the chosen b, no fallback
    sim = sp3_sim()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        from corrsmooth.bandwidth import select_h_o, variance_fit_bandwidth
        from corrsmooth.kernels import build_annulus_kernel

        h_o = select_h_o(sim.dataset, build_annulus_kernel(2.0, 2.5, 2), KO).h_o
        fit = fit_all(sim.dataset, h_o, KO)
        s2 = sigma2_rss(sim.dataset, variance_fit_bandwidth(h_o, sim.n, 2), KO)
        trace = calibrate_b(sim.dataset, fit, s2)
    assert (s2 - 0.1) ** 2 < 1e-3  # squared error at the table's scale
    assert not trace.fallback
    d = pairwise_distances(sim.dataset)
    tilde = estimate_covariance(fit.residuals, d, 0.0, trace.chosen_b)
    assert abs(tilde - s2) <= 2e-4


def test_correlation_modes_and_clamping():
    t_grid = np.array([0.0, 0.1, 0.2])
    from corrsmooth.covariance import CovarianceEstimate

    cov = CovarianceEstimate(
        t_grid=t_grid, c_hat=np.array([0.1, 0.05, 0.0]), b=0.05,
        sigma2_hat=0.1, sigma2_tilde=0.1, truncation_t=0.2,
    )
    by0 = estimate_correlation(cov, "by_chat0")
    assert by0.rho[0] == 1.0
    assert_allclose(by0.rho, [1.0, 0.5, 0.0])
    bys = estimate_correlation(cov, "by_sigma2_hat")
    assert_allclose(bys.rho, [1.0, 0.5, 0.0])

    spiky = CovarianceEstimate(
        t_grid=t_grid, c_hat=np.array([0.1, 0.15, -0.2]), b=0.05,
        sigma2_hat=0.1, sigma2_tilde=0.1, truncation_t=0.2,
    )
    curve = estimate_correlation(spiky, "by_chat0")
    assert curve.clamped
    assert curve.rho.max() <= 1.0
    assert curve.rho.min() >= -1.0


def test_correlation_rejects_nonpositive_denominator():
    from corrsmooth.covariance import CovarianceEstimate

    cov = CovarianceEstimate(
        t_grid=np.array([0.0]), c_hat=np.array([-0.1]), b=0.05,
        sigma2_hat=np.nan, sigma2_tilde=-0.1, truncation_t=0.0,
    )
    with pytest.raises(ValueError, match="denominator") as err:
        estimate_correlation(cov, "by_chat0")
    assert isinstance(err.value, DegenerateCorrelationError)
    assert isinstance(err.value, CorrsmoothError)
    with pytest.raises(ValueError, match="mode"):
        estimate_correlation(cov, "raw")


def test_curve_interpolation_contract():
    sim = sp3_sim(seed=21, n=200)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        s2 = float(sim.errors @ sim.errors / sim.n)
        curve = covariance_curve(
            sim.dataset, sim.errors, 0.05, n_star=20, truncation_t=0.12, sigma2_hat=s2
        )
    # stored values exactly at grid points
    for idx in (0, 5, len(curve.t_grid) - 1):
        assert curve.interpolate(curve.t_grid[idx]) == curve.c_hat[idx]
    # halfway queries average the neighbors
    mid = 0.5 * (curve.t_grid[3] + curve.t_grid[4])
    expected = 0.5 * (curve.c_hat[3] + curve.c_hat[4])
    assert abs(curve.interpolate(mid) - expected) < 1e-15
    # zero beyond the truncation lag, and the stored edge value is 0
    assert curve.c_hat[-1] == 0.0
    assert curve.interpolate(0.5) == 0.0
    assert curve.interpolate(np.array([0.13, 0.9])).tolist() == [0.0, 0.0]
    # lag 0 equals the kernel-based variance estimate by definition
    assert curve.c_hat[0] == curve.sigma2_tilde


def test_empty_grid_windows_dropped_with_warning():
    # two far-apart clusters: mid-gap lags have no pairs at a tiny b
    rng = np.random.default_rng(30)
    a = rng.random((20, 2)) * 0.05
    b = rng.random((20, 2)) * 0.05 + np.array([1.0, 0.0])
    pts = np.vstack([a, b])
    data = Dataset(points=pts, responses=np.zeros(40))
    eps = rng.normal(size=40)
    with pytest.warns(UserWarning, match="empty windows"):
        curve = covariance_curve(
            data, eps, b=0.01, n_star=40, truncation_t=0.6, sigma2_hat=1.0
        )
    assert curve.dropped.size > 0
    assert curve.t_grid.size < 41
    # interpolation still serves the kept grid exactly
    assert curve.interpolate(curve.t_grid[1]) == curve.c_hat[1]


def test_truncation_beyond_every_pair_raises():
    # every window strictly between lag 0 and T is empty: no curve to serve
    sim = sp3_sim(seed=22, n=150)
    with pytest.raises(EmptyWindowError):
        covariance_curve(sim.dataset, sim.errors, 0.05, n_star=10, truncation_t=1e6)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="truncation_t"):
            covariance_curve(sim.dataset, sim.errors, 0.05, n_star=10, truncation_t=bad)


def test_sanity_flags_mark_lags_beyond_factor_times_c0(monkeypatch):
    import corrsmooth.covariance as cov_mod

    sim = sp3_sim(seed=22, n=150)
    curve = covariance_curve(sim.dataset, sim.errors, 0.05, n_star=20, truncation_t=0.3)
    assert curve.flags.dtype == bool
    assert curve.flags.tolist() == (np.abs(curve.c_hat) > 1.5 * abs(curve.sigma2_tilde)).tolist()
    monkeypatch.setattr(cov_mod, "_SANITY_FACTOR", 0.25)
    with pytest.warns(UserWarning, match=r"exceeds 0\.25 x C\(0\)"):
        low = covariance_curve(sim.dataset, sim.errors, 0.05, n_star=20, truncation_t=0.3)
    assert low.flags.tolist() == (np.abs(low.c_hat) > 0.25 * abs(low.sigma2_tilde)).tolist()
    assert low.flags[0] and not low.flags[-1]


def test_degenerate_truncation():
    sim = sp3_sim(seed=22, n=150)
    s2 = float(sim.errors @ sim.errors / sim.n)
    curve = covariance_curve(
        sim.dataset, sim.errors, 0.05, n_star=10, truncation_t=0.0, sigma2_hat=s2
    )
    assert curve.t_grid.tolist() == [0.0]
    assert curve.interpolate(0.0) == curve.sigma2_tilde
    assert curve.interpolate(0.01) == 0.0
    assert curve.flags.tolist() == [False]
    neg = covariance_curve(sim.dataset, sim.errors, 0.05, n_star=10, truncation_t=-0.0)
    assert str(neg.truncation_t) == "0.0"  # not -0.0


def test_permutation_invariance():
    sim = sp3_sim(seed=23, n=150)
    rng = np.random.default_rng(5)
    perm = rng.permutation(sim.n)
    d1 = pairwise_distances(sim.dataset)
    ds2 = Dataset(points=sim.dataset.points[perm], responses=sim.dataset.responses[perm])
    d2 = pairwise_distances(ds2)
    v1 = estimate_covariance(sim.errors, d1, 0.04, 0.03)
    v2 = estimate_covariance(sim.errors[perm], d2, 0.04, 0.03)
    assert v1 == pytest.approx(v2, rel=1e-12)


def test_scale_equivariance_exact():
    # power-of-two scaling keeps the ratio arithmetic exact
    sim = sp3_sim(seed=24, n=150)
    d = pairwise_distances(sim.dataset)
    a = 4.0
    for t in (0.0, 0.03, 0.08):
        v1 = estimate_covariance(sim.errors, d, t, 0.05)
        v2 = estimate_covariance(a * sim.errors, d, t, 0.05)
        assert v2 == a * a * v1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        s2 = float(sim.errors @ sim.errors / sim.n)
        c1 = covariance_curve(sim.dataset, sim.errors, 0.05, n_star=15,
                              truncation_t=0.1, sigma2_hat=s2)
        c2 = covariance_curve(sim.dataset, a * sim.errors, 0.05, n_star=15,
                              truncation_t=0.1, sigma2_hat=a * a * s2)
    r1 = estimate_correlation(c1, "by_chat0")
    r2 = estimate_correlation(c2, "by_chat0")
    assert np.array_equal(r1.rho, r2.rho)


def test_boundary_handoff_continuity():
    # no jump at t = b beyond 3x the local grid increments
    sim = sp3_sim(seed=25)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        s2 = float(sim.errors @ sim.errors / sim.n)
        b = 0.04
        curve = covariance_curve(
            sim.dataset, sim.errors, b, n_star=120, truncation_t=0.12, sigma2_hat=s2
        )
    ts = curve.t_grid
    idx = int(np.searchsorted(ts, b))
    jump = abs(curve.c_hat[idx] - curve.c_hat[idx - 1])
    neighbor = max(
        abs(curve.c_hat[idx - 1] - curve.c_hat[idx - 2]),
        abs(curve.c_hat[idx + 1] - curve.c_hat[idx]),
    )
    assert jump <= 3.0 * neighbor + 1e-12


def test_default_b_candidates_span():
    sim = sp3_sim(seed=26, n=200)
    cands = default_b_candidates(sim.dataset)
    d = pairwise_distances(sim.dataset)
    assert cands.size == 25
    assert cands[0] == pytest.approx(d[d > 0].min())
    assert cands[-1] == pytest.approx(np.median(d) / 2.0)


@pytest.mark.parametrize("kwargs", [{"sigma2_hat": np.nan}, {"delta_n": np.nan}],
                         ids=["sigma2_hat", "delta_n"])
def test_calibration_rejects_nan_before_any_fallback(kwargs):
    sim = sp3_sim(seed=15, n=120)
    args = {"sigma2_hat": 0.1, **kwargs}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no fallback warning either
        with pytest.raises(ValueError, match="sigma2_hat|delta_n"):
            calibrate_b(sim.dataset, sim.errors, **args)


@pytest.mark.parametrize("t, b", [(np.nan, 0.1), (np.inf, 0.1), (0.05, np.nan), (0.05, np.inf)])
def test_estimate_rejects_nonfinite_lag_or_bandwidth(t, b):
    rng = np.random.default_rng(16)
    pts = rng.random((40, 2))
    d = pairwise_distances(Dataset(points=pts, responses=np.zeros(40)))
    with pytest.raises(ValueError, match="finite"):
        estimate_covariance(rng.normal(size=40), d, t, b)


@pytest.mark.parametrize("b", [np.nan, np.inf])
def test_covariance_curve_rejects_nonfinite_bandwidth(b):
    # b = inf used to give a flat curve (T ~ 0.68 on this design)
    rng = np.random.default_rng(17)
    data = Dataset(points=rng.random((200, 2)), responses=rng.normal(size=200))
    with pytest.raises(ValueError, match="finite"):
        covariance_curve(data, data.responses, b)
