"""Acceptance suite: every criterion prints one PASS/FAIL line.

Criteria 3-6 and 8-9 share two 30-trial seeded scenario runs (module-scoped
fixtures), so the whole module stays well inside the runtime budgets.
"""

import time
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from corrsmooth.bandwidth import (
    default_grid,
    gcv_select,
    oracle_bandwidth,
    select_h_o,
)
from corrsmooth.kernels import (
    MIN_AMISE,
    MIN_PRODUCT,
    MIN_VARIANCE,
    BoundaryKernel,
    ProductEpanechnikovKernel,
    RadialAnnulusKernel,
    build_annulus_kernel,
    sphere_surface,
)
from corrsmooth.locfit import Dataset, fit_all, hat_matrix, pairwise_distances
from corrsmooth.simulate import (
    CorrelationModel,
    MethodSpec,
    SimScenario,
    correlation_penalty,
    generate,
    min_epan_mse,
    mse_prac,
    mu2d,
    run_method_trial,
    run_raw_trial,
    run_table,
)

from conftest import make_affine_dataset, pair_sums

N_TRIALS = 30
SP2_SEED = 20260810
SP3_SEED = 20260810


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# ---------------------------------------------------------------------------
# shared scenario runs


@dataclass
class Sp2Trial:
    mse_za: float
    mse_gcv: float
    min_epan: float
    h_o: float
    penalty_z: float
    penalty_o: float


@pytest.fixture(scope="module")
def sp2():
    model = CorrelationModel("spherical", c=2.0, alpha=1.0, dim=2, sigma2=0.1)
    scn = SimScenario("mu2d", 500, model, seed=SP2_SEED, n_trials=N_TRIALS)
    ko = ProductEpanechnikovKernel(2)
    kz = build_annulus_kernel(1.0, 1.5, 2, MIN_PRODUCT)
    trials = []
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for t in range(N_TRIALS):
            sim = generate(scn, t)
            data = sim.dataset
            h_o = select_h_o(data, kz).h_o
            fit = fit_all(data, h_o, ko)
            assert fit.singular_count == 0
            h_gcv = gcv_select(data, ko, default_grid(data, ko))
            fit_gcv = fit_all(data, h_gcv, ko)
            mse_za = mse_prac(fit.fitted, sim.mu_true)
            mse_gcv = mse_prac(fit_gcv.fitted, sim.mu_true)
            trials.append(
                Sp2Trial(
                    mse_za=mse_za,
                    mse_gcv=mse_gcv,
                    min_epan=min(min_epan_mse(sim), mse_za, mse_gcv),
                    h_o=h_o,
                    penalty_z=correlation_penalty(data, model, h_o, kz),
                    penalty_o=correlation_penalty(data, model, h_o, ko),
                )
            )
    elapsed = time.perf_counter() - start
    return dict(trials=trials, model=model, elapsed=elapsed)


@pytest.fixture(scope="module")
def sp3():
    model = CorrelationModel("spherical", c=3.0, alpha=1.0, dim=2, sigma2=0.1)
    scn = SimScenario("mu2d", 500, model, seed=SP3_SEED, n_trials=N_TRIALS)
    za_outcomes = []
    raw_outcomes = []
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for t in range(N_TRIALS):
            sim = generate(scn, t)
            za_outcomes.append(run_method_trial(sim, MethodSpec("za", 2.0, 2.5)))
            raw_outcomes.append(run_raw_trial(sim))
    elapsed = time.perf_counter() - start
    return dict(za=za_outcomes, raw=raw_outcomes, model=model, elapsed=elapsed)


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_affine_reproduction():
    start = time.perf_counter()
    worst = 0.0
    for dim in (1, 2, 3):
        data = make_affine_dataset(n=200, dim=dim, seed=dim + 100)
        fit = fit_all(data, 0.45, ProductEpanechnikovKernel(dim))
        assert fit.singular_count == 0
        worst = max(worst, float(np.abs(fit.fitted - data.responses).max()))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 5.0
    assert report(1, ok, f"max abs error {worst:.2e} (< 1e-10), runtime {elapsed:.2f}s (< 5s)")


def test_criterion_2_kernel_constraint_suite():
    start = time.perf_counter()
    worst_norm = 0.0
    for dim in (1, 2, 3):
        s = sphere_surface(dim)
        for c1 in (0.5, 1.0, 2.0, 3.0):
            for objective in (MIN_VARIANCE, MIN_AMISE, MIN_PRODUCT):
                k = build_annulus_kernel(c1, c1 + 0.5, dim, objective)
                from scipy import integrate

                val, _ = integrate.quad(
                    lambda r: s * r ** (dim - 1) * float(k.profile(r)), c1, c1 + 0.5
                )
                worst_norm = max(worst_norm, abs(val - 1.0))
                grid = np.linspace(c1, c1 + 0.5, 514)[1:-1]
                assert np.all(k.profile(grid) > 1e-12)
                for r in (0.0, c1 - 1e-9, c1 + 0.5 + 1e-9):
                    assert k.profile(r) == 0.0
    worst_moment = 0.0
    for q in (0.1, 0.25, 0.5, 0.75, 1.0):
        from scipy import integrate

        bk = BoundaryKernel(q)
        zeroth, _ = integrate.quad(lambda t: float(bk.value(t)), -1.0, q, limit=200)
        first, _ = integrate.quad(lambda t: t * float(bk.value(t)), -1.0, q, limit=200)
        worst_moment = max(worst_moment, abs(zeroth - 1.0), abs(first))
    elapsed = time.perf_counter() - start
    ok = worst_norm < 1e-8 and worst_moment < 1e-10 and elapsed < 30.0
    assert report(
        2,
        ok,
        f"norm residual {worst_norm:.2e} (< 1e-8), boundary moments "
        f"{worst_moment:.2e} (< 1e-10), runtime {elapsed:.1f}s (< 30s)",
    )


def test_criterion_3_table1_band(sp2):
    mean_za = float(np.mean([t.mse_za for t in sp2["trials"]]))
    mean_gcv = float(np.mean([t.mse_gcv for t in sp2["trials"]]))
    in_band = 0.9e-2 <= mean_za <= 1.8e-2
    beats_gcv = mean_za < mean_gcv
    within_time = sp2["elapsed"] < 1200.0
    ok = in_band and beats_gcv and within_time
    assert report(
        3,
        ok,
        f"mean MSE_prac ZA(1,1.5) {mean_za:.4e} in [0.9e-2, 1.8e-2], "
        f"GCV {mean_gcv:.4e} (ZA < GCV: {beats_gcv}), runtime {sp2['elapsed']:.0f}s",
    )


def test_criterion_4_min_epan_band(sp2):
    mean_scan = float(np.mean([t.min_epan for t in sp2["trials"]]))
    ok = 0.8e-2 <= mean_scan <= 1.6e-2
    assert report(4, ok, f"mean minEpan {mean_scan:.4e} in [0.8e-2, 1.6e-2]")


def test_criterion_5_table2_band(sp3):
    sq = [(o.sigma2_hat - 0.1) ** 2 for o in sp3["za"]]
    mean_sq = float(np.mean(sq))
    lo, hi = 0.3 * 18.70e-5, 3.0 * 18.70e-5
    ok = lo <= mean_sq <= hi and sp3["elapsed"] < 1200.0
    assert report(
        5,
        ok,
        f"MSE_sigma2 ZA(2,2.5) {mean_sq:.3e} in [{lo:.3e}, {hi:.3e}], "
        f"runtime {sp3['elapsed']:.0f}s",
    )


def test_criterion_6_table3_band(sp3):
    raw_mean = float(np.mean([o.sse_cor for o in sp3["raw"]]))
    za_mean = float(np.mean([o.sse_cor for o in sp3["za"]]))
    raw_ok = 0.5 * 38.98 <= raw_mean <= 2.0 * 38.98
    za_ok = 0.5 * 258.42 <= za_mean <= 2.0 * 258.42
    ok = raw_ok and za_ok
    assert report(
        6,
        ok,
        f"SSE_cor Raw {raw_mean:.1f} in [{0.5 * 38.98:.1f}, {2 * 38.98:.1f}] "
        f"({'ok' if raw_ok else 'out'}); ZA(2,2.5) {za_mean:.1f} in "
        f"[{0.5 * 258.42:.1f}, {2 * 258.42:.1f}] ({'ok' if za_ok else 'out'})",
    )


def test_criterion_7_calibration_contract(sp3):
    fallbacks = sum(o.calibration_fallback for o in sp3["za"])
    ok = fallbacks == 0
    assert report(7, ok, f"argmin fallback fired on {fallbacks}/{N_TRIALS} SP c=3 trials (need 0)")


def test_criterion_8_oracle_bandwidth_sanity(sp2):
    crho = CorrelationModel("spherical", c=2.0, dim=2).correlation_integral()
    crho_ok = abs(crho - np.pi * 4.0 / 5.0) < 1e-3
    h_opt = oracle_bandwidth(sp2["model"], mu2d, ProductEpanechnikovKernel(2), 500)
    ratios = [t.h_o / h_opt for t in sp2["trials"]]
    med = float(np.median(ratios))
    ok = crho_ok and 0.5 <= med <= 2.0
    assert report(
        8,
        ok,
        f"C_rho {crho:.4f} vs analytic {np.pi * 0.8:.4f} (|diff| < 1e-3: {crho_ok}); "
        f"median h_o/h_opt {med:.3f} in [0.5, 2.0] (h_opt {h_opt:.3f})",
    )


def test_criterion_9_correlation_penalty_mechanism(sp2):
    wins = sum(abs(t.penalty_z) < abs(t.penalty_o) for t in sp2["trials"])
    ok = wins >= 27
    assert report(9, ok, f"|penalty(K_z)| < |penalty(K_o)| on {wins}/{N_TRIALS} trials (need >= 27)")


def test_criterion_10_property_suite():
    start = time.perf_counter()
    failures = []
    rng = np.random.default_rng(424242)

    # smoother linearity
    pts = rng.random((90, 2))
    y1, y2, a = rng.normal(size=90), rng.normal(size=90), 2.3
    ko = ProductEpanechnikovKernel(2)
    f1 = fit_all(Dataset(points=pts, responses=y1), 0.4, ko).fitted
    f2 = fit_all(Dataset(points=pts, responses=y2), 0.4, ko).fitted
    f12 = fit_all(Dataset(points=pts, responses=a * y1 + y2), 0.4, ko).fitted
    if np.abs(f12 - (a * f1 + f2)).max() >= 1e-10:
        failures.append("smoother linearity")

    # scale equivariance of the covariance estimate (exact, power-of-two scale)
    eps = rng.normal(size=90)
    d = pairwise_distances(Dataset(points=pts, responses=y1))
    for t in (0.0, 0.05):
        v1 = pair_sums(eps, d).estimate(t, 0.08)
        v2 = pair_sums(4.0 * eps, d).estimate(t, 0.08)
        if v2 != 16.0 * v1:
            failures.append("scale equivariance")

    # permutation invariance
    perm = rng.permutation(90)
    d_perm = pairwise_distances(Dataset(points=pts[perm], responses=y1[perm]))
    if not np.isclose(
        pair_sums(eps, d).estimate(0.05, 0.08),
        pair_sums(eps[perm], d_perm).estimate(0.05, 0.08),
        rtol=1e-12,
    ):
        failures.append("permutation invariance")

    # determinism: identical seeds give bit-identical data and tables
    model = CorrelationModel("spherical", c=2.0, alpha=1.0, dim=2, sigma2=0.1)
    scn = SimScenario("mu2d", 150, model, seed=99, n_trials=2)
    g1, g2 = generate(scn, 1), generate(scn, 1)
    if not (
        np.array_equal(g1.dataset.points, g2.dataset.points)
        and np.array_equal(g1.errors, g2.errors)
    ):
        failures.append("determinism: generate")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        r1 = run_table([scn], ["za(1,1.5)"], n_star=30)
        r2 = run_table([scn], ["za(1,1.5)"], n_star=30)
    if r1 != r2:
        failures.append("determinism: run_table")

    # affine-weight identities via the hat matrix's row 5
    data = make_affine_dataset(n=80, dim=2, seed=55)
    kz = build_annulus_kernel(1.0, 1.5, 2)
    c = hat_matrix(data, 0.4, kz)[0][5]
    if c[5] != 0.0 or abs(c.sum() - 1.0) >= 1e-10:
        failures.append("affine-weight identities")
    if np.abs(c @ (data.points - data.points[5])).max() >= 1e-10:
        failures.append("linear preservation")

    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 600.0
    assert report(10, ok, f"property failures: {failures or 'none'}, runtime {elapsed:.1f}s")
