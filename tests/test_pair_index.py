"""The sorted pair index that each Dataset keeps for the covariance layer.

The index must give the same bits as the definitions it replaced: a stable
argsort of pdist with products taken from squareform(outer(r, r)), the
minimum positive distance and np.median of pdist, and a one-shot sse_cor.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import squareform

import corrsmooth.covariance as covariance_mod
import corrsmooth.simulate as simulate_mod
from corrsmooth.covariance import (
    _PILOT_BLOCK,
    _PILOT_POINTS,
    _PairSums,
    calibrate_b,
    covariance_curve,
    default_b_candidates,
    estimate_correlation,
)
from corrsmooth.locfit import Dataset, PairIndex, pairwise_distances
from corrsmooth.simulate import (
    CorrelationModel,
    MethodSpec,
    SimScenario,
    correlation_value,
    generate,
    run_trial,
    sse_cor,
)


@st.composite
def designs(draw):
    """Euclidean or haversine designs, some on a coarse lattice (many tied
    distances) and some with sites repeated (zero distances)."""
    metric = draw(st.sampled_from(["euclidean", "haversine"]))
    dim = 2 if metric == "haversine" else draw(st.integers(1, 3))
    n = draw(st.integers(dim + 2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.random((n, dim))
    if draw(st.booleans()):
        pts = np.round(pts * 4.0) / 4.0
    repeats = draw(st.integers(0, n // 2))
    if repeats:
        pts[:repeats] = pts[rng.integers(repeats, n, size=repeats)]
    if metric == "haversine":
        pts = np.column_stack([-60.0 + 120.0 * pts[:, 0], -180.0 + 360.0 * pts[:, 1]])
    return Dataset(points=pts, responses=rng.normal(size=n), metric=metric)


@settings(max_examples=60, deadline=None)
@given(designs())
def test_index_and_products_equal_the_sorted_pdist_definition(data):
    d = pairwise_distances(data)
    order = np.argsort(d, kind="stable")
    iu, ju = np.triu_indices(data.n, k=1)
    index = data.pair_index
    assert index.dist.tobytes() == d[order].tobytes()
    assert index.i.tobytes() == iu[order].astype(np.int32).tobytes()
    assert index.j.tobytes() == ju[order].astype(np.int32).tobytes()
    r = data.responses
    products = squareform(np.outer(r, r), checks=False)
    assert _PairSums(r, index).products(index.dist.size).tobytes() == products[order].tobytes()


@settings(max_examples=60, deadline=None)
@given(designs())
def test_default_b_candidates_equal_the_pdist_definition(data):
    d = pairwise_distances(data)
    positive = d[d > 0.0]
    if positive.size == 0:
        with pytest.raises(ValueError):
            default_b_candidates(data)
        return
    lo, hi = float(positive.min()), float(np.median(d)) / 2.0
    if hi <= lo:
        hi = 2.0 * lo
    assert np.array_equal(default_b_candidates(data, size=7), np.geomspace(lo, hi, 7))


def test_calibration_and_curve_fill_only_the_pairs_their_windows_reach(
    exponential_field, monkeypatch
):
    built = []

    class RecordingPairSums(_PairSums):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(covariance_mod, "_PairSums", RecordingPairSums)
    data = exponential_field
    r = data.responses
    s2 = float(r @ r / data.n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cal = calibrate_b(data, r, s2)
        curve = covariance_curve(data, r, cal.chosen_b, sigma2_hat=s2)
    dist = data.pair_index.dist
    assert len(built) == 2  # the calibration's, then the pilot and curve's
    # each fill stops at its widest window's far end, which is open: the
    # largest candidate's, and the window of the last lag in the pilot pass
    # that found the truncation
    upper = float(dist[-1]) / 2.0
    pilot = np.concatenate([[0.0], np.linspace(upper / _PILOT_POINTS, upper, _PILOT_POINTS)])
    stop = int(np.flatnonzero(pilot == curve.truncation_t)[0])
    last = pilot[min((stop // _PILOT_BLOCK + 1) * _PILOT_BLOCK, pilot.size) - 1]
    widest = (cal.b_candidates[-1], last + cal.chosen_b)
    for pairs, reach in zip(built, widest):
        assert 0 < pairs.filled == np.searchsorted(dist, reach)
        assert pairs.filled < dist.size
    built[1].estimate(float(dist[-1]), cal.chosen_b)
    assert built[1].filled == dist.size


def test_index_arrays_are_read_only_and_cached():
    data = Dataset(points=np.random.default_rng(3).random((30, 2)), responses=np.zeros(30))
    index = data.pair_index
    assert index is data.pair_index
    assert index.i.dtype == index.j.dtype == np.int32
    for arr in (index.dist, index.i, index.j):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_index_rejects_a_vector_of_the_wrong_length():
    with pytest.raises(ValueError, match="condensed"):
        PairIndex.from_distances(np.ones(5), 4)
    with pytest.raises(ValueError, match="residuals"):
        _PairSums(np.ones(3), PairIndex.from_distances(np.ones(6), 4))


@pytest.fixture()
def index_builds(monkeypatch):
    """Records the point count of every pair index built."""
    builds = []
    real = PairIndex.from_distances.__func__

    def counting(cls, distances, n):
        builds.append(n)
        return real(cls, distances, n)

    monkeypatch.setattr(PairIndex, "from_distances", classmethod(counting))
    return builds


def _spherical_sim(n, seed=9):
    model = CorrelationModel("spherical", c=2.0, alpha=1.0, dim=2, sigma2=0.1)
    return generate(SimScenario("mu2d", n, model, seed=seed, n_trials=1), 0)


def test_run_trial_builds_the_index_once(index_builds):
    sim = _spherical_sim(150)
    specs = [MethodSpec("za", 1.0, 1.5), MethodSpec("za", 2.0, 2.5), MethodSpec("gcv")]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = run_trial(sim, specs, n_star=40)
    assert all(out[label] is not None for label in ("ZA(1,1.5)", "GCV", "Raw"))
    assert index_builds == [150]


def test_cli_covariance_builds_the_index_once(index_builds, tmp_path):
    from corrsmooth.cli import main

    data = _spherical_sim(150).dataset
    csv_path = tmp_path / "data.csv"
    rows = np.column_stack([data.points, data.responses])
    csv_path.write_text("x1,x2,y\n" + "".join(f"{a!r},{b!r},{c!r}\n" for a, b, c in rows.tolist()))
    argv = ["covariance", "--input", str(csv_path), "--grid-size", "10", "--n-star", "40"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main([*argv, "--output-dir", str(tmp_path / "cov")]) == 0
    assert index_builds == [150]


def test_covariance_calls_on_one_dataset_share_the_index(index_builds):
    sim = _spherical_sim(120)
    data = sim.dataset
    first = sim.errors
    second = np.random.default_rng(4).normal(scale=0.3, size=data.n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for residuals in (first, second):
            s2 = float(residuals @ residuals / data.n)
            cal = calibrate_b(data, residuals, s2)
            covariance_curve(data, residuals, cal.chosen_b, n_star=30, sigma2_hat=s2)
    assert index_builds == [120]


def test_cut_sse_cor_equals_the_one_shot_sum():
    rng = np.random.default_rng(5)
    n = 800
    data = Dataset(points=rng.random((n, 2)), responses=rng.normal(scale=0.3, size=n))
    d = pairwise_distances(data)
    model = CorrelationModel("exponential", c=1.0, alpha=1.0, dim=2, sigma2=0.1)
    r = data.responses
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cal = calibrate_b(data, r, float(r @ r / n))
        rho_hat = estimate_correlation(covariance_curve(data, r, cal.chosen_b, n_star=50))
    rho_true = correlation_value(model, d, n)
    mask = rho_true >= simulate_mod.ZETA_DEFAULT
    assert mask.any()
    assert (d > simulate_mod._sse_cut(model, n, simulate_mod.ZETA_DEFAULT)).any()  # the cut drops pairs
    diff = rho_hat.interpolate(d[mask]) - rho_true[mask]
    assert sse_cor(rho_hat, model, d, n) == float(diff @ diff)
