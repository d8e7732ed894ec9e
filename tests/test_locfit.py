import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.spatial.distance import squareform

from corrsmooth.bandwidth import default_grid, gcv_score
from corrsmooth.covariance import sigma2_rss
from corrsmooth.errors import NoFeasibleBandwidthError, SingularFitError
from corrsmooth.kernels import ProductEpanechnikovKernel, RadialAnnulusKernel, build_annulus_kernel
from corrsmooth.locfit import (
    EARTH_RADIUS_KM,
    Dataset,
    _metric_distances,
    _normal_systems,
    _Workspace,
    fit_all,
    fit_points,
    hat_matrix,
    load_csv,
    pairwise_distances,
    rss,
)

from conftest import make_affine_dataset


def _in_box(u, metric):
    """Unit-cube draws u as design coordinates: as they are, or as (lat, lon)
    degrees over a south-eastern-US box."""
    return np.array([30.0, -92.0]) + np.array([7.0, 14.0]) * u if metric == "haversine" else u


@st.composite
def _designs(draw):
    """Design points, their metric, a fitting kernel and a nonsingular
    default_grid bandwidth: D in {1, 2, 3}, haversine when D = 2, the product
    kernel or an annulus."""
    dim = draw(st.integers(1, 3))
    metric = draw(st.sampled_from(["euclidean", "haversine"])) if dim == 2 else "euclidean"
    annulus = draw(st.sampled_from([None, (1.0, 1.5), (2.0, 2.5)]))
    kernel = ProductEpanechnikovKernel(dim) if annulus is None else build_annulus_kernel(*annulus, dim)
    n = draw(st.integers(80, 150))
    pts = _in_box(np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((n, dim)), metric)
    data = Dataset(points=pts, responses=np.zeros(n), metric=metric)
    try:
        grid = default_grid(data, kernel)
    except NoFeasibleBandwidthError:  # an annulus too wide for a small design
        assume(False)
    h = float(grid[draw(st.integers(0, grid.size - 1))])
    assume(fit_all(data, h, kernel).singular_count == 0)
    return pts, metric, kernel, h


@st.composite
def _affine_cases(draw):
    """A design with affine coefficients (intercept first) and five targets in its box."""
    pts, metric, kernel, h = draw(_designs())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = pts.shape[1]
    return pts, metric, kernel, h, rng.normal(size=dim + 1), _in_box(rng.random((5, dim)), metric)


def _fixed_affine_case(dim):
    pts = make_affine_dataset(n=200, dim=dim, seed=dim).points
    coeffs = np.arange(dim + 1, dtype=float)
    coeffs[0] = 1.0
    return pts, "euclidean", ProductEpanechnikovKernel(dim), 0.4, coeffs, np.full((1, dim), 0.37)


def _assert_affine_reproduced(case, atol):
    """Exact in-sample reproduction within atol, and at every nonsingular
    target; returns the targets' singular mask."""
    pts, metric, kernel, h, coeffs, targets = case
    y = coeffs[0] + pts @ coeffs[1:]
    data = Dataset(points=pts, responses=y, metric=metric)
    fit = fit_all(data, h, kernel)
    assert fit.singular_count == 0
    assert np.abs(fit.fitted - y).max() < atol
    est, singular = fit_points(data, targets, h, kernel)
    assert np.array_equal(np.isnan(est), singular)
    truth = coeffs[0] + targets @ coeffs[1:]
    assert (np.abs(est - truth)[~singular] < atol).all()
    return singular


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_affine_reproduction(dim):
    assert not _assert_affine_reproduced(_fixed_affine_case(dim), 1e-10).any()


@settings(max_examples=100, deadline=None)
@given(case=_affine_cases())
def test_affine_reproduction_property(case):
    # Rounding in the normal equations grows with the design's spread about
    # its mean (up to 14 degrees of longitude here); 1e-10 of the response
    # scale leaves a tenfold margin.  A random target may fall where the
    # design leaves its system singular; those come back NaN and are not
    # compared.
    pts, _, _, _, coeffs, _ = case
    _assert_affine_reproduced(case, 1e-10 * (1.0 + np.abs(coeffs[0] + pts @ coeffs[1:]).max()))


@st.composite
def _linearity_cases(draw):
    """A design with two standard normal response vectors, a factor a and
    the bound on |f(a y1 + y2) - (a f(y1) + f(y2))|, which scales with a."""
    pts, metric, kernel, h = draw(_designs())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y1, y2 = rng.normal(size=(2, pts.shape[0]))
    a = draw(st.floats(-3.0, 3.0))
    return pts, metric, kernel, h, y1, y2, a, 1e-10 * (1.0 + abs(a))


def _fixed_linearity_case():
    rng = np.random.default_rng(21)
    pts = rng.random((90, 2))
    y1 = rng.normal(size=90)
    y2 = rng.normal(size=90)
    return pts, "euclidean", ProductEpanechnikovKernel(2), 0.4, y1, y2, 1.7, 1e-10


@settings(max_examples=100, deadline=None)
@given(case=_linearity_cases())
@example(case=_fixed_linearity_case())
def test_smoother_linearity_in_responses(case):
    pts, metric, kernel, h, y1, y2, a, atol = case
    f1, f2, f12 = (
        fit_all(Dataset(points=pts, responses=y, metric=metric), h, kernel).fitted
        for y in (y1, y2, a * y1 + y2)
    )
    assert np.abs(f12 - (a * f1 + f2)).max() < atol


# Translating the design rounds its raw coordinates, and the kernel weights
# read them; a system of condition number kappa may turn that into about
# kappa eps of the response scale.  Fits may differ by this many times that;
# the worst of 80 seeded designs shifted by 1e3 was 35.
_TRANSLATION_EPS_MULT = 256.0


@settings(max_examples=60, deadline=None)
@given(
    dim=st.sampled_from([2, 3]),
    annulus=st.booleans(),
    n=st.integers(60, 120),
    seed=st.integers(0, 2**32 - 1),
    reach=st.floats(0.0, 1e3),
    grid_index=st.integers(0, 29),
)
@example(dim=2, annulus=True, n=100, seed=3, reach=1e3, grid_index=0)
@example(dim=3, annulus=False, n=100, seed=4, reach=1e3, grid_index=10)
def test_fits_are_invariant_under_translation(dim, annulus, n, seed, reach, grid_index):
    rng = np.random.default_rng(seed)
    data = Dataset(points=rng.random((n, dim)), responses=rng.normal(size=n))
    shift = rng.normal(size=dim)
    moved = Dataset(points=data.points + reach / np.linalg.norm(shift) * shift,
                    responses=data.responses)
    kernel = build_annulus_kernel(1.0, 1.5, dim) if annulus else ProductEpanechnikovKernel(dim)
    h = float(default_grid(data, kernel)[grid_index])
    fitted, moved_fitted = fit_all(data, h, kernel).fitted, fit_all(moved, h, kernel).fitted
    ok = ~np.isnan(fitted)
    assert np.array_equal(np.isnan(moved_fitted), ~ok)
    kappa = np.linalg.cond(_normal_systems(_Workspace(data), kernel, h)[1][ok])
    scale = _TRANSLATION_EPS_MULT * np.finfo(float).eps * np.abs(data.responses).max()
    assert (np.abs(fitted - moved_fitted)[ok] <= scale * kappa).all()


def test_constant_responses_reproduced():
    rng = np.random.default_rng(5)
    data = Dataset(points=rng.random((80, 2)), responses=np.full(80, 5.0))
    est, singular = fit_points(data, [[0.4, 0.6]], 0.3, ProductEpanechnikovKernel(2))
    assert not singular[0]
    assert abs(est[0] - 5.0) < 1e-12


def test_collinear_points_give_nan_and_singular_mask():
    t = np.linspace(0.0, 1.0, 5)
    pts = np.column_stack([t, 2.0 * t])  # rank-deficient design in D=2
    data = Dataset(points=pts, responses=t)
    est, singular = fit_points(data, [[0.5, 1.0]], 1.0, ProductEpanechnikovKernel(2))
    assert np.isnan(est[0])
    assert singular[0]


def test_annulus_with_tiny_h_marks_every_point_singular():
    data = make_affine_dataset(n=60, dim=2, seed=1)
    kz = build_annulus_kernel(1.0, 1.5, 2)
    fit = fit_all(data, 1e-6, kz)
    assert fit.singular_count == data.n
    with pytest.raises(SingularFitError):
        rss(fit)


def test_fitted_plus_residuals_equals_responses():
    data = make_affine_dataset(n=100, dim=2, seed=2)
    fit = fit_all(data, 0.5, ProductEpanechnikovKernel(2))
    assert_allclose(fit.fitted + fit.residuals, data.responses, rtol=0, atol=0)


def test_hat_coefficient_identities():
    rng = np.random.default_rng(9)
    data = Dataset(points=rng.random((80, 2)), responses=rng.normal(size=80))
    kz = build_annulus_kernel(1.0, 1.5, 2)
    i = 7
    c = hat_matrix(data, 0.35, kz)[0][i]
    assert c[i] == 0.0  # annulus kernel vanishes at the origin
    assert abs(c.sum() - 1.0) < 1e-10  # constant preservation
    assert np.abs(c @ (data.points - data.points[i])).max() < 1e-10
    fitted, singular = fit_points(data, data.points[i][None, :], 0.35, kz)
    assert not singular[0]
    assert abs(c @ data.responses - fitted[0]) < 1e-12


def test_hat_matrix_matches_per_row_and_explicit_algebra():
    rng = np.random.default_rng(11)
    data = Dataset(points=rng.random((40, 2)), responses=rng.normal(size=40))
    ko = ProductEpanechnikovKernel(2)
    h = 0.5
    c, singular = hat_matrix(data, h, ko)
    assert not singular.any()
    # each row applied to the responses gives that point's fitted value
    assert_allclose(c @ data.responses, fit_all(data, h, ko).fitted, atol=1e-12)
    # independent dense-algebra check of one row
    i = 13
    x = data.points
    u = (x - x[i]) / h
    w = np.prod(np.where(np.abs(u) <= 1, 0.75 * (1 - u * u), 0.0), axis=1)
    xmat = np.column_stack([np.ones(data.n), x - x[i]])
    a = xmat.T @ (w[:, None] * xmat)
    row = np.linalg.solve(a, np.eye(3)[:, 0]) @ (xmat.T * w)
    assert_allclose(c[i], row, atol=1e-10)


@pytest.mark.parametrize(
    "targets, match",
    [
        ([0.4, 0.6], "nonempty"),  # one point as a 1-d array
        ([[0.4, np.nan]], "finite"),
        ([[0.4, 0.6, 0.5]], "nonempty"),  # the wrong D
        (np.empty((0, 2)), "nonempty"),
    ],
    ids=["one-d", "nan", "wrong-dim", "empty"],
)
def test_fit_points_rejects_malformed_targets(targets, match):
    data = make_affine_dataset(n=40, dim=2, seed=6)
    with pytest.raises(ValueError, match=match):
        fit_points(data, targets, 0.4, ProductEpanechnikovKernel(2))


def test_fit_points_rejects_impossible_latitudes():
    # targets go through Dataset's latitude check, with its message
    rng = np.random.default_rng(8)
    data = Dataset(_in_box(rng.random((60, 2)), "haversine"), rng.normal(size=60), "haversine")
    targets = [[33.0, -85.0], [95.0, -85.0]]
    with pytest.raises(ValueError, match=r"latitude must lie in \[-90, 90\]; row 1 has 95\.0"):
        fit_points(data, targets, 300.0, ProductEpanechnikovKernel(2))
    with pytest.raises(ValueError, match=r"row 1 has 95\.0"):
        Dataset(targets + [[34.0, -84.0], [35.0, -83.0]], np.zeros(4), "haversine")


_BANDWIDTH_ENTRY_POINTS = {
    "fit_all": fit_all,
    "fit_points": lambda data, h, k: fit_points(data, data.points[:5], h, k),
    "hat_matrix": hat_matrix,
    "gcv_score": lambda data, h, k: gcv_score(data, k, h),
    "sigma2_rss": sigma2_rss,
}


@pytest.mark.parametrize("h", [np.nan, np.inf, -np.inf, 0.0])
@pytest.mark.parametrize("entry", sorted(_BANDWIDTH_ENTRY_POINTS))
def test_nonfinite_or_nonpositive_bandwidth_is_rejected(entry, h):
    # h = nan used to give n singular fits, a SingularFitError in sigma2_rss
    # and an infinite GCV score
    data = make_affine_dataset(n=60, dim=2, seed=14)
    with pytest.raises(ValueError, match="bandwidth must be positive and finite"):
        _BANDWIDTH_ENTRY_POINTS[entry](data, h, ProductEpanechnikovKernel(2))


def test_weight_scale_invariance():
    # multiplying every kernel weight by a positive constant leaves the fit alone
    rng = np.random.default_rng(31)
    data = Dataset(points=rng.random((70, 2)), responses=rng.normal(size=70))
    kz = build_annulus_kernel(1.0, 1.5, 2)
    scaled = RadialAnnulusKernel(
        c1=kz.c1, c2=kz.c2, coeffs=tuple(4.0 * c for c in kz.coeffs), dim=kz.dim
    )
    f1 = fit_all(data, 0.4, kz)
    f2 = fit_all(data, 0.4, scaled)
    assert f1.singular_count == f2.singular_count == 0
    assert np.abs(f1.fitted - f2.fitted).max() < 1e-12


def test_rss_values():
    data = make_affine_dataset(n=50, dim=2, seed=3)
    fit = fit_all(data, 0.5, ProductEpanechnikovKernel(2))
    assert rss(fit) < 1e-20  # zero residuals on affine data
    from corrsmooth.locfit import FitResult

    toy = FitResult(
        fitted=np.array([0.0, 0.0]),
        residuals=np.array([1.0, -1.0]),
        singular_count=0,
    )
    assert rss(toy) == 1.0


def test_pairwise_distances_euclidean():
    pts = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 0.0], [1.0, 1.0]])
    data = Dataset(points=pts, responses=np.zeros(4))
    d = pairwise_distances(data)
    assert d[0] == pytest.approx(5.0)
    assert d[1] == 0.0  # identical points


@settings(max_examples=100, deadline=None)
@given(
    dim=st.integers(1, 4),
    extra=st.integers(0, 40),
    m=st.integers(1, 10),
    log_scale=st.integers(-8, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_euclidean_target_distances_equal_the_broadcast_definition(dim, extra, m, log_scale, seed):
    rng = np.random.default_rng(seed)
    n = dim + 2 + extra
    scale = 10.0**log_scale
    data = Dataset(points=scale * rng.normal(size=(n, dim)), responses=np.zeros(n))
    targets = scale * rng.normal(size=(m, dim))
    diff = targets[:, None, :] - data.points[None, :, :]
    expected = np.sqrt((diff * diff).sum(axis=-1))
    assert _metric_distances(data, targets).tobytes() == expected.tobytes()
    assert _metric_distances(data, data.points).tobytes() == squareform(pairwise_distances(data)).tobytes()


def test_pairwise_distances_haversine_one_degree():
    pts = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 5.0], [20.0, -3.0]])
    data = Dataset(points=pts, responses=np.zeros(4), metric="haversine")
    d = pairwise_distances(data)
    # one degree of longitude at the equator: arc = R * pi/180
    assert abs(d[0] - 111.195) < 0.01
    assert abs(d[0] - EARTH_RADIUS_KM * np.pi / 180.0) < 1e-6


def test_haversine_requires_two_columns():
    with pytest.raises(ValueError, match="haversine"):
        Dataset(points=np.random.default_rng(0).random((10, 3)),
                responses=np.zeros(10), metric="haversine")


def test_haversine_rejects_impossible_latitude():
    pts = np.array([[10.0, 5.0], [89.9, 0.0], [-90.5, 3.0], [95.0, 1.0]])
    with pytest.raises(ValueError, match=r"latitude.*row 2"):
        Dataset(points=pts, responses=np.zeros(4), metric="haversine")
    pts[2, 0] = -90.0
    pts[3, 0] = 90.0
    Dataset(points=pts, responses=np.zeros(4), metric="haversine")
    # the bound applies only to latitude/longitude data
    Dataset(points=pts * 2.0, responses=np.zeros(4))


def test_dataset_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="D\\+2"):
        Dataset(points=rng.random((3, 2)), responses=np.zeros(3))
    bad = rng.random((10, 2))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        Dataset(points=bad, responses=np.zeros(10))
    with pytest.raises(ValueError, match="metric"):
        Dataset(points=rng.random((10, 2)), responses=np.zeros(10), metric="cosine")


def test_dataset_arrays_are_read_only():
    data = make_affine_dataset(n=20, dim=2)
    with pytest.raises(ValueError):
        data.points[0, 0] = 1.0


def test_load_csv_round_trip(tmp_path):
    data = make_affine_dataset(n=30, dim=2, seed=8)
    path = tmp_path / "d.csv"
    rows = ["x1,x2,y"]
    for p, y in zip(data.points, data.responses):
        rows.append(f"{float(p[0])!r},{float(p[1])!r},{float(y)!r}")
    path.write_text("\n".join(rows))
    back = load_csv(path)
    assert_allclose(back.points, data.points)
    assert_allclose(back.responses, data.responses)


def test_load_csv_missing_y(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,x2,z\n0,0,1\n")
    with pytest.raises(ValueError, match="column y not found"):
        load_csv(path)


@pytest.mark.parametrize("header", ["x1,x2,x4,y", "x1,x2,x1,y", "x2,x1,x3,x5,y"])
def test_load_csv_rejects_a_stray_coordinate_column(tmp_path, header):
    # a coordinate column after a gap, or a repeated one, is named, not dropped
    stray = header.split(",")[-2]
    path = tmp_path / "bad.csv"
    path.write_text(header + "\n" + ",".join(["0.5"] * header.count(",") + ["1.0"]) + "\n")
    with pytest.raises(ValueError, match=f"stray coordinate column {stray}"):
        load_csv(path)


def test_load_csv_malformed_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,y\n0.1,ok\n")
    with pytest.raises(ValueError, match="line 2"):
        load_csv(path)
