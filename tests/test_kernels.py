import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import integrate

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


def numeric_radial_integral(kernel, dim):
    """Independent normalization check via adaptive quadrature in r."""
    s = sphere_surface(dim)
    val, _ = integrate.quad(
        lambda r: s * r ** (dim - 1) * float(kernel.profile(r)),
        kernel.c1,
        kernel.c2,
        limit=200,
    )
    return val


def test_sphere_surface_known_values():
    assert_allclose(sphere_surface(1), 2.0)
    assert_allclose(sphere_surface(2), 2.0 * np.pi)
    assert_allclose(sphere_surface(3), 4.0 * np.pi)


def assert_normalized_and_positive(k, dim):
    c1, c2 = k.c1, k.c2
    assert abs(numeric_radial_integral(k, dim) - 1.0) < 1e-8
    grid = np.linspace(c1, c2, 514)[1:-1]
    assert np.all(k.profile(grid) > 1e-12)
    # exactly zero outside the closed annulus, positive at the midpoint
    eps = 1e-9
    for r in (0.0, c1 - eps, c2 + eps):
        assert k.profile(r) == 0.0
    assert k.profile((c1 + c2) / 2.0) > 0.0


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("c1", [0.5, 1.0, 2.0, 3.0])
def test_annulus_normalization_and_positivity(c1, dim):
    assert_normalized_and_positive(build_annulus_kernel(c1, c1 + 0.5, dim, MIN_AMISE), dim)


@settings(max_examples=80, deadline=None)
@given(
    c1=st.floats(0.1, 5.0),
    width=st.floats(0.05, 3.0),
    dim=st.integers(1, 3),
    objective=st.sampled_from([MIN_VARIANCE, MIN_AMISE, MIN_PRODUCT]),
)
def test_annulus_normalization_and_positivity_over_random_geometry(c1, width, dim, objective):
    assert_normalized_and_positive(build_annulus_kernel(c1, c1 + width, dim, objective), dim)


def test_annulus_builds_are_cached_bit_for_bit():
    from corrsmooth.kernels import _build_annulus_kernel

    k = build_annulus_kernel(1.25, 1.75, 2, MIN_AMISE)
    assert build_annulus_kernel(1.25, 1.75, 2.0, MIN_AMISE) is k
    assert _build_annulus_kernel.__wrapped__(1.25, 1.75, 2, MIN_AMISE) == k


def test_annulus_rejects_bad_geometry():
    with pytest.raises(ValueError, match="c2 must exceed c1"):
        build_annulus_kernel(1.5, 1.0, 2)
    with pytest.raises(ValueError, match="c1 must be positive"):
        build_annulus_kernel(0.0, 0.5, 2)
    with pytest.raises(ValueError):
        build_annulus_kernel(1.0, 1.5, 0)


@pytest.mark.parametrize(
    "c1, c2, match",
    [
        (np.nan, 1.5, "c1 must be positive"),
        (np.inf, np.inf, "c1 must be positive"),
        (1.0, np.nan, "c2 must exceed c1"),
        (1.0, np.inf, "c2 must exceed c1"),
    ],
)
def test_annulus_rejects_nonfinite_radii(c1, c2, match):
    # a NaN radius used to reach the search and raise KernelConstructionError
    with pytest.raises(ValueError, match=match):
        build_annulus_kernel(c1, c2, 2)


def test_annulus_cross_moment_vanishes_by_symmetry():
    # int u1 u2 K(||u||) du over the annulus, checked by 2-d quadrature
    k = build_annulus_kernel(1.0, 1.5, 2, MIN_AMISE)

    def integrand(u2, u1):
        return u1 * u2 * float(k.profile(np.hypot(u1, u2)))

    val, err = integrate.dblquad(integrand, -1.5, 1.5, -1.5, 1.5, epsabs=1e-10)
    assert abs(val) < 1e-8


def test_min_variance_solution_beats_random_feasible_perturbations():
    # random-perturbation oracle around the returned coefficients
    c1, c2, dim = 2.0, 2.5, 2
    k = build_annulus_kernel(c1, c2, dim, MIN_VARIANCE)
    base = k.moments().muK2
    s = sphere_surface(dim)
    w = np.array(
        [s * (c2 ** (dim + p) - c1 ** (dim + p)) / (dim + p) for p in (3, 2, 1, 0)]
    )
    grid = np.linspace(c1, c2, 256)
    gmat = np.vander(grid, 4)
    rng = np.random.default_rng(123)
    theta0 = np.asarray(k.coeffs)
    found = 0
    while found < 1000:
        delta = rng.normal(scale=0.05, size=3)
        theta = theta0.copy()
        theta[:3] += delta
        theta[3] = (1.0 - theta[:3] @ w[:3]) / w[3]
        if np.any(gmat @ theta <= 0.0):
            continue
        cand = RadialAnnulusKernel(c1=c1, c2=c2, coeffs=tuple(theta), dim=dim)
        assert cand.moments().muK2 >= base - 1e-12
        found += 1


@pytest.mark.parametrize("objective", [MIN_VARIANCE, MIN_AMISE, MIN_PRODUCT])
def test_objectives_all_produce_valid_kernels(objective):
    k = build_annulus_kernel(1.0, 1.5, 2, objective)
    m = k.moments()
    assert m.mu2 > 0.0
    assert m.muK2 > 0.0
    assert abs(numeric_radial_integral(k, 2) - 1.0) < 1e-8


def test_min_amise_tilts_mass_inward():
    # smaller mu2 than the constant (min-variance) profile on the same annulus
    k_var = build_annulus_kernel(1.0, 1.5, 2, MIN_VARIANCE)
    k_amise = build_annulus_kernel(1.0, 1.5, 2, MIN_AMISE)
    assert k_amise.moments().mu2 < k_var.moments().mu2


def test_epanechnikov_moments_1d_analytic():
    # int u^2 (3/4)(1-u^2) du = 1/5, int (3/4)^2 (1-u^2)^2 du = 3/5
    m = ProductEpanechnikovKernel(1).moments()
    assert_allclose(m.mu2, 0.2, rtol=1e-12)
    assert_allclose(m.muK2, 0.6, rtol=1e-12)
    k = BoundaryKernel(1.0)
    mu2_quad, _ = integrate.quad(lambda u: u * u * float(k.value(u)), -1, 1)
    muk2_quad, _ = integrate.quad(lambda u: float(k.value(u)) ** 2, -1, 1)
    assert_allclose(m.mu2, mu2_quad, atol=1e-10)
    assert_allclose(m.muK2, muk2_quad, atol=1e-10)


def test_covariance_kernel_lag_smoothing_conditions():
    # unit mass, zero first moment, positive even moment at the working D=2;
    # at q = 1 the boundary kernel is the symmetric Epanechnikov lag kernel
    k = BoundaryKernel(1.0)
    mass, _ = integrate.quad(lambda u: float(k.value(u)), -1, 1)
    first, _ = integrate.quad(lambda u: u * float(k.value(u)), -1, 1)
    even, _ = integrate.quad(lambda u: u**2 * float(k.value(u)), -1, 1)
    assert_allclose(mass, 1.0, atol=1e-12)
    assert abs(first) < 1e-14
    assert even > 0.0
    assert np.all(k.value(np.linspace(-0.999, 0.999, 101)) > 0.0)


def test_product_epanechnikov_moments_2d():
    ko = ProductEpanechnikovKernel(2)
    m = ko.moments()
    assert_allclose(m.mu2, 0.2, rtol=1e-12)
    assert_allclose(m.muK2, 9.0 / 25.0, rtol=1e-12)
    mu2_quad, _ = integrate.dblquad(
        lambda v, u: u * u * float(ko.value(np.array([u, v]))), -1, 1, -1, 1
    )
    assert_allclose(m.mu2, mu2_quad, atol=1e-8)


def test_moments_agree_with_monte_carlo():
    # independent MC integration over the bounding box, 3 standard errors
    k = build_annulus_kernel(1.0, 1.5, 2, MIN_AMISE)
    rng = np.random.default_rng(2024)
    n = 10**6
    box = 1.5
    u = rng.uniform(-box, box, size=(n, 2))
    vals = k.profile(np.linalg.norm(u, axis=1))
    vol = (2 * box) ** 2
    for integrand, exact in [
        (vals, 1.0),
        (u[:, 0] ** 2 * vals, k.moments().mu2),
        (vals**2, k.moments().muK2),
    ]:
        est = vol * integrand.mean()
        se = vol * integrand.std(ddof=1) / np.sqrt(n)
        assert abs(est - exact) < 3 * se


@pytest.mark.parametrize("q", [0.1, 0.25, 0.5, 0.75, 1.0])
def test_boundary_kernel_moment_conditions(q):
    k = BoundaryKernel(q)
    zeroth, _ = integrate.quad(lambda t: float(k.value(t)), -1.0, q, limit=200)
    first, _ = integrate.quad(lambda t: t * float(k.value(t)), -1.0, q, limit=200)
    assert abs(zeroth - 1.0) < 1e-10
    assert abs(first) < 1e-10


def test_boundary_kernel_reduces_to_epanechnikov_at_q1():
    k = BoundaryKernel(1.0)
    ts = np.linspace(-1.0, 1.0, 401)
    assert_allclose(k.value(ts), 0.75 * (1.0 - ts**2), atol=1e-12)
    assert float(k.value(0.0)) == pytest.approx(0.75)


def test_boundary_kernel_q_clamped():
    assert BoundaryKernel(2.0).q == 1.0
    assert BoundaryKernel(0.0).q > 0.0
    assert BoundaryKernel(-1.0).q > 0.0


def test_kernel_value_examples():
    kz = build_annulus_kernel(1.0, 1.5, 2)
    assert kz.profile(0.5) == 0.0  # inside the zero disk
    assert BoundaryKernel(1.0).value(2.0) == 0.0  # outside support
    ko = ProductEpanechnikovKernel(2)
    assert ko.value(np.array([0.0, 0.0])) == pytest.approx(0.5625)
    assert_allclose(ko.value(np.zeros((5, 2))), 0.5625)


def test_kernel_to_text_records():
    # report.txt's kernel= line carries this record verbatim
    kz = RadialAnnulusKernel(c1=1.25, c2=1.75, coeffs=(0.5, -0.25, 0.125, 1.0), dim=2)
    assert kz.to_text() == "annulus 1.25 1.75 2 0.5 -0.25 0.125 1.0"
