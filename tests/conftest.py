"""Shared fixtures: seeded synthetic datasets used across test modules."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import settings

from corrsmooth.covariance import _PairSums
from corrsmooth.locfit import Dataset, PairIndex, pairwise_distances
from corrsmooth.simulate import draw_correlated_errors
from scipy.spatial.distance import squareform

# Every run draws the same examples and keeps no example database.  Hypothesis
# still caches the constants it reads from the source; a temporary storage
# directory, removed at exit, keeps that cache out of the checkout too.
settings.register_profile("corrsmooth", derandomize=True, database=None)
settings.load_profile("corrsmooth")
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="corrsmooth-hypothesis-")
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", _HYPOTHESIS_HOME.name)


def make_affine_dataset(n=200, dim=2, seed=0, coeffs=None):
    """Noiseless affine responses; local linear must reproduce them exactly."""
    rng = np.random.default_rng(seed)
    x = rng.random((n, dim))
    if coeffs is None:
        coeffs = np.arange(1, dim + 1, dtype=float)
    y = 1.0 + x @ np.asarray(coeffs, dtype=float)
    return Dataset(points=x, responses=y)


def pair_sums(residuals, distances):
    """The covariance layer's pair sums of residuals over condensed pair distances."""
    residuals = np.asarray(residuals, dtype=float)
    return _PairSums(residuals, PairIndex.from_distances(distances, residuals.size))


def make_geo_dataset(n=500, seed=42, range_km=200.0, sigma2=0.25):
    """Synthetic stand-in for a county-level mortality surface: lat/lon over
    a southeastern-US-style box, a smooth trend, and spherically correlated
    errors with the given great-circle range."""
    rng = np.random.default_rng(seed)
    lat = 30.0 + 7.0 * rng.random(n)
    lon = -92.0 + 14.0 * rng.random(n)
    pts = np.column_stack([lat, lon])
    trend = (
        9.0
        + 1.5 * np.sin(np.pi * (lon + 92.0) / 14.0)
        + 2.0 * ((lat - 30.0) / 7.0) ** 2
    )
    dist = squareform(
        pairwise_distances(Dataset(points=pts, responses=np.zeros(n), metric="haversine"))
    )
    x = dist / range_km
    rho = np.where(x <= 1.0, 1.0 - 1.5 * x + 0.5 * x**3, 0.0)
    errors = draw_correlated_errors(sigma2 * rho, rng)
    return Dataset(points=pts, responses=trend + errors, metric="haversine"), trend, errors


def make_exponential_field(n=2000, seed=0, c=1.0, sigma2=0.1):
    """Unit-square sites whose responses are errors drawn from the
    exponential model sigma2 * exp(-c * sqrt(n) * d) (alpha = 1, D = 2)."""
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    cov = squareform(pairwise_distances(Dataset(points=pts, responses=np.zeros(n))))
    cov *= -c * np.sqrt(n)
    np.exp(cov, out=cov)
    cov *= sigma2
    cov.flat[:: n + 1] += 1e-10 * sigma2
    errors = np.linalg.cholesky(cov) @ rng.standard_normal(n)
    return Dataset(points=pts, responses=errors)


@pytest.fixture(scope="session")
def geo_dataset():
    return make_geo_dataset()


@pytest.fixture(scope="session")
def exponential_field():
    return make_exponential_field()
