"""Whole-chain equivariance: the annulus bandwidth selection and the
covariance chain after it (select_h_o, then error_covariance) under
symmetries of the data.

Permuting the rows leaves every decision equal: the bandwidth grid, h_z's
index in it and the feasible candidates, the chosen b and the candidates
tried for it, the calibration fallback, the truncation lag T, the dropped
lags, the per-lag flags and the clamp of the correlation curve.  The fits'
sums run in another order, so the values move by rounding only.

Scaling euclidean coordinates by 2^k is exact in floating point, and it
leaves every decision equal; h_z, h_o, b and T scale by 2^k.  They do so to
a few ulps, not exactly, so rho-hat is not bit-identical either:
np.geomspace builds the bandwidth and b candidates from logarithms, which
move the interior candidates by a few ulps, and at k = 2 the local fits
round differently as well.  The bounds below state how far they may move.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from corrsmooth.bandwidth import select_h_o
from corrsmooth.covariance import error_covariance
from corrsmooth.errors import CorrsmoothError
from corrsmooth.kernels import build_annulus_kernel
from corrsmooth.locfit import Dataset
from corrsmooth.simulate import draw_correlated_errors
from scipy.spatial.distance import cdist

EPS = np.finfo(float).eps
# The measured worst over 40 seeds at n=80 was 1.5e-15 (rows permuted) and
# 1.8e-14 (coordinates scaled) on rho-hat and 6 ulps on a scaled h_z or b.
_RHO_ATOL = 1e-12
_SCALED_ULPS = 16

designs = st.fixed_dictionaries({
    "seed": st.integers(0, 2**16),
    "n": st.integers(60, 100),
    "c1": st.sampled_from([0.5, 1.0, 2.0]),
})


def make_data(seed, n):
    """Uniform sites in the unit square with a smooth trend plus errors of
    exponential correlation (range 0.1)."""
    rng = np.random.default_rng(seed)
    x = rng.random((n, 2))
    errors = draw_correlated_errors(0.1 * np.exp(-cdist(x, x) / 0.1), rng)
    return x, np.sin(3.0 * x[:, 0]) + x[:, 1] ** 2 + errors


def chain(points, responses, c1):
    """(selection, covariance chain) of the data, or the class of the
    numerical failure that stopped them."""
    data = Dataset(points, responses)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sel = select_h_o(data, build_annulus_kernel(c1, c1 + 0.5, 2))
            return sel, error_covariance(data, sel.h_o)
    except CorrsmoothError as err:
        return type(err)


def decisions(sel, cov):
    """What the chain decided, free of the coordinates' unit."""
    cal, curve = cov.calibration, cov.curve
    return {
        "h_z index": int(np.flatnonzero(sel.grid == sel.h_z)[0]),
        "feasible": np.isfinite(sel.rss_trace).tolist(),
        "b index": int(np.flatnonzero(cal.b_candidates == cal.chosen_b)[0]),
        "b candidates": cal.b_candidates.size,
        "fallback": cal.fallback,
        "lags": curve.t_grid.size,
        "dropped": curve.dropped.size,
        "flags": curve.flags.tolist(),
        "clamped": cov.rho.clamped,
    }


@settings(max_examples=25, deadline=None)
@given(design=designs, perm_seed=st.integers(0, 2**16))
def test_row_permutation_leaves_the_chain_equal(design, perm_seed):
    x, y = make_data(design["seed"], design["n"])
    perm = np.random.default_rng(perm_seed).permutation(design["n"])
    base, permuted = chain(x, y, design["c1"]), chain(x[perm], y[perm], design["c1"])
    if not isinstance(base, tuple):
        assert permuted is base
        return
    (sel, cov), (sel_p, cov_p) = base, permuted
    assert decisions(sel_p, cov_p) == decisions(sel, cov)
    assert np.array_equal(sel_p.grid, sel.grid)  # from sorted rows and exact counts
    assert cov_p.calibration.chosen_b == cov.calibration.chosen_b
    assert cov_p.curve.truncation_t == cov.curve.truncation_t
    assert np.array_equal(cov_p.curve.dropped, cov.curve.dropped)
    assert np.allclose(cov_p.rho.rho, cov.rho.rho, rtol=0.0, atol=_RHO_ATOL)
    scale = np.abs(y).max()
    assert np.allclose(cov_p.fit.fitted, cov.fit.fitted[perm], rtol=0.0, atol=1e-12 * scale)


def assert_scaled(value, base, factor):
    assert abs(value - factor * base) <= _SCALED_ULPS * EPS * factor * abs(base)


@settings(max_examples=25, deadline=None)
@given(design=designs, k=st.sampled_from([-2, -1, 1, 2]))
def test_power_of_two_coordinate_scaling_scales_the_chain(design, k):
    x, y = make_data(design["seed"], design["n"])
    factor = 2.0**k
    base, scaled = chain(x, y, design["c1"]), chain(x * factor, y, design["c1"])
    if not isinstance(base, tuple):
        assert scaled is base
        return
    (sel, cov), (sel_s, cov_s) = base, scaled
    assert decisions(sel_s, cov_s) == decisions(sel, cov)
    for value, ref in [
        (sel_s.h_z, sel.h_z), (sel_s.h_o, sel.h_o),
        (cov_s.calibration.chosen_b, cov.calibration.chosen_b),
        (cov_s.curve.truncation_t, cov.curve.truncation_t),
    ]:
        assert_scaled(value, ref, factor)
    assert np.allclose(cov_s.rho.rho, cov.rho.rho, rtol=0.0, atol=_RHO_ATOL)
