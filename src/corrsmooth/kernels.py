"""Kernel functions for local linear smoothing and covariance estimation.

Conventions:
  - Callers use a kernel through its own methods; nothing dispatches on its
    class.  profile(r) gives the annulus kernel at radii r = ||u||, value()
    the product kernel at D-vectors u and the boundary kernel at lags; all
    are exactly 0 outside the stated support (hard cutoff).
  - moments() gives mu2(K) = int u_1^2 K du and mu(K^2) = int K^2 du over
    R^D, for the factor method and the oracle bandwidth; the annulus
    kernel's reduce to 1-D integrals in r, exact for its cubic profile.
    RadialAnnulusKernel.to_text() is its one-line record in a fit report.
  - The two fitting kernels read their geometry from a design's workspace
    (locfit._Workspace), so no caller branches on the kernel kind:
    geometry(ws) is what weights(geometry, h) turns into the dense (m, n)
    weights, and reach(ws) the sorted distance rows the bandwidth grid
    scans.  Both reject a workspace of another dimension.  The annulus
    kernel's windows(grid) gives its weights at each bandwidth as a
    polynomial in distance on a window of a sorted row, which the elbow
    scan's prefix-sum pass reads; weights() takes its support from them.
  - check_radii(c1, c2) states the annulus rule 0 < c1 < c2 < inf once.

The annulus kernel is a cubic polynomial in r supported on [c1, c2] and
identically zero elsewhere, normalized to integrate to 1 over R^D.  Its
coefficients are chosen by minimizing one of three documented objectives
subject to positivity on the open annulus.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .errors import KernelConstructionError

__all__ = [
    "MIN_VARIANCE",
    "MIN_AMISE",
    "MIN_PRODUCT",
    "RadialAnnulusKernel",
    "ProductEpanechnikovKernel",
    "BoundaryKernel",
    "KernelMoments",
    "build_annulus_kernel",
    "check_radii",
    "sphere_surface",
]

MIN_VARIANCE = "min_variance"
MIN_AMISE = "min_amise"
MIN_PRODUCT = "min_product"
_OBJECTIVES = (MIN_VARIANCE, MIN_AMISE, MIN_PRODUCT)

# Positivity is enforced on a fixed interior grid; a cubic has at most two
# interior roots, so 512 points over-resolve any sign change.
_POSITIVITY_GRID = 512
_POSITIVITY_EPS = 1e-12

DEFAULT_C2_OFFSET = 0.5


def sphere_surface(dim: int) -> float:
    """Surface area of the unit sphere in R^dim (2, 2*pi, 4*pi, ...)."""
    if dim < 1:
        raise ValueError("dim must be a positive integer")
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


def _same_dim(kernel, ws):
    """ws, once its design is checked to have the kernel's dimension."""
    if kernel.dim != ws.data.dim:
        raise ValueError("kernel dimension does not match dataset")
    return ws


def _last_within(c, h):
    """Per bandwidth h, the greatest double d with fl(d / h) <= c, found by
    ulp steps from c h; fl(d / h) is nondecreasing in d."""
    d = c * h
    while np.any(over := d / h > c):
        d = np.where(over, np.nextafter(d, 0.0), d)
    while np.any(fits := np.nextafter(d, np.inf) / h <= c):
        d = np.where(fits, np.nextafter(d, np.inf), d)
    return d


def _radial_mass(c1: float, c2: float, power: int) -> float:
    """int_{c1}^{c2} r^power dr."""
    return (c2 ** (power + 1) - c1 ** (power + 1)) / (power + 1)


@dataclass(frozen=True)
class KernelMoments:
    mu2: float
    muK2: float


@dataclass(frozen=True)
class RadialAnnulusKernel:
    """Cubic-in-radius kernel supported on the annulus c1 <= ||u|| <= c2."""

    c1: float
    c2: float
    coeffs: tuple  # (A, B, C, D): A r^3 + B r^2 + C r + D
    dim: int

    def cubic(self, r):
        """The cubic A r^3 + B r^2 + C r + D at r, without the support cutoff."""
        a, b, c, d = self.coeffs
        return ((a * r + b) * r + c) * r + d

    def profile(self, r):
        r = np.asarray(r, dtype=float)
        inside = (r >= self.c1) & (r <= self.c2)
        return np.where(inside, self.cubic(r), 0.0)

    def geometry(self, ws):
        """The workspace's (m, n) metric distances."""
        return _same_dim(self, ws).distances

    def weights(self, dist, h):
        """profile(dist / h) as a C-ordered array.

        The cubic is evaluated on windows([h])'s support lo < dist <= hi only
        and scattered into the zeroed array of radii, so every value equals
        profile's, whatever the layout of dist.
        """
        lo, hi = self.windows([h])[0][0]
        r = np.divide(dist, h, order="C")
        flat = r.reshape(-1)  # a view, as r is C-contiguous
        support = np.flatnonzero((dist > lo) & (dist <= hi))  # in C order
        values = self.cubic(flat[support])
        flat.fill(0.0)
        flat[support] = values
        return r

    def reach(self, ws):
        """The workspace's per-row sorted distances for default_grid's scan,
        and the support (c1, c2) in units of h."""
        return _same_dim(self, ws).sorted_distances, self.c1, self.c2

    def windows(self, grid):
        """The kernel at each bandwidth h of grid as a polynomial in distance
        on a window: (edges, powers), with (W, 2) edges and (W, 4) powers.

        A distance d lies in the support exactly when edges[w, 0] < d <=
        edges[w, 1], the greatest doubles with fl(d / h) < c1 and fl(d / h)
        <= c2, so ties at c1 h and c2 h fall as in profile(d / h); weights()
        and the elbow scan's prefix-sum pass both take their support from
        here.  There the weight is sum_k powers[w, k] d^k, the profile's
        coefficients times h^-k for k = 0..3.
        """
        h = np.asarray(grid, dtype=float)
        edges = np.stack([_last_within(np.nextafter(self.c1, 0.0), h), _last_within(self.c2, h)])
        a, b, c, d = self.coeffs
        return edges.T, np.stack([np.full_like(h, d), c / h, b / h**2, a / h**3], axis=1)

    def moments(self) -> KernelMoments:
        """mu2 and mu(K^2), exact for the cubic profile."""
        _, v, q = _annulus_vectors(self.c1, self.c2, self.dim)
        theta = np.asarray(self.coeffs, dtype=float)
        return KernelMoments(mu2=float(v @ theta), muK2=float(theta @ q @ theta))

    def to_text(self) -> str:
        parts = ["annulus", repr(self.c1), repr(self.c2), str(self.dim)]
        return " ".join(parts + [repr(c) for c in self.coeffs])


@dataclass(frozen=True)
class ProductEpanechnikovKernel:
    """K(u) = prod_d (3/4)(1 - u_d^2) on |u_d| <= 1 per coordinate."""

    dim: int

    def value(self, u):
        u = np.asarray(u, dtype=float)
        if u.shape[-1] != self.dim:
            raise ValueError(f"expected trailing axis of length {self.dim}")
        flat = u.reshape(-1, self.dim)
        out = self.component_product(flat[:, d] for d in range(self.dim))
        return out.reshape(u.shape[:-1])[()]

    def geometry(self, ws):
        """The workspace's (D, m, n) coordinate displacements."""
        return _same_dim(self, ws).displacements

    def weights(self, disp, h):
        """K(disp / h)."""
        return self.component_product(d / h for d in disp)

    def reach(self, ws):
        """Per-row sorted Chebyshev distances, below h exactly when every
        coordinate is inside the support, and the support (0, 1) in units of h."""
        disp = self.geometry(ws)
        cheb = np.abs(disp[0])  # a new array: the fits still read disp
        for d in disp[1:]:
            np.maximum(cheb, np.abs(d), out=cheb)
        cheb.sort(axis=1)
        return cheb, 0.0, 1.0

    def moments(self) -> KernelMoments:
        # per-coordinate: int u^2 (3/4)(1-u^2) du = 1/5, int K^2 = 3/5
        return KernelMoments(mu2=0.2, muK2=0.6**self.dim)

    @staticmethod
    def component_product(components):
        """K at the points whose d-th coordinates are the d-th array of components.

        Factors (3/4)(1 - u_d^2) are multiplied one at a time in coordinate
        order.  fmin caps u_d^2 at 1, so |u_d| > 1, NaN and +-inf all give the
        factor 0.  Each factor is built in place in the fresh array u_d * u_d.
        """
        out = None
        for u_d in components:
            f = u_d * u_d
            np.fmin(f, 1.0, out=f)
            np.subtract(1.0, f, out=f)
            f *= 0.75
            if out is None:
                out = f
            else:
                out *= f
        return out


@dataclass(frozen=True)
class BoundaryKernel:
    """Asymmetric kernel on [-1, q] restoring zeroth/first moments near lag 0.

    q is the ratio t/b clamped to (0, 1]; an array of ratios gives one
    kernel per lag.  On its support the kernel is the quadratic

        12 (u + 1) (u (1 - 2q) + (3q^2 - 2q + 1) / 2) / (1 + q)^4,

    which at q = 1 is the Epanechnikov kernel 3/4 (1 - u^2).  Its factors
    below give value(), and the coefficients, the weight at u = q of the
    pairs at distance 0 and the sign change that the covariance layer's
    window sums read.
    """

    q: float | np.ndarray

    def __post_init__(self):
        q = np.minimum(np.asarray(self.q, dtype=float), 1.0)
        q = np.where(q > 0.0, q, np.finfo(float).eps)
        object.__setattr__(self, "q", float(q) if q.ndim == 0 else q)

    def _factors(self):
        """(scale, slope, offset) with the kernel scale (u + 1)(slope u + offset)."""
        q = self.q
        return 12.0 / (1.0 + q) ** 4, 1.0 - 2.0 * q, (3.0 * q * q - 2.0 * q + 1.0) / 2.0

    @property
    def coefficients(self):
        """(k0, k1, k2) with the kernel k0 + k1 u + k2 u^2 on its support."""
        scale, slope, offset = self._factors()
        return scale * offset, scale * (slope + offset), scale * slope

    @property
    def diagonal(self):
        """The kernel at u = q, where pairs at distance 0 sit: 6 (1 - q) / (1 + q)^2,
        which is 0 at q = 1, so for every lag t >= b."""
        return 6.0 * (1.0 - self.q) / (1.0 + self.q) ** 2

    @property
    def sign_change(self):
        """The root -offset / slope, left of which the kernel is negative on
        its support.  It lies in (-1, q) only for q < 1/3; elsewhere the
        kernel is nonnegative and -1, the support's end, stands in."""
        _, slope, offset = self._factors()
        turns = np.asarray(self.q < 1.0 / 3.0)
        root = np.divide(-offset, slope, out=np.full(turns.shape, -1.0), where=turns)
        return root[()]

    def value(self, u):
        """The kernel at u, in factored form so that it is exactly 0 at u = -1."""
        u = np.asarray(u, dtype=float)
        scale, slope, offset = self._factors()
        inside = (u >= -1.0) & (u <= self.q)
        return np.where(inside, scale * (u + 1.0) * (slope * u + offset), 0.0)


def _annulus_vectors(c1, c2, dim):
    """Normalization vector w, mu2 vector v, and Gram matrix Q for the
    coefficient basis (r^3, r^2, r, 1) under the R^dim measure."""
    degs = (3, 2, 1, 0)
    s = sphere_surface(dim)
    w = np.array([s * _radial_mass(c1, c2, dim - 1 + d) for d in degs])
    v = np.array([s / dim * _radial_mass(c1, c2, dim + 1 + d) for d in degs])
    q = np.array(
        [[s * _radial_mass(c1, c2, dim - 1 + di + dj) for dj in degs] for di in degs]
    )
    return w, v, q


def _annulus_objective(theta, v, q, objective, dim):
    quad = float(theta @ q @ theta)
    if objective == MIN_VARIANCE:
        return quad
    mu2 = float(v @ theta)
    if mu2 <= 0.0:
        return np.inf
    if objective == MIN_AMISE:
        return quad * quad * mu2**dim
    return quad * mu2


def check_radii(c1, c2) -> tuple[float, float]:
    """Annulus radii (c1, c2) as floats; a ValueError unless 0 < c1 < c2 < inf."""
    c1, c2 = float(c1), float(c2)
    if not 0.0 < c1 < np.inf:
        raise ValueError(f"c1 must be positive and finite (0 < c1 < c2 < inf), got {c1!r}")
    if not c1 < c2 < np.inf:
        raise ValueError(f"c2 must exceed c1={c1!r} and be finite (0 < c1 < c2 < inf), got {c2!r}")
    return c1, c2


def build_annulus_kernel(
    c1: float, c2: float, dim: int, objective: str = MIN_AMISE
) -> RadialAnnulusKernel:
    """Construct a normalized, positive annulus kernel by penalized simplex search.

    The normalization constraint eliminates the constant coefficient; the
    remaining three are optimized with Nelder-Mead starting from the
    closed-form Lagrange solution of the variance objective (which is the
    constant profile and always feasible).  Positivity is enforced by an
    L1 penalty on a 512-point interior grid, followed by a blend toward
    the constant profile if the optimum grazes zero.  Kernels are cached per
    (c1, c2, dim, objective).
    """
    c1, c2 = check_radii(c1, c2)
    if int(dim) != dim or dim < 1:
        raise ValueError(f"dim must be a positive integer, got {dim}")
    dim = int(dim)
    if objective not in _OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}; expected one of {_OBJECTIVES}")
    return _build_annulus_kernel(c1, c2, dim, objective)


# The public def stays uncached so that tracers see every call; the search is
# deterministic and the kernel frozen, so a cached kernel is the same bits.
@functools.lru_cache(maxsize=256)
def _build_annulus_kernel(c1: float, c2: float, dim: int, objective: str) -> RadialAnnulusKernel:
    w, v, q = _annulus_vectors(c1, c2, dim)
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(q))):
        raise KernelConstructionError(
            f"annulus masses overflow for (c1={c1}, c2={c2}, dim={dim})"
        )

    # Constant profile: the exact Lagrange minimizer of mu(K^2) under the
    # normalization constraint; strictly positive, so always feasible.
    theta_const = np.zeros(4)
    theta_const[3] = 1.0 / w[3]
    try:
        sol = np.linalg.solve(q, w)
        theta_start = sol / float(w @ sol)
    except np.linalg.LinAlgError:
        theta_start = theta_const

    grid = np.linspace(c1, c2, _POSITIVITY_GRID + 2)[1:-1]
    gmat = np.vander(grid, 4)  # columns r^3, r^2, r, 1

    def assemble(x):
        theta = np.empty(4)
        theta[:3] = x
        theta[3] = (1.0 - x @ w[:3]) / w[3]
        return theta

    f0 = _annulus_objective(theta_const, v, q, objective, dim)
    pen_weight = 1e6 * max(f0, 1e-12)

    def penalized(x):
        theta = assemble(x)
        base = _annulus_objective(theta, v, q, objective, dim)
        if not np.isfinite(base):
            return base
        viol = np.maximum(0.0, _POSITIVITY_EPS - gmat @ theta)
        return base + pen_weight * viol.sum()

    x0 = theta_start[:3]
    if not np.isfinite(penalized(x0)):
        x0 = theta_const[:3]
    res = optimize.minimize(
        penalized,
        x0,
        method="Nelder-Mead",
        options={"xatol": 1e-11, "fatol": 1e-14, "maxiter": 20000, "maxfev": 20000},
    )
    theta = assemble(res.x)
    if _annulus_objective(theta, v, q, objective, dim) > _annulus_objective(
        theta_const, v, q, objective, dim
    ):
        # Penalized search wandered; the constant profile dominates it.
        theta = theta_const

    # Restore strict positivity by blending toward the constant profile;
    # normalization is linear, so blends stay normalized.
    vals = gmat @ theta
    target = 10.0 * _POSITIVITY_EPS
    if vals.min() <= _POSITIVITY_EPS:
        pc = gmat @ theta_const
        gain = pc - vals
        need = (target - vals) / np.where(gain > 0.0, gain, np.inf)
        lam = float(np.clip(need.max(), 0.0, 1.0))
        theta = (1.0 - lam) * theta + lam * theta_const
        vals = gmat @ theta
        if vals.min() <= _POSITIVITY_EPS:
            raise KernelConstructionError(
                f"no positive normalized cubic found on annulus (c1={c1}, c2={c2}); "
                f"min grid value {vals.min():.3e}, normalization residual "
                f"{abs(w @ theta - 1.0):.3e}"
            )

    norm_residual = abs(float(w @ theta) - 1.0)
    if norm_residual > 1e-8:
        raise KernelConstructionError(
            f"normalization failed for (c1={c1}, c2={c2}): residual {norm_residual:.3e}"
        )
    return RadialAnnulusKernel(c1=c1, c2=c2, coeffs=tuple(float(t) for t in theta), dim=dim)
