"""Exception types shared across the package."""

from __future__ import annotations


class CorrsmoothError(Exception):
    """Base class for numerical failures raised by this package."""


class KernelConstructionError(CorrsmoothError):
    """Annulus-kernel solver could not produce a valid kernel."""


class SingularFitError(CorrsmoothError):
    """Local linear system had fewer than D+1 effective points in general position."""


class NoFeasibleBandwidthError(CorrsmoothError):
    """No candidate bandwidth produced a nonsingular fit everywhere."""


class NoElbowError(CorrsmoothError):
    """The stability heuristic found no elbow in the scanned trace."""


class DegenerateCorrelationError(CorrsmoothError):
    """The correlation curve's normalizing variance is nonpositive or not finite."""


class EmptyWindowError(CorrsmoothError):
    """Covariance smoothing window contained no pairs."""

    def __init__(self, t, b):
        super().__init__(f"no pairs with nonzero kernel weight in window (t={t!r}, b={b!r})")
        self.t = t
        self.b = b
