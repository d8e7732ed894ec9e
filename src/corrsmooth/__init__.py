"""Local linear regression under correlated errors: annulus-kernel bandwidth
selection, factor conversion, and nonparametric error covariance estimation,
with a seeded simulation harness and a CLI."""

from .bandwidth import elbow_scan, gcv_select, select_h_o, variance_fit_bandwidth
from .covariance import (
    calibrate_b, covariance_curve, error_covariance, estimate_correlation, sigma2_rss,
)
from .errors import (
    CorrsmoothError,
    DegenerateCorrelationError,
    EmptyWindowError,
    KernelConstructionError,
    NoElbowError,
    NoFeasibleBandwidthError,
    SingularFitError,
)
from .kernels import ProductEpanechnikovKernel, build_annulus_kernel
from .locfit import Dataset, fit_all, fit_points, load_csv
from .simulate import generate, run_table, run_trial

__version__ = "0.1.0"
