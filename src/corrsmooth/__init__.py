"""Local linear regression under correlated errors: annulus-kernel bandwidth
selection, factor conversion, and nonparametric error covariance estimation,
with a seeded simulation harness and a CLI."""

from .bandwidth import (
    BandwidthSelection,
    ElbowDiagnostic,
    default_grid,
    elbow_scan,
    factor_convert,
    factor_ratio,
    gcv_select,
    gcv_score,
    oracle_bandwidth,
    select_h_z,
    variance_fit_bandwidth,
)
from .covariance import (
    CalibrationTrace,
    CorrelationCurve,
    CovarianceEstimate,
    calibrate_b,
    covariance_curve,
    default_b_candidates,
    estimate_correlation,
    estimate_covariance,
    sigma2_rss,
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
from .kernels import (
    MIN_AMISE,
    MIN_PRODUCT,
    MIN_VARIANCE,
    BoundaryKernel,
    KernelMoments,
    ProductEpanechnikovKernel,
    RadialAnnulusKernel,
    build_annulus_kernel,
)
from .locfit import (
    EARTH_RADIUS_KM,
    Dataset,
    FitResult,
    fit_all,
    fit_points,
    hat_matrix,
    load_csv,
    pairwise_distances,
    rss,
)
from .simulate import (
    CorrelationModel,
    MethodSpec,
    ResultRow,
    SimScenario,
    SimulatedData,
    correlation_penalty,
    correlation_value,
    draw_correlated_errors,
    generate,
    min_epan_mse,
    mse_prac,
    mu2d,
    mu3d,
    parse_method,
    run_method_trial,
    run_raw_trial,
    run_table,
    sse_cor,
)

__version__ = "0.1.0"
