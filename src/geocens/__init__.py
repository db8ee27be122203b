"""Geostatistical estimation, prediction, and influence diagnostics for
censored spatial data."""

from .covariance import (
    CovarianceSpec,
    CovParams,
    Lags,
    build_sigma,
    correlation,
    cross_distance,
    d2sigma,
    distance_matrix,
    dsigma,
)
from .errors import (
    ConfigurationError,
    DataValidationError,
    DegenerateCurvatureError,
    GeocensError,
    ModelSpecificationError,
    NumericalError,
    SingularCovarianceError,
    UnsupportedMethodError,
)
from .influence import (
    InfluenceReport,
    classify,
    delta_explanatory,
    delta_response,
    delta_scale,
    local_influence,
    m0,
    perturbed_q_value,
    q_hessian,
    q_value,
)
from .model import (
    Criteria,
    LogLik,
    ModelParams,
    Partition,
    SpatialDataset,
    TrendSpec,
    build_trend,
    criteria,
    loglik,
    param_count,
    partition,
)
from .mvn import (
    Rectangle,
    RectProb,
    RngState,
    mvn_rect_prob,
    tmvn_gibbs,
    tmvn_moments,
)
from .predict import (
    MethodReport,
    PredictionResult,
    SeminaiveConfig,
    Variogram,
    cross_validate,
    empirical_variogram,
    gaussian_ml_fit,
    initial_values,
    krige,
    mspe,
    predict_naive,
    predict_saem,
    predict_seminaive,
    wls_variofit,
)
from .saem import SaemConfig, SaemFit, cm_step, delta_schedule, saem_fit
from .simulate import SimConfig, SimResult, inject_outliers, simulate_scl

__version__ = "0.1.0"
