"""Simultaneous prediction intervals for overdispersed multinomial counts.

Fits a quasi-multinomial model to historical control tables, quantifies
extra-multinomial dispersion, and builds simultaneous prediction boxes
for a future cluster by asymptotic, bootstrap-calibrated and Bayesian
constructions, together with a Monte-Carlo harness for coverage studies.
"""

from .asymptotic import (
    bonferroni_interval,
    multinomial_equicoordinate_quantile,
    mvn_interval,
    pointwise_interval,
)
from .bayes import (
    PosteriorDraws,
    PredictiveSamples,
    PriorChoice,
    bayes_bonferroni_interval,
    bayes_mean_centered_interval,
    bayes_rank_scs_interval,
    dm_log_pmf,
    log_posterior,
    mcmc_sample,
    posterior_predictive,
)
from .bootstrap import (
    BootstrapEnsemble,
    asymmetric_calibration,
    build_ensemble,
    marginal_calibration,
    masr_interval,
    rank_scs_interval,
    symmetric_calibration,
)
from .catalog import catalog_vectors, scenario_catalog
from .dm import (
    derive_eta0,
    dm_dispersion,
    generate_dataset,
    sample_dm_counts,
)
from .empirical import nearest_rank_quantile, rank_summary
from .errors import (
    ConvergenceWarning,
    DegenerateDesign,
    DegenerateRankWarning,
    DomainError,
    FailureCapError,
    InitializationError,
    InvalidDispersion,
    MnpredError,
    ParseError,
    ValidationError,
    ZeroCategory,
    ZeroProbability,
)
from .methods import (
    BAYES_CONSTRUCTIONS,
    FREQUENTIST_METHODS,
    MethodRequest,
    compute_intervals,
    resolve_methods,
)
from .model import (
    FutureSpec,
    HistoricalDataset,
    ModelFit,
    PredictionIntervalSet,
    PredictionPoint,
    clamp_dispersion,
    fit_model,
    prediction_point,
    prediction_se,
    residual_df,
)
from .rng import RngStream
from .simulation import (
    MethodOutcome,
    Scenario,
    SimulationReport,
    run_simulation,
    tail_balance,
)

__version__ = "0.1.0"
