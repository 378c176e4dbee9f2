"""Piecewise-exponential survival modeling for clinical trials.

Fit PWE hazard models to right-censored data (with automatic change-point
search), quantify uncertainty by bootstrap, simulate trials, and predict
future event counts and analysis timelines.
"""

from .distribution import (
    PweModel,
    cdf,
    conditional_cdf,
    conditional_quantile,
    conditional_sample,
    conditional_survival,
    cumulative_hazard,
    density,
    hazard,
    quantile,
    sample,
    survival,
)
from .errors import EmptyPieceError, NoFeasibleModelError, PwexpError
from .estimation import (
    FitConfig,
    FitResult,
    PieceTally,
    fit,
    fit_bfs,
    fit_hybrid,
    fit_ols,
    loglik,
    mle_given_breakpoints,
    piece_tally,
    validate_breakpoints,
)
from .prediction import (
    AccrualPlan,
    PredictionEnsemble,
    TrialSnapshot,
    event_interval,
    expected_events,
    predict_events,
    timeline_for_events,
)
from .resampling import BootFit, CvResult, boot_fit, cv_loglik
from .simulation import (
    ArmModel,
    SimFollowup,
    TrialDesign,
    TrialFrame,
    prop_above,
    sim_followup,
    simulate_trial,
)
from .survdata import KmCurve, SurvSample, cut_data, km_fit, read_survival_csv, write_table

__version__ = "0.1.0"

__all__ = [
    "PweModel", "hazard", "cumulative_hazard", "density", "survival", "cdf",
    "quantile", "sample", "conditional_survival", "conditional_cdf",
    "conditional_quantile", "conditional_sample",
    "SurvSample", "KmCurve", "km_fit", "cut_data", "read_survival_csv", "write_table",
    "PieceTally", "FitConfig", "FitResult", "piece_tally", "loglik",
    "mle_given_breakpoints", "validate_breakpoints", "fit_bfs", "fit_ols",
    "fit_hybrid", "fit",
    "BootFit", "CvResult", "boot_fit", "cv_loglik",
    "AccrualPlan", "TrialSnapshot", "PredictionEnsemble", "predict_events", "expected_events",
    "event_interval", "timeline_for_events",
    "ArmModel", "TrialDesign", "TrialFrame", "simulate_trial",
    "sim_followup", "SimFollowup", "prop_above",
    "PwexpError", "EmptyPieceError", "NoFeasibleModelError",
    "__version__",
]
