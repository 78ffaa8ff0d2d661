"""The AutoML layer: FLAML's cost-aware search (the paper's contribution)."""

from .automl import AutoML, infer_task
from .controller import SearchController, SearchResult, TrialRecord
from .eci import (
    DEFAULT_COST_CONSTANTS,
    CostModel,
    LearnerCostState,
    LearnerProposer,
    eci,
)
from .ensemble import StackedEnsemble, build_ensemble, select_ensemble_members
from .evaluate import TrialOutcome, evaluate_config
from .flow2 import FLOW2
from .metalearning import (
    MetaPortfolio,
    PortfolioEntry,
    build_portfolio,
    meta_features,
)
from .registry import (
    DEFAULT_LEARNERS,
    EXTRA_LEARNERS,
    LearnerSpec,
    all_learners,
    default_estimator_list,
    forecast_spec,
)
from .resampling import TemporalSplitter, choose_resampling, resolve_resampling
from .searchstate import SearchThread
from .serialize import load_result, result_from_dict, result_to_dict, save_result
from .space import (
    Choice,
    Domain,
    LogRandInt,
    LogUniform,
    RandInt,
    SearchSpace,
    Uniform,
)

__all__ = [
    "AutoML",
    "Choice",
    "CostModel",
    "DEFAULT_COST_CONSTANTS",
    "DEFAULT_LEARNERS",
    "Domain",
    "EXTRA_LEARNERS",
    "FLOW2",
    "LearnerCostState",
    "LearnerProposer",
    "LearnerSpec",
    "LogRandInt",
    "LogUniform",
    "MetaPortfolio",
    "PortfolioEntry",
    "RandInt",
    "SearchController",
    "SearchResult",
    "SearchSpace",
    "SearchThread",
    "StackedEnsemble",
    "TemporalSplitter",
    "TrialOutcome",
    "TrialRecord",
    "Uniform",
    "all_learners",
    "build_ensemble",
    "build_portfolio",
    "choose_resampling",
    "default_estimator_list",
    "eci",
    "evaluate_config",
    "forecast_spec",
    "infer_task",
    "load_result",
    "meta_features",
    "resolve_resampling",
    "result_from_dict",
    "result_to_dict",
    "save_result",
    "select_ensemble_members",
]
