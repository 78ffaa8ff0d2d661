"""The ML layer: learners searched by the AutoML layer.

Everything here is implemented from scratch on NumPy (the execution
environment has no sklearn/LightGBM/XGBoost/CatBoost); see DESIGN.md §2
for the substitution rationale.
"""

from .base import BaseClassifierMixin, BaseEstimator, validate_data
from .boosting import (
    GBDTEngine,
    LGBMLikeClassifier,
    LGBMLikeRegressor,
    XGBLikeClassifier,
    XGBLikeRegressor,
    XGBLimitDepthClassifier,
    XGBLimitDepthRegressor,
)
from .catboost_like import CatBoostLikeClassifier, CatBoostLikeRegressor
from .forest import (
    ExtraTreesClassifier,
    ExtraTreesRegressor,
    RandomForestClassifier,
    RandomForestRegressor,
    tuned_random_forest,
)
from .histogram import Binner
from .linear import (
    LassoRegressor,
    LogisticRegressionL1,
    LogisticRegressionL2,
    RidgeRegressor,
)
from .losses import LogisticLoss, SoftmaxLoss, SquaredLoss, get_loss
from .model_io import dump_model, load_model
from .naive_bayes import GaussianNB
from .neighbors import KNeighborsClassifier, KNeighborsRegressor
from .tree import ClassTreeGrower, GradTreeGrower, Tree

__all__ = [
    "BaseClassifierMixin",
    "BaseEstimator",
    "Binner",
    "CatBoostLikeClassifier",
    "CatBoostLikeRegressor",
    "ClassTreeGrower",
    "ExtraTreesClassifier",
    "ExtraTreesRegressor",
    "GaussianNB",
    "GBDTEngine",
    "GradTreeGrower",
    "KNeighborsClassifier",
    "KNeighborsRegressor",
    "LassoRegressor",
    "LGBMLikeClassifier",
    "LGBMLikeRegressor",
    "LogisticLoss",
    "LogisticRegressionL1",
    "LogisticRegressionL2",
    "RandomForestClassifier",
    "RandomForestRegressor",
    "RidgeRegressor",
    "SoftmaxLoss",
    "SquaredLoss",
    "Tree",
    "XGBLikeClassifier",
    "XGBLikeRegressor",
    "XGBLimitDepthClassifier",
    "XGBLimitDepthRegressor",
    "dump_model",
    "get_loss",
    "load_model",
    "tuned_random_forest",
    "validate_data",
]
