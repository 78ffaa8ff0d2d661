"""Comparator AutoML systems + FLAML ablations (DESIGN.md §3.5).

Every system's trials run through the execution engine: FLAML's on its
:class:`~repro.core.controller.SearchController`, the comparators' one at
a time through a :class:`BudgetedRunner` (see :mod:`repro.baselines.base`).
"""

from .autosklearn_like import AutoSklearnLike, CloudAutoMLLike
from .base import AutoMLSystem, BudgetedRunner
from .bohb import BOHB
from .flaml_system import ABLATIONS, FLAMLSystem, make_ablation
from .gp_bo import GPEIBaseline, GPRegressor
from .h2o_like import H2OLike
from .random_search import RandomSearch, grid_sample
from .tpe import TPESampler
from .tpot_like import TPOTLike

__all__ = [
    "ABLATIONS",
    "AutoMLSystem",
    "AutoSklearnLike",
    "BOHB",
    "BudgetedRunner",
    "CloudAutoMLLike",
    "FLAMLSystem",
    "GPEIBaseline",
    "GPRegressor",
    "H2OLike",
    "RandomSearch",
    "TPESampler",
    "TPOTLike",
    "grid_sample",
    "make_ablation",
]
