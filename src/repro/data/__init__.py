"""Data substrate: dataset container, generators, benchmark suite,
selectivity-estimation workloads."""

from .binned import BinnedDataset, plane_for, row_sample_crc, warm_plane
from .bundling import BundledBinner, BundleLayout, find_bundles
from .dataset import Dataset, holdout_indices, kfold_indices, stratified_shuffle
from .generators import make_classification, make_regression
from .io import from_csv, load_npz, save_npz, to_csv
from .preprocessing import Imputer, OneHotEncoder, Pipeline, StandardScaler
from .selectivity import (
    MANUAL_CONFIG,
    SELECTIVITY_DATASETS,
    SelectivityWorkload,
    load_selectivity,
    make_table,
    make_workload,
    selectivity_to_dataset,
)
from .suite import SUITE, DatasetSpec, iter_suite, load_dataset, suite_names
from .timeseries import (
    TIMESERIES_REGIMES,
    ForecastModel,
    LagFeaturizer,
    forecast_suite_names,
    load_forecast_dataset,
    make_timeseries,
    seasonal_naive_cv_error,
    seasonal_naive_forecast,
)

__all__ = [
    "BinnedDataset",
    "BundleLayout",
    "BundledBinner",
    "Dataset",
    "DatasetSpec",
    "ForecastModel",
    "find_bundles",
    "Imputer",
    "LagFeaturizer",
    "MANUAL_CONFIG",
    "OneHotEncoder",
    "Pipeline",
    "SELECTIVITY_DATASETS",
    "SUITE",
    "SelectivityWorkload",
    "StandardScaler",
    "TIMESERIES_REGIMES",
    "forecast_suite_names",
    "from_csv",
    "holdout_indices",
    "iter_suite",
    "kfold_indices",
    "load_dataset",
    "load_forecast_dataset",
    "load_npz",
    "load_selectivity",
    "make_classification",
    "make_regression",
    "make_table",
    "make_timeseries",
    "make_workload",
    "plane_for",
    "row_sample_crc",
    "save_npz",
    "seasonal_naive_cv_error",
    "seasonal_naive_forecast",
    "selectivity_to_dataset",
    "stratified_shuffle",
    "suite_names",
    "to_csv",
    "warm_plane",
]
