"""Snippet-guided imputation of missing values in multivariate time series.

The workflow: normalize a series to [0, 1], discover each coordinate's
recurring patterns (snippets) with an MPdist profile matrix, train a
window classifier and a snippet-conditioned autoencoder, then fill gaps
window by window. See the examples under ``demos/`` for guided tours.
"""

from .core_ts import TimeSeries, minmax_normalize, read_csv
from .pipeline import impute, impute_report
from .scenarios import rmse
from .snippets import find_all_snippets
from .training import TrainConfig, train_bundle

__version__ = "0.1.0"

# README's "Library" example, plus read_csv and impute_report, which the
# benchmark's tests (perfbench/test_perfbench.py) read from the top level.
__all__ = ["TimeSeries", "minmax_normalize", "find_all_snippets", "TrainConfig", "train_bundle",
           "impute", "rmse", "read_csv", "impute_report", "__version__"]
