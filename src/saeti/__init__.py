"""Snippet-guided imputation of missing values in multivariate time series.

The workflow: normalize a series to [0, 1], discover each coordinate's
recurring patterns (snippets) with an MPdist profile matrix, train a
window classifier and a snippet-conditioned autoencoder, then fill gaps
window by window. See the examples under ``demos/`` for guided tours.
"""

from .autograd import Adam, Tensor
from .core_ts import (
    NormParams,
    TimeSeries,
    apply_normalization,
    denormalize,
    minmax_normalize,
    read_csv,
    split_nonoverlapping,
    write_csv,
)
from .models import RecognizerModel, ReconstructorModel
from .mpdist import mpdist, mpdist_profile_matrix, znorm_dist_profile
from .pipeline import impute, impute_report
from .scenarios import (
    baseline_linear,
    baseline_mean,
    gen_blackout,
    gen_mcar,
    gen_ts_nbr,
    rmse,
)
from .snippets import (
    Snippet,
    SnippetSet,
    find_all_snippets,
    find_snippets,
    label_subsequence,
    write_snippets_json,
)
from .training import (
    ModelBundle,
    TrainConfig,
    load_bundle,
    save_bundle,
    train_bundle,
)

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "Tensor",
    "NormParams",
    "TimeSeries",
    "apply_normalization",
    "denormalize",
    "minmax_normalize",
    "read_csv",
    "split_nonoverlapping",
    "write_csv",
    "RecognizerModel",
    "ReconstructorModel",
    "mpdist",
    "mpdist_profile_matrix",
    "znorm_dist_profile",
    "impute",
    "impute_report",
    "baseline_linear",
    "baseline_mean",
    "gen_blackout",
    "gen_mcar",
    "gen_ts_nbr",
    "rmse",
    "Snippet",
    "SnippetSet",
    "find_all_snippets",
    "find_snippets",
    "label_subsequence",
    "write_snippets_json",
    "ModelBundle",
    "TrainConfig",
    "load_bundle",
    "save_bundle",
    "train_bundle",
    "__version__",
]
