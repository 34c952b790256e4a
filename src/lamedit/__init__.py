"""Desk-scale batch knowledge editing on toy associative-memory stacks.

The package builds a synthetic multilingual editing benchmark, computes
closed-form weight edits per language, merges them under six different rules,
and scores the result on efficacy / generalization / specificity /
portability, with a CLI for experiments and sweeps.

Importing the package sets numpy's bundled OpenBLAS to one thread for the
whole process (:mod:`lamedit.blas`).
"""

from . import blas  # noqa: F401 (sets numpy's BLAS thread count on import)

from .covariance import (
    const_stats,
    cov_per_language,
    cov_shared,
    request_keys,
)
from .errors import (
    ConfigError,
    ContainerError,
    EmptyNullSpaceWarning,
    FitError,
    IllConditionedError,
    InvalidRequestError,
    LameditError,
    RankRatioError,
    ShapeError,
)
from .merging import (
    MergeConfig,
    apply_update,
    merge,
    merge_mean,
    merge_sum,
    merge_tsvm,
    truncate_svd,
)
from .metrics import (
    MetricsReport,
    MetricsRow,
    ProbeBatch,
    accuracy,
    evaluate_all,
    probe_batch,
    run_mono,
)
from .model import (
    LamLayer,
    Prefix,
    ToyModel,
    compute_prefix,
    forward_batch,
    keys_and_targets,
    predict_batch,
)
from .solvers import (
    DeltaSet,
    LanguageRequests,
    NullProjector,
    edit_model,
    nullspace_projector,
    preserved_terms,
    solve_alphaedit,
    solve_memit,
)
from .synthdata import (
    GenConfig,
    MultilingualDataset,
    build_benchmark,
    fit_initial_model,
    generate_dataset,
)

__version__ = "0.1.0"
