"""Denoising-diffusion learning to rank.

A ranking model that learns the distribution of relevance labels given
document features by reversing a label-noising process. Ranking a query
runs the learned reverse process from pure noise and sorts documents by
the denoised label estimates; repeated runs with fresh noise yield
deliberately diverse rankings whose spread is measured alongside the
usual ranking metrics.
"""

from .config import PRESETS, RunConfig, parse_config_file, resolve_config
from .errors import (
    CacheCorruptionError,
    ConfigError,
    DataError,
    DiffrankError,
    DomainError,
    IncompatibilityError,
    NumericError,
    ParseError,
    ShapeError,
    ValidationError,
)
from .letor import (
    Dataset,
    QueryGroup,
    cache_read,
    cache_write,
    compute_norm_stats,
    normalize,
    parse_letor,
    write_letor,
)
from .losses import LOSS_NAMES, LossSpec, ranking_loss
from .metrics import (
    DEFAULT_CUTOFFS,
    METRICS,
    MetricsReport,
    evaluate_rankings,
    format_report_table,
    ranking_diversity,
    ranking_order,
    report_to_csv,
)
from .network import (
    DenoiseModel,
    ModelConfig,
    feature_only_variant,
    load_checkpoint,
    save_checkpoint,
)
from .sampling import (
    RankOutput,
    SamplerConfig,
    rank_query,
    rank_query_repeated,
    rank_split,
)
from .schedule import (
    SCHEDULE_KINDS,
    ScheduleSpec,
    ScheduleTable,
    build_schedule,
    posterior,
    q_sample,
    reconstruct_y0,
    strided_table,
)
from .synth import make_context_dataset, make_linear_dataset
from .training import TrainConfig, TrainResult, fit

__version__ = "0.1.0"

__all__ = [
    "PRESETS",
    "RunConfig",
    "parse_config_file",
    "resolve_config",
    "DiffrankError",
    "ConfigError",
    "DataError",
    "ParseError",
    "ValidationError",
    "CacheCorruptionError",
    "IncompatibilityError",
    "ShapeError",
    "DomainError",
    "NumericError",
    "Dataset",
    "QueryGroup",
    "parse_letor",
    "write_letor",
    "compute_norm_stats",
    "normalize",
    "cache_write",
    "cache_read",
    "LOSS_NAMES",
    "LossSpec",
    "ranking_loss",
    "METRICS",
    "DEFAULT_CUTOFFS",
    "MetricsReport",
    "evaluate_rankings",
    "ranking_order",
    "ranking_diversity",
    "report_to_csv",
    "format_report_table",
    "DenoiseModel",
    "ModelConfig",
    "feature_only_variant",
    "save_checkpoint",
    "load_checkpoint",
    "RankOutput",
    "SamplerConfig",
    "rank_query",
    "rank_query_repeated",
    "rank_split",
    "SCHEDULE_KINDS",
    "ScheduleSpec",
    "ScheduleTable",
    "build_schedule",
    "strided_table",
    "q_sample",
    "posterior",
    "reconstruct_y0",
    "make_linear_dataset",
    "make_context_dataset",
    "TrainConfig",
    "TrainResult",
    "fit",
    "__version__",
]
