"""Sequential recommender combining selective state-space blocks with
low-rank decomposed attention, plus its data pipeline, trainer,
evaluator, and runtime-scaling benchmark."""

__version__ = "0.1.0"

from .config import RunConfig, build_config
from .data import (Dataset, Split, build_split, dataset_stats, kcore_filter,
                   pad_truncate, parse_amazon, parse_movielens,
                   synthetic_successor_dataset)
from .model import MlsaModel, ModelConfig
from .tensor import (NumericsError, ParameterStore, ShapeError, Tensor,
                     grad_check, load_checkpoint, no_grad, save_checkpoint)
from .train_eval import (Adam, MetricsReport, TrainConfig, ce_loss, evaluate,
                         grid_search, metrics_at_k, rank_of_target, train)

__all__ = [
    "Adam", "Dataset", "MetricsReport", "MlsaModel", "ModelConfig",
    "NumericsError", "ParameterStore", "RunConfig", "ShapeError", "Split",
    "Tensor", "TrainConfig", "build_config", "build_split", "ce_loss",
    "dataset_stats", "evaluate", "grad_check", "grid_search",
    "kcore_filter", "load_checkpoint", "metrics_at_k", "no_grad",
    "pad_truncate", "parse_amazon", "parse_movielens", "rank_of_target",
    "save_checkpoint", "synthetic_successor_dataset", "train",
]
