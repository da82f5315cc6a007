"""Probabilistic multi-label contrastive learning on synthetic data.

Isotropic Gaussian-mixture embedding heads trained with a density loss
plus an overlap-weighted contrastive loss, then frozen-encoder linear
classification with an asymmetric loss.  Pure numpy, deterministic per
seed, byte-stable artifacts.
"""

from .config import (
    AslConfig,
    AugmentConfig,
    ContrastiveLossConfig,
    DataConfig,
    ExperimentConfig,
    ModelConfig,
    OptimConfig,
    config_hash,
    load_config,
    save_config,
)
from .data import ContrastiveBatch, generate_synthetic, make_contrastive_batch
from .errors import InputError, NumericError
from .losses import asl_loss_t, nll_loss_t, pcl_loss_t
from .metrics import MetricsReport, PredictionSet, average_precision, pr_f1_report
from .model import Checkpoint, init_params, load_checkpoint, save_checkpoint
from .overlap import overlap_matrix, positive_mask
from .pipeline import ablate, evaluate, train_classifier, train_contrastive

__version__ = "0.1.0"

__all__ = [
    "AslConfig",
    "AugmentConfig",
    "Checkpoint",
    "ContrastiveBatch",
    "ContrastiveLossConfig",
    "DataConfig",
    "ExperimentConfig",
    "InputError",
    "MetricsReport",
    "ModelConfig",
    "NumericError",
    "OptimConfig",
    "PredictionSet",
    "ablate",
    "asl_loss_t",
    "average_precision",
    "config_hash",
    "evaluate",
    "generate_synthetic",
    "init_params",
    "load_checkpoint",
    "load_config",
    "make_contrastive_batch",
    "nll_loss_t",
    "overlap_matrix",
    "pcl_loss_t",
    "positive_mask",
    "pr_f1_report",
    "save_checkpoint",
    "save_config",
    "train_classifier",
    "train_contrastive",
]
