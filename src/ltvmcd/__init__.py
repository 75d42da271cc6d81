"""Monte Carlo dropout uncertainty estimation for zero-inflated LTV
regression: from-scratch networks (MLP and DCNv2), log-MSE and ZILN
losses, deterministic MCD inference, and ranking/calibration metrics.
"""

__version__ = "0.1.0"

from .data import Dataset, SynthConfig, generate_synthetic, load_csv, save_csv
from .losses import log_mse, ziln_loss, ziln_predict
from .mcd import McdConfig, McdResult, PredictionSummary, confidence_interval, mcd_predict
from .metrics import (
    MetricsReport,
    build_report,
    confidence_curve,
    normalized_gini,
    top_k_hit_rate,
    top_k_mape,
)
from .nn import build_dcnv2, build_mlp, load_checkpoint, save_checkpoint
from .numcore import NumericError, RngStream, ShapeError
from .trainer import TrainConfig, grad_check, train

__all__ = [
    "Dataset",
    "SynthConfig",
    "generate_synthetic",
    "load_csv",
    "save_csv",
    "log_mse",
    "ziln_loss",
    "ziln_predict",
    "McdConfig",
    "McdResult",
    "PredictionSummary",
    "confidence_interval",
    "mcd_predict",
    "MetricsReport",
    "build_report",
    "confidence_curve",
    "normalized_gini",
    "top_k_hit_rate",
    "top_k_mape",
    "build_dcnv2",
    "build_mlp",
    "load_checkpoint",
    "save_checkpoint",
    "NumericError",
    "RngStream",
    "ShapeError",
    "TrainConfig",
    "grad_check",
    "train",
    "__version__",
]
