"""Selective depthwise-separable JSCC experimentation toolkit."""

from .autodiff import AutodiffError, Tensor
from .channel import AwgnChannel, ChannelConfig, sigma_from_snr
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .complexity import (ComplexityReport, layer_flops, layer_params, model_complexity,
                         reduction_report)
from .data import Dataset, DatasetError, center_crop, load_dataset, synthetic_dataset
from .kernels import ShapeError
from .metrics import evaluate_sweep, mse_pixel_mean, psnr
from .model import (Activation, ArchitectureSpec, CodecModel, LayerKind, LayerSpec,
                    VariantId, build_variant_architecture, denormalize_pixels,
                    normalize_pixels)
from .training import Adam, TrainConfig, TrainResult, TrainingError, train

__version__ = "0.1.0"

__all__ = [
    "Activation", "Adam", "ArchitectureSpec", "AutodiffError", "AwgnChannel",
    "ChannelConfig", "CheckpointError", "CodecModel", "ComplexityReport",
    "Dataset", "DatasetError", "LayerKind", "LayerSpec",
    "ShapeError", "Tensor", "TrainConfig", "TrainResult", "TrainingError", "VariantId",
    "build_variant_architecture", "center_crop", "denormalize_pixels", "evaluate_sweep",
    "layer_flops", "layer_params", "load_checkpoint",
    "load_dataset", "model_complexity", "mse_pixel_mean",
    "normalize_pixels", "psnr",
    "reduction_report", "save_checkpoint",
    "sigma_from_snr", "synthetic_dataset", "train",
]
