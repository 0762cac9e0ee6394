"""IncepFormer semantic-segmentation kit.

A self-contained implementation of the inception-attention pyramid
transformer: a numpy-backed tensor engine with reverse-mode autodiff,
the model itself, closed-form cost accounting, and a toy-scale
training/evaluation harness.
"""

from .analysis import (
    CostReport,
    CostRow,
    compare_decoder_channels,
    count_params,
    decoder_params,
    emit_report,
    estimate_flops,
)
from .config import ModelConfig, StageConfig, ipt_b, ipt_s, ipt_t, load_model_config, micro
from .data import SegSample, augment, make_synth_dataset
from .errors import (
    CheckpointError,
    ConfigError,
    ContractError,
    IncepFormerError,
    NumericsError,
    ShapeError,
)
from .gradcheck import check_model_gradients, check_op_gradients, finite_diff_grad
from .metrics import ConfusionMatrix, eval_miou
from .model import FeaturePyramid, IncepFormer, build_model
from .modules import ParameterStore
from .tensor import GradTape, Tensor, backward
from .train import OptimState, TrainConfig, adamw_step, cross_entropy, poly_lr, train

__version__ = "0.1.0"

__all__ = [
    "CostReport",
    "CostRow",
    "ConfusionMatrix",
    "CheckpointError",
    "ConfigError",
    "ContractError",
    "FeaturePyramid",
    "GradTape",
    "IncepFormer",
    "IncepFormerError",
    "ModelConfig",
    "NumericsError",
    "OptimState",
    "ParameterStore",
    "SegSample",
    "ShapeError",
    "StageConfig",
    "Tensor",
    "TrainConfig",
    "adamw_step",
    "augment",
    "backward",
    "build_model",
    "check_model_gradients",
    "check_op_gradients",
    "compare_decoder_channels",
    "count_params",
    "cross_entropy",
    "decoder_params",
    "emit_report",
    "estimate_flops",
    "eval_miou",
    "finite_diff_grad",
    "ipt_b",
    "ipt_s",
    "ipt_t",
    "load_model_config",
    "make_synth_dataset",
    "micro",
    "poly_lr",
    "train",
]
