"""Palm-vein verification: learned image transforms, triplet-trained
Siamese embeddings, and biometric evaluation on synthetic vein data."""

from .errors import (
    ConfigError,
    ContractError,
    CorruptWeightsError,
    DegenerateVectorError,
    DimensionError,
    PalmveinError,
    StageError,
    WeightsVersionError,
)
from .tensor import (
    ParamSet,
    Tensor,
    adaptive_avg_pool2d,
    backward,
    clamp01,
    concat_channels,
    conv2d,
    conv_params,
    kaiming_uniform,
    l2_normalize,
    linear,
    linear_params,
    maxpool2,
    mse_loss,
    no_grad,
    relu,
    upsample2_nearest,
)
from .optim import AdamState, adam_step
from .gradcheck import BatteryCase, GradCheckReport, check_gradients, run_battery
from .config import PipelineConfig, parse_kv, format_kv
from .pipeline import (
    RunPaths,
    derive_seed,
    enroll,
    run_full_pipeline,
    run_stages,
    verify_probe,
)

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "BatteryCase",
    "ConfigError",
    "ContractError",
    "CorruptWeightsError",
    "DegenerateVectorError",
    "DimensionError",
    "GradCheckReport",
    "PalmveinError",
    "ParamSet",
    "PipelineConfig",
    "RunPaths",
    "StageError",
    "Tensor",
    "WeightsVersionError",
    "adam_step",
    "adaptive_avg_pool2d",
    "backward",
    "check_gradients",
    "clamp01",
    "concat_channels",
    "conv2d",
    "conv_params",
    "derive_seed",
    "enroll",
    "format_kv",
    "kaiming_uniform",
    "l2_normalize",
    "linear",
    "linear_params",
    "maxpool2",
    "mse_loss",
    "no_grad",
    "parse_kv",
    "relu",
    "run_battery",
    "run_full_pipeline",
    "run_stages",
    "upsample2_nearest",
    "verify_probe",
]
