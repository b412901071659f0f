"""Heart-rate-recovery estimation from chest-motion phase signals."""

from .config import PipelineConfig, parse_config
from .hr_estimate import HrrReport, HrSeries
from .pipeline import estimate_trace
from .signal_model import (
    ChestMotionTrace,
    ConstantRate,
    ExponentialRecovery,
    HeartbeatModel,
    LinearRamp,
    RespirationModel,
    WaveformShape,
    synthesize_trace,
)

__version__ = "0.1.0"

__all__ = [
    "ChestMotionTrace",
    "ConstantRate",
    "ExponentialRecovery",
    "HeartbeatModel",
    "HrrReport",
    "HrSeries",
    "LinearRamp",
    "PipelineConfig",
    "RespirationModel",
    "WaveformShape",
    "estimate_trace",
    "parse_config",
    "synthesize_trace",
    "__version__",
]
