"""Long-horizon time-series forecasting toolkit.

Multi-resolution periodic pattern forecaster with channel-adaptive gating,
linear baselines, FFT period mining, entropy-rate predictability bounds,
and a deterministic training harness, all on a from-scratch float64
autodiff core.
"""

from .baselines import (DLinearParams, NLinearParams, dlinear_forward, moving_average_decompose,
                        nlinear_forward)
from .data import ForecastMetrics, SeriesDataset, Standardizer, chronological_split, load_csv
from .model import (MPPNConfig, MPPNParams, channel_adapt, compose_kernel, export_gates,
                    forward_batch, pattern_dim)
from .optim import Adam
from .periods import AmplitudeSpectrum, PeriodSet, amplitude_spectrum, detect_periods, topk_periods
from .predictability import (DiscreteSeries, PredictabilityReport, dataset_predictability,
                             discretize, fano_upper_bound, lz_entropy_rate, lz_match_lengths)
from .tensor import Params, Tensor, backward, no_grad
from .training import RunConfig, evaluate, train

__version__ = "0.1.0"

__all__ = [
    "Adam", "AmplitudeSpectrum", "DiscreteSeries", "DLinearParams", "ForecastMetrics",
    "MPPNConfig", "MPPNParams", "NLinearParams", "Params", "PeriodSet", "PredictabilityReport",
    "RunConfig", "SeriesDataset", "Standardizer", "Tensor", "amplitude_spectrum", "backward",
    "channel_adapt", "chronological_split", "compose_kernel", "dataset_predictability",
    "detect_periods", "discretize", "dlinear_forward", "evaluate", "export_gates",
    "fano_upper_bound", "forward_batch", "load_csv", "lz_entropy_rate", "lz_match_lengths",
    "moving_average_decompose", "nlinear_forward", "no_grad", "pattern_dim",
    "topk_periods", "train",
]
