"""Myoelectric gait assistance: detection, control, simulation, and analysis.

The package is organized around small immutable value types and pure
per-leg transition functions, folded over whole channels, so that every
run is reproducible sample for sample:

- :mod:`gaitassist.signals` for EMG conditioning and filter design
- :mod:`gaitassist.gait_fsr` and :mod:`gaitassist.gait_vel` for the two
  gait phase detection frameworks (insole force and joint velocity)
- :mod:`gaitassist.controller` for proportional myoelectric torque
- :mod:`gaitassist.simgait` for the synthetic walking data generator
- :mod:`gaitassist.runner` for closed-loop trials and
  :mod:`gaitassist.metrics` for scoring and outcome metrics
- :mod:`gaitassist.trial_io` for the on-disk trial format
"""
from __future__ import annotations

from .controller import UNLIMITED, ControllerConfig
from .errors import DataFormatError, GaitAssistError, InvalidSpecError
from .gait import EventKind, Foot, GaitEvent, GaitState, Phase, gait_state_from_phases
from .gait_fsr import FsrDetectorConfig
from .gait_vel import VelDetectorConfig
from .metrics import DetectionScore, TrialMetrics, score_detection
from .runner import DetectionMode, RunResult, run_trial
from .signals import EmgChannel, FilterSpec, TimeSeries, design_filter, emg_envelope
from .simgait import ChannelRates, GaitParams, TrialLog, generate
from .trial_io import load_trial, save_trial

__version__ = "1.0.0"

__all__ = [
    "ChannelRates",
    "ControllerConfig",
    "DataFormatError",
    "DetectionMode",
    "DetectionScore",
    "EmgChannel",
    "EventKind",
    "FilterSpec",
    "Foot",
    "FsrDetectorConfig",
    "GaitAssistError",
    "GaitEvent",
    "GaitParams",
    "GaitState",
    "InvalidSpecError",
    "Phase",
    "RunResult",
    "TimeSeries",
    "TrialLog",
    "TrialMetrics",
    "UNLIMITED",
    "VelDetectorConfig",
    "design_filter",
    "emg_envelope",
    "gait_state_from_phases",
    "generate",
    "load_trial",
    "run_trial",
    "save_trial",
    "score_detection",
    "__version__",
]
