"""Myoelectric gait assistance: detection, control, simulation, and analysis.

The package is organized around small immutable value types and pure
per-leg detector kernels that take and return a plain state over whole
channels, so that every run is reproducible sample for sample:

- :mod:`gaitassist.signals` for EMG conditioning and filter design
- :mod:`gaitassist.gait_fsr` and :mod:`gaitassist.gait_vel` for the two
  gait phase detection frameworks (insole force and joint velocity)
- :mod:`gaitassist.controller` for proportional myoelectric torque
- :mod:`gaitassist.simgait` for the synthetic walking data generator
- :mod:`gaitassist.runner` for closed-loop trials and
  :mod:`gaitassist.metrics` for scoring and outcome metrics
- :mod:`gaitassist.trial_io` for the on-disk trial format
- :mod:`gaitassist.settings` for every setting, its range and its spelling

Importing the package imports none of them, only an export's first lookup does.
"""
from __future__ import annotations

from importlib import import_module

# The modules that define the exports, each after the ones it imports
_LAYERS = ("errors", "settings", "gait", "signals", "simgait", "trial_io", "metrics", "runner")
__version__ = "1.0.0"

__all__ = [
    "ChannelRates",
    "ControllerConfig",
    "DataFormatError",
    "DetectionMode",
    "DetectionScore",
    "EmgChannel",
    "EventKind",
    "Events",
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
    "generate",
    "load_trial",
    "run_trial",
    "save_trial",
    "score_detection",
    "__version__",
]


def _export(name: str):
    """The export `name` of `__all__` from the first layer, in dependency
    order, that holds it: the object its own module defines."""
    for home in _LAYERS if name in __all__ else ():
        module = import_module(f"{__name__}.{home}")
        if hasattr(module, name):
            return globals().setdefault(name, getattr(module, name))
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__getattr__ = _export  # PEP 562: an export's first lookup imports its layers
