"""Robust exemplar sampling and a desk-scale class-incremental learning harness.

The root exports the samplers and the experiment; everything else is imported
from its module (``pbes.model``, ``pbes.augmentation``, ...).
"""

__version__ = "0.1.0"

from .errors import FileFormatError, NumericalError, ValidationError
from .harness import ExperimentConfig, run_experiment, sweep_budgets
from .numerics import RngState
from .sampling import (
    ExemplarSelection,
    herding_sample,
    pbes_sample,
    random_sample,
    randp_sample,
)

__all__ = [
    "ExemplarSelection",
    "ExperimentConfig",
    "FileFormatError",
    "NumericalError",
    "RngState",
    "ValidationError",
    "herding_sample",
    "pbes_sample",
    "random_sample",
    "randp_sample",
    "run_experiment",
    "sweep_budgets",
]
