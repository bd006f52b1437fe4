"""Station-level bike-share demand forecasting and starting-inventory optimization.

The package splits into a forecasting side (classical baselines and recurrent
count models trained through hand-written whole-sequence kernels) and a
prescriptive side (a finite-capacity double-ended queue whose transient
solution prices a day's lost pickups and returns as a function of the
starting inventory), joined by evaluation tools that measure how forecast
quality translates into decision quality.

The runtime needs only numpy and PyYAML. scipy, in the ``dev`` extra, serves
the test oracles, such as :func:`.queueing.matrix_exponential_oracle`.

Importing the package pins BLAS to one thread, whatever the environment asks,
here and in every worker it spawns; it holds where numpy loads after it. A
second thread saves no time at these matrix sizes, and the bits a net trains
to would depend on the thread count, so checkpoints would vary by host.
"""

import os

os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

from .errors import (
    BikecastError,
    ConfigError,
    DataError,
    DomainError,
    FormatError,
    RowError,
    StageError,
    TrainingError,
)
from .inventory import PenaltyConfig, UdfCurve, oracle_decision, udf, udf_curve
from .queueing import RateSeries, adjoint_interval, generator_matrix

__version__ = "0.1.0"

__all__ = [
    "BikecastError",
    "ConfigError",
    "DataError",
    "DomainError",
    "FormatError",
    "RowError",
    "StageError",
    "TrainingError",
    "PenaltyConfig",
    "UdfCurve",
    "oracle_decision",
    "udf",
    "udf_curve",
    "RateSeries",
    "adjoint_interval",
    "generator_matrix",
    "__version__",
]
