"""Station-level bike-share demand forecasting and starting-inventory optimization.

The package splits into a forecasting side (classical baselines and recurrent
count models trained through hand-written whole-sequence kernels) and a
prescriptive side (a finite-capacity double-ended queue whose transient
solution prices a day's lost pickups and returns as a function of the
starting inventory), joined by evaluation tools that measure how forecast
quality translates into decision quality.

The package holds what the command line runs, and the few names that the
benchmark harness in ``bench/`` reads besides. Code that only the tests call
lives in ``tests/``: the Monte Carlo oracle and the sinusoidal fixture are in
``tests/oracles.py``.

The runtime needs only numpy and PyYAML. scipy, in the ``dev`` extra, serves
the test oracles, such as :func:`.queueing.matrix_exponential_oracle`.

Importing the package pins BLAS to one thread, whatever the environment asks,
here and in every worker it forks or spawns; it holds where numpy loads after
it. A second thread saves no time at these matrix sizes, and the bits a net
trains to would depend on the thread count, so checkpoints would vary by host.
"""

import os

os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
