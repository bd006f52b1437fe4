"""Exact UDF reference the benchmark scores the program's decisions against.

For piecewise-constant rates the dissatisfaction of every starting inventory
follows from a backward recursion over the intervals of the day,

    u_{i-1}^T = w_i^T * integral_0^D exp(A_i t) dt  +  u_i^T * exp(A_i D),

with u_n = 0, w_i = l_p mu_i e_0 + l_r lam_i e_C and u_0[s] = UDF(s). Both
operators of an interval come from one matrix exponential of the block
[[A_i, I], [0, 0]] * D (Van Loan 1978), so the result carries no step-size
error. The generator is the program's own ``queueing.generator_matrix``.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from bikecast.queueing import RateSeries, generator_matrix


def interval_operators(rates: RateSeries, capacity: int):
    """Yield (exp(A_i D), integral_0^D exp(A_i t) dt) for each interval i."""
    n = capacity + 1
    mu_h, lam_h = rates.hourly()
    block = np.zeros((2 * n, 2 * n))
    block[:n, n:] = np.eye(n)
    for mu, lam in zip(mu_h, lam_h):
        block[:n, :n] = generator_matrix(mu, lam, capacity)
        full = expm(block * rates.interval_hours)
        yield full[:n, :n], full[:n, n:]


def exact_udf_values(rates: RateSeries, capacity: int,
                     lost_pickup: float = 1.0, lost_return: float = 1.0) -> np.ndarray:
    """UDF(s) for every s in {0, ..., capacity}."""
    mu_h, lam_h = rates.hourly()
    ops = list(interval_operators(rates, capacity))
    u = np.zeros(capacity + 1)
    for i in reversed(range(len(ops))):
        transition, integral = ops[i]
        w = np.zeros(capacity + 1)
        w[0] += lost_pickup * mu_h[i]
        w[capacity] += lost_return * lam_h[i]
        u = w @ integral + u @ transition
    return u
