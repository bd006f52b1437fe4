"""The UDF sweep as first written: the reference for the solver's bits.

:func:`interval` is the uniformization step of
:func:`bikecast.queueing.adjoint_interval` with its whole set-up inside the
call: ``log_factorial`` of its own window, ``np.stack`` of ``u`` and ``w``
and of the weights, and ``P = I + A/q`` from :func:`generator_matrix` and
``np.eye``. :func:`sweep` is the backward loop of
:func:`bikecast.inventory.udf_curve` over numpy scalar rates. The solver
moved that set-up out of the loop while keeping every floating-point
operation in order, so its results must equal these bit for bit.
"""

from __future__ import annotations

import numpy as np

from bikecast.errors import DomainError
from bikecast.inventory import PenaltyConfig
from bikecast.queueing import TRUNCATION_TOLERANCE, _MAX_TERMS, generator_matrix, log_factorial


def interval(u, w, pickup_per_hour, return_per_hour, capacity, hours):
    rate = pickup_per_hour + return_per_hour
    mean = rate * hours
    if mean == 0.0:
        return u + hours * w
    top = mean + 12.0 * np.sqrt(mean) + 40.0
    if not top <= _MAX_TERMS:
        raise DomainError(f"uniformization needs more than {_MAX_TERMS} terms "
                          f"for {mean:.6g} expected events in one interval")
    k = np.arange(int(top) + 1)
    pmf = np.exp(k * np.log(mean) - mean - log_factorial(k))
    beyond = pmf[-1] * mean / (k[-1] + 1.0 - mean)
    tail = np.empty(len(k))
    tail[:-1] = np.cumsum(pmf[:0:-1])[::-1] + beyond
    tail[-1] = beyond

    first = max(int(mean) - 1, 0)
    bound = tail[first:] * (np.max(np.abs(u))
                            + np.max(np.abs(w)) * hours / (k[first:] + 2.0 - mean))
    met = np.flatnonzero(bound <= TRUNCATION_TOLERANCE)
    if len(met) == 0:
        raise DomainError(
            f"uniformization cannot bound its truncation error by "
            f"{TRUNCATION_TOLERANCE:g} within {len(k)} terms (q h = {mean:.6g})")
    n_terms = first + int(met[0]) + 1

    rows = np.stack([u, w]).reshape(-1, capacity + 1)
    per_term = rows.shape[0]
    krylov = np.empty((n_terms * per_term, capacity + 1))
    krylov[:per_term] = rows
    power = np.eye(capacity + 1) + generator_matrix(pickup_per_hour, return_per_hour,
                                                    capacity) / rate
    filled = 1
    while True:
        take = min(filled, n_terms - filled)
        np.matmul(krylov[:take * per_term], power,
                  out=krylov[filled * per_term:(filled + take) * per_term])
        filled += take
        if filled == n_terms:
            break
        power = power @ power
    weights = np.stack([pmf[:n_terms], tail[:n_terms] / rate], axis=1)
    return (weights.ravel() @ krylov.reshape(2 * n_terms, -1)).reshape(np.shape(u))


def sweep(rates, capacity, penalties=PenaltyConfig()):
    """UDF of every start in {0, ..., capacity}, one :func:`interval` per
    interval of ``rates``, run backward from zero."""
    mu_h, lam_h = rates.hourly()
    values = np.zeros(capacity + 1)
    w = np.zeros(capacity + 1)
    for i in reversed(range(len(rates))):
        w[0] = penalties.lost_pickup * mu_h[i]
        w[capacity] = penalties.lost_return * lam_h[i]
        values = interval(values, w, mu_h[i], lam_h[i], capacity, rates.interval_hours)
    return values
