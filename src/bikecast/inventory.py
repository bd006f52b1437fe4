"""Starting-inventory optimization via the user dissatisfaction function.

The expected number of dissatisfied users over a day, as a function of the
starting inventory ``s``, accumulates lost pickups while the station is empty
and lost returns while it is full:

    UDF(s) = integral over [0, T] of
             l_p * mu(t) * p(s, 0, t)  +  l_r * lam(t) * p(s, C, t)  dt

with ``p`` the transient occupancy probabilities of :mod:`.queueing`. All
starts are priced at once by the adjoint recursion, run backward over the
intervals of the day from ``u_n = 0``:

    u_{i-1} = u_i e^{A_i h} + w_i integral_0^h e^{A_i t} dt,
    w_i     = l_p mu_i e_0 + l_r lam_i e_C,

so that ``u_0[s] = UDF(s)``. Each step is one call of
:func:`.queueing.adjoint_interval`, exact up to its bounded truncation error.
The optimal starting inventory minimizes UDF over s in {0, ..., C};
evaluation is exhaustive, so the argmin is exact given the UDF values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import queueing
from .errors import DomainError
from .queueing import RateSeries


@dataclass(frozen=True)
class PenaltyConfig:
    """Unit penalties for a lost pickup and a lost return."""

    lost_pickup: float = 1.0
    lost_return: float = 1.0

    def __post_init__(self):
        if not (0 <= self.lost_pickup < np.inf and 0 <= self.lost_return < np.inf):
            raise DomainError("penalties must be finite and non-negative")


@dataclass
class UdfCurve:
    """Dissatisfaction cost for every feasible starting inventory.

    ``values[s]`` is UDF(s); ``s_star`` is the smallest minimizer.
    """

    capacity: int
    values: np.ndarray
    s_star: int


def udf_curve(
    rates: RateSeries,
    capacity: int,
    penalties: PenaltyConfig = PenaltyConfig(),
) -> UdfCurve:
    """Evaluate the UDF for every start in {0, ..., C} and locate the argmin.

    One backward sweep of the adjoint recursion serves every start; ties at
    the minimum go to the smallest inventory (fewer bikes tied up,
    deterministic tests). The hourly rates are read as Python floats once,
    before the sweep, and each interval is one
    :func:`.queueing.adjoint_interval` call.
    """
    if capacity < 1:
        raise DomainError(f"capacity must be >= 1, got {capacity}")
    mu_h, lam_h = (hourly.tolist() for hourly in rates.hourly())
    hours = rates.interval_hours
    values = np.zeros(capacity + 1)
    w = np.zeros(capacity + 1)
    for i in reversed(range(len(rates))):
        w[0] = penalties.lost_pickup * mu_h[i]
        w[capacity] = penalties.lost_return * lam_h[i]
        values = queueing.adjoint_interval(values, w, mu_h[i], lam_h[i], capacity, hours)
    s_star = int(np.argmin(values))  # argmin returns the first (smallest) minimizer
    return UdfCurve(capacity=capacity, values=values, s_star=s_star)


def oracle_decision(
    day_counts,
    capacity: int,
    penalties: PenaltyConfig = PenaltyConfig(),
) -> UdfCurve:
    """Decision curve under perfect information about one day's demand.

    ``day_counts`` is a single-day demand series; its realized interval counts
    are used directly as the rates (counts-as-rates).
    """
    n_per_day = 1440 // day_counts.interval_minutes
    if len(day_counts.pickups) != n_per_day:
        raise DomainError(
            f"oracle_decision expects exactly one day of counts, got "
            f"{len(day_counts.pickups)} intervals at {day_counts.interval_minutes} min"
        )
    rates = RateSeries(
        interval_minutes=day_counts.interval_minutes,
        pickup_rates=np.asarray(day_counts.pickups, dtype=float),
        return_rates=np.asarray(day_counts.returns, dtype=float),
    )
    return udf_curve(rates, capacity, penalties)
