"""Transient analysis of a bike station modeled as a double-ended finite queue.

A station with ``capacity`` docks holds between 0 and ``capacity`` bikes.
Pickups remove a bike (rate ``mu``), returns add one (rate ``lam``); both are
non-homogeneous Poisson processes with piecewise-constant rates, one constant
value per aggregation interval. Pickups at an empty station and returns at a
full station are censored: the state does not move and the customer is lost.

Piecewise-constant rates are an intended deviation from the paper, which
models both rates as piecewise linear. Every forecaster here yields expected
counts per interval, which carry no within-interval shape to interpolate,
and with constant rates the interval operators are exact up to
``TRUNCATION_TOLERANCE`` rather than up to a step size.

The occupancy distribution ``p(s, sigma, t)`` (probability of holding ``sigma``
bikes at time ``t`` given ``s`` at time 0) solves a linear ODE driven by the
birth-death generator of the censored chain. Within an interval the generator
is constant, so the exact interval operators follow from uniformization
(Jensen 1953; Grassmann 1977):

* :func:`adjoint_interval` -- the transition ``e^{A h}`` and its integral
  over the interval, applied to row vectors as a sum of powers of a
  stochastic matrix with non-negative Poisson weights. Its truncation error
  is bounded by ``TRUNCATION_TOLERANCE`` before the sum is taken.
  This is the production path behind :mod:`.inventory`.

:func:`matrix_exponential_oracle` is an independent route kept as an oracle
for the benchmark harness in ``bench/``, which reads it: per-interval ``expm``
products, exact to machine precision. It imports ``scipy.linalg`` when
called, so it needs scipy from the ``dev`` extra; nothing else in the package
does. Only the tests call the Monte Carlo oracle, a path simulation that
also yields per-path lost-customer counts, so it lives in ``tests/oracles.py``.

Time is measured in hours internally; per-interval expected counts are
converted to hourly rates by dividing by the interval length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Absolute bound, per interval, on the uniformization terms that are dropped.
TRUNCATION_TOLERANCE = 1e-12

# Most Poisson weights one interval may use. A window this long means about
# 1e5 expected events in one interval, far beyond any station's demand.
_MAX_TERMS = 200_000

# _LOG_FACTORIALS[k] = log k!, grown on demand by log_factorial.
_LOG_FACTORIALS = np.zeros(1)


def log_factorial(k):
    """``log k!`` for a non-negative integer ``k``, or an array of them.

    Values are read from a cached table whose entries are each
    ``math.lgamma(i + 1)``, so the error of one entry does not depend on the
    others, as it would in a running sum of ``log i``. The table grows, at
    least doubling, when a larger ``k`` is asked for.
    """
    global _LOG_FACTORIALS
    n = np.asarray(k)
    if not np.all(np.isfinite(n) & (n >= 0) & (n == np.floor(n))):
        raise DomainError("log_factorial needs non-negative integers")
    index = n.astype(np.intp)
    have = len(_LOG_FACTORIALS)
    top = int(index.max(initial=0))
    if top >= have:
        grown = [math.lgamma(i + 1.0) for i in range(have, max(top + 1, 2 * have))]
        _LOG_FACTORIALS = np.concatenate([_LOG_FACTORIALS, grown])
    return _LOG_FACTORIALS[index]


@dataclass(frozen=True)
class RateSeries:
    """Piecewise-constant pickup/return rates, one value per interval.

    Rates are stored as expected event counts per interval (the unit in which
    demand data arrives); conversion to per-hour rates happens where the
    continuous-time machinery needs it.
    """

    interval_minutes: int
    pickup_rates: np.ndarray
    return_rates: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pickup_rates", np.asarray(self.pickup_rates, dtype=float))
        object.__setattr__(self, "return_rates", np.asarray(self.return_rates, dtype=float))
        if self.interval_minutes <= 0:
            raise DomainError(f"interval_minutes must be positive, got {self.interval_minutes}")
        if self.pickup_rates.ndim != 1 or self.return_rates.ndim != 1:
            raise DomainError("rate series must be one-dimensional")
        if len(self.pickup_rates) != len(self.return_rates):
            raise DomainError(
                f"pickup and return series differ in length: "
                f"{len(self.pickup_rates)} vs {len(self.return_rates)}"
            )
        for name, arr in (("pickup", self.pickup_rates), ("return", self.return_rates)):
            if not np.all(np.isfinite(arr)):
                raise DomainError(f"{name} rates contain non-finite values")
            if np.any(arr < 0):
                raise DomainError(f"{name} rates contain negative values")

    def __len__(self) -> int:
        return len(self.pickup_rates)

    @property
    def interval_hours(self) -> float:
        return self.interval_minutes / 60.0

    def hourly(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-hour (pickup, return) rates for each interval."""
        return self.pickup_rates / self.interval_hours, self.return_rates / self.interval_hours


@dataclass
class ProbabilityTrajectory:
    """Occupancy distribution over time for one starting inventory.

    ``probs[k, sigma]`` is the probability of holding ``sigma`` bikes at
    ``grid[k]`` hours. ``probs[0]`` is the indicator of ``start``.
    """

    capacity: int
    start: int
    grid: np.ndarray
    probs: np.ndarray


def generator_matrix(pickup_per_hour: float, return_per_hour: float, capacity: int) -> np.ndarray:
    """Rate matrix A with d/dt p = A p for the censored birth-death chain.

    Column ``sigma`` holds the outflow/inflow of probability for occupancy
    ``sigma``; columns sum to zero, which keeps total probability conserved.
    """
    n = capacity + 1
    a = np.zeros((n, n))
    a.flat[1::n + 1] = pickup_per_hour  # a pickup moves sigma -> sigma - 1
    a.flat[n::n + 1] = return_per_hour  # a return moves sigma -> sigma + 1
    a.flat[::n + 1] = -(pickup_per_hour + return_per_hour)
    a[0, 0] = -return_per_hour  # an empty station loses its pickups
    a[capacity, capacity] = -pickup_per_hour  # a full one loses its returns
    return a


def _check_start(start: int, capacity: int) -> None:
    if capacity < 1:
        raise DomainError(f"capacity must be >= 1, got {capacity}")
    if not 0 <= start <= capacity:
        raise DomainError(f"start inventory {start} outside [0, {capacity}]")


def adjoint_interval(
    u: np.ndarray,
    w: np.ndarray,
    pickup_per_hour: float,
    return_per_hour: float,
    capacity: int,
    hours: float,
) -> np.ndarray:
    """``u @ e^{A h} + w @ integral_0^h e^{A t} dt`` for one constant-rate interval.

    ``u`` and ``w`` are row vectors, or blocks of row vectors of one shape,
    over the ``capacity + 1`` occupancies. With ``u`` the identity and ``w``
    zero the result is the transition matrix itself, whose column ``s`` is the
    distribution after ``hours`` from ``s`` bikes.

    Both operators are sums over the powers of ``P = I + A/q``, ``q`` the
    total event rate, weighted by N ~ Poisson(q h): ``P(N = k)`` for the
    exponential and ``P(N > k)/q`` for its integral. ``P`` is non-negative
    with unit column sums, so ``|x P^k|`` never exceeds ``max |x|``, and the
    tails fall at least geometrically by ``q h / (k + 2)``. The terms after
    the k-th therefore add at most

        P(N > k) * (max|u| + max|w| * h / (k + 2 - q h))     for k + 2 > q h.

    The sum stops at the first ``k`` that brings this bound within
    ``TRUNCATION_TOLERANCE``; it is chosen before any term is formed, and a
    :class:`DomainError` is raised when no affordable ``k`` meets it.

    A day's sweep calls this once per interval, so the set-up is kept to few
    numpy calls: the Poisson weights read the ``log k!`` table directly, which
    :func:`log_factorial` grows only when the window outgrows it; ``u``, ``w``
    and the weights are written straight into their blocks; and ``P`` is
    built in place. Each entry still takes the floating-point operations of
    ``I + generator_matrix(...) / q``, in that order, so the result does not
    depend on how the set-up is written.
    """
    rate = pickup_per_hour + return_per_hour
    mean = rate * hours
    if mean == 0.0:  # A = 0: nothing moves and the integral is h * I
        return u + hours * w
    # Poisson weights in log space on a window whose far tail is below 1e-30
    # for every mean; tails are summed from the top, where they are smallest.
    top = mean + 12.0 * math.sqrt(mean) + 40.0
    if not top <= _MAX_TERMS:
        raise DomainError(f"uniformization needs more than {_MAX_TERMS} terms "
                          f"for {mean:.6g} expected events in one interval")
    size = int(top) + 1
    if len(_LOG_FACTORIALS) < size:
        log_factorial(size - 1)
    k = np.arange(size)
    pmf = k * np.log(mean)
    pmf -= mean
    pmf -= _LOG_FACTORIALS[:size]
    np.exp(pmf, out=pmf)
    beyond = float(pmf[-1]) * mean / (size - mean)  # bounds P(N > size - 1)
    tail = np.empty(size)  # tail[k] = P(N > k)
    np.add.accumulate(pmf[:0:-1], out=tail[-2::-1])
    tail[:-1] += beyond
    tail[-1] = beyond

    first = max(int(mean) - 1, 0)  # smallest k with k + 2 > q h
    bound = tail[first:] * (np.abs(u).max()
                            + np.abs(w).max() * hours / (k[first:] + 2.0 - mean))
    met = bound <= TRUNCATION_TOLERANCE
    stop = int(met.argmax())  # the first k that meets it, if any does
    if not met[stop]:
        raise DomainError(
            f"uniformization cannot bound its truncation error by "
            f"{TRUNCATION_TOLERANCE:g} within {size} terms (q h = {mean:.6g})")
    n_terms = first + stop + 1

    # Row j of the Krylov block holds [u; w] P^j. It is filled by doubling:
    # the first 2^i rows times P^(2^i) give the next 2^i, so the loop makes
    # about 2 log2(n_terms) matrix products instead of n_terms small ones.
    # For non-negative u and w no product cancels: every factor is non-negative.
    n = capacity + 1
    half = np.size(u) // n
    per_term = 2 * half
    krylov = np.empty((n_terms * per_term, n))
    krylov[:half] = np.reshape(u, (half, n))
    krylov[half:per_term] = np.reshape(w, (half, n))
    # P = I + A/q, entry by entry as generator_matrix(...) / q + eye(n) forms
    # it; the inner diagonal, 1 + -q/q, is exactly 0
    power = np.zeros((n, n))
    power.flat[1::n + 1] = pickup_per_hour / rate
    power.flat[n::n + 1] = return_per_hour / rate
    power[0, 0] = 1.0 + -return_per_hour / rate
    power[capacity, capacity] = 1.0 + -pickup_per_hour / rate
    filled = 1
    while True:
        take = min(filled, n_terms - filled)
        np.matmul(krylov[:take * per_term], power,
                  out=krylov[filled * per_term:(filled + take) * per_term])
        filled += take
        if filled == n_terms:
            break
        power = power @ power
    weights = np.empty(2 * n_terms)  # pmf and tail / q, interleaved
    weights[0::2] = pmf[:n_terms]
    np.divide(tail[:n_terms], rate, out=weights[1::2])
    return (weights @ krylov.reshape(2 * n_terms, -1)).reshape(np.shape(u))


def matrix_exponential_oracle(rates: RateSeries, start: int, capacity: int) -> ProbabilityTrajectory:
    """Exact occupancy distribution at interval boundaries via expm products.

    Within an interval the generator is constant, so the transition operator
    is a single matrix exponential; chaining them is exact up to machine
    precision and independent of the uniformization path.
    """
    _check_start(start, capacity)
    from scipy.linalg import expm  # a test oracle: scipy is a dev dependency

    mu_h, lam_h = rates.hourly()
    dt = rates.interval_hours

    grid = np.arange(len(rates) + 1) * dt
    probs = np.empty((len(rates) + 1, capacity + 1))
    p = np.zeros(capacity + 1)
    p[start] = 1.0
    probs[0] = p
    for i in range(len(rates)):
        p = expm(generator_matrix(mu_h[i], lam_h[i], capacity) * dt) @ p
        probs[i + 1] = p
    return ProbabilityTrajectory(capacity=capacity, start=start, grid=grid, probs=probs)
