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

Two independent routes remain as test oracles:

* :func:`matrix_exponential_oracle` -- per-interval ``expm`` products, exact
  to machine precision. It imports ``scipy.linalg`` when called, so it needs
  scipy from the ``dev`` extra; nothing else in the package does;
* :func:`monte_carlo_oracle` -- path simulation, a statistical cross-check
  that also yields per-path lost-customer counts.

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
    """
    rate = pickup_per_hour + return_per_hour
    mean = rate * hours
    if mean == 0.0:  # A = 0: nothing moves and the integral is h * I
        return u + hours * w
    # Poisson weights in log space on a window whose far tail is below 1e-30
    # for every mean; tails are summed from the top, where they are smallest.
    top = mean + 12.0 * np.sqrt(mean) + 40.0
    if not top <= _MAX_TERMS:
        raise DomainError(f"uniformization needs more than {_MAX_TERMS} terms "
                          f"for {mean:.6g} expected events in one interval")
    k = np.arange(int(top) + 1)
    pmf = np.exp(k * np.log(mean) - mean - log_factorial(k))
    beyond = pmf[-1] * mean / (k[-1] + 1.0 - mean)  # bounds P(N > k[-1])
    tail = np.empty(len(k))  # tail[k] = P(N > k)
    tail[:-1] = np.cumsum(pmf[:0:-1])[::-1] + beyond
    tail[-1] = beyond

    first = max(int(mean) - 1, 0)  # smallest k with k + 2 > q h
    bound = tail[first:] * (np.max(np.abs(u))
                            + np.max(np.abs(w)) * hours / (k[first:] + 2.0 - mean))
    met = np.flatnonzero(bound <= TRUNCATION_TOLERANCE)
    if len(met) == 0:
        raise DomainError(
            f"uniformization cannot bound its truncation error by "
            f"{TRUNCATION_TOLERANCE:g} within {len(k)} terms (q h = {mean:.6g})")
    n_terms = first + int(met[0]) + 1

    # Row j of the Krylov block holds [u; w] P^j. It is filled by doubling:
    # the first 2^i rows times P^(2^i) give the next 2^i, so the loop makes
    # about 2 log2(n_terms) matrix products instead of n_terms small ones.
    # For non-negative u and w no product cancels: every factor is non-negative.
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


@dataclass
class MonteCarloResult:
    """Empirical occupancy distribution at interval boundaries.

    ``probs[k, sigma]`` estimates ``p(start, sigma, grid[k])``; ``stderr``
    holds the matching binomial standard errors. ``lost_pickups`` and
    ``lost_returns`` carry the per-path censored-event counts over the whole
    horizon, which is what expected-dissatisfaction checks need.
    """

    capacity: int
    start: int
    n_paths: int
    grid: np.ndarray
    probs: np.ndarray
    stderr: np.ndarray
    lost_pickups: np.ndarray
    lost_returns: np.ndarray


def monte_carlo_oracle(
    rates: RateSeries,
    start: int,
    capacity: int,
    n_paths: int,
    seed: int,
) -> MonteCarloResult:
    """Simulate the censored pickup/return process for ``n_paths`` stations.

    Events are generated interval by interval: the event count of each kind
    is Poisson with the interval's expected count, and because rates are
    constant within an interval the chronological order of the events is an
    exchangeable shuffle, drawn here by sequentially picking the next kind
    with probability proportional to the remaining counts. All paths advance
    in lockstep through vectorized steps; the RNG is seeded explicitly.
    """
    _check_start(start, capacity)
    if n_paths < 1:
        raise DomainError("n_paths must be >= 1")
    rng = np.random.default_rng(seed)

    inv = np.full(n_paths, start, dtype=np.int64)
    lost_p = np.zeros(n_paths, dtype=np.int64)
    lost_r = np.zeros(n_paths, dtype=np.int64)

    n_intervals = len(rates)
    grid = np.arange(n_intervals + 1) * rates.interval_hours
    probs = np.zeros((n_intervals + 1, capacity + 1))
    probs[0, start] = 1.0

    for i in range(n_intervals):
        rem_p = rng.poisson(rates.pickup_rates[i], n_paths)
        rem_r = rng.poisson(rates.return_rates[i], n_paths)
        remaining = rem_p + rem_r
        while True:
            active = remaining > 0
            if not np.any(active):
                break
            u = rng.random(n_paths)
            is_pickup = active & (u * remaining < rem_p)
            is_return = active & ~is_pickup

            blocked_p = is_pickup & (inv == 0)
            lost_p += blocked_p
            inv -= is_pickup & ~blocked_p

            blocked_r = is_return & (inv == capacity)
            lost_r += blocked_r
            inv += is_return & ~blocked_r

            rem_p -= is_pickup
            rem_r -= is_return
            remaining -= active
        probs[i + 1] = np.bincount(inv, minlength=capacity + 1) / n_paths

    stderr = np.sqrt(probs * (1.0 - probs) / n_paths)
    return MonteCarloResult(
        capacity=capacity,
        start=start,
        n_paths=n_paths,
        grid=grid,
        probs=probs,
        stderr=stderr,
        lost_pickups=lost_p,
        lost_returns=lost_r,
    )
