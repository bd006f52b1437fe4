"""Oracles and fixtures that only the tests call.

* :func:`monte_carlo_oracle` simulates the censored pickup/return chain of
  :mod:`bikecast.queueing` path by path: a statistical cross-check of the
  uniformization solver that also yields per-path lost-customer counts.
  :func:`bikecast.queueing.matrix_exponential_oracle`, the exact oracle,
  stays in the package because the benchmark harness reads it.
* :func:`sinusoidal_split` draws counts from known sinusoidal rates, so a
  forecaster's fit can be judged against the true rate.
* :func:`replay_one` replays a day's events from one start, event by event:
  the reference for :func:`bikecast.evaluate.replay_cost`, which gives the
  cost of every start from one walk.

The first two are deterministic given their seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

from bikecast.errors import DomainError
from bikecast.ingest import (
    PICKUP,
    DataSplit,
    DemandSeries,
    EventStream,
    WeatherTable,
    build_covariates,
)
from bikecast.inventory import PenaltyConfig
from bikecast.queueing import RateSeries, _check_start


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


def sinusoidal_split(
    n_days: int = 60,
    interval_minutes: int = 60,
    seed: int = 0,
    mean_rate: float = 10.0,
    amplitude: float = 5.0,
    period_hours: float = 24.0,
    train_fraction: float = 0.7,
    val_fraction: float = 0.15,
    day_log_noise: float = 0.0,
    slot_log_noise: float = 0.0,
) -> tuple[DataSplit, np.ndarray, np.ndarray]:
    """Counts drawn from known sinusoidal rates, split chronologically.

    Returns (split, pickup_rate_per_slot, return_rate_per_slot); the return
    process runs a quarter period out of phase. The rates repeat daily, so
    the per-slot vectors are the ground truth for every day.

    ``day_log_noise`` multiplies each day's rates by a lognormal level,
    drawn independently for the pickup and return processes;
    ``slot_log_noise`` multiplies every interval's rate by its own
    independent lognormal draw. Either makes realized rates carry
    information beyond the covariates, which is what separates a posterior
    network from the covariate-only prior.
    """
    rng = np.random.default_rng(seed)
    slots = 1440 // interval_minutes
    hours = np.arange(slots) * (interval_minutes / 60.0)
    pickup_rate = mean_rate + amplitude * np.sin(2 * np.pi * hours / period_hours)
    return_rate = mean_rate + amplitude * np.sin(2 * np.pi * (hours / period_hours - 0.25))

    def level_draw() -> np.ndarray:
        day_level = np.exp(rng.normal(0.0, day_log_noise, size=n_days)) if day_log_noise else np.ones(n_days)
        level = np.repeat(day_level, slots)
        if slot_log_noise:
            level = level * np.exp(rng.normal(0.0, slot_log_noise, size=n_days * slots))
        return level

    pickups = rng.poisson(level_draw() * np.tile(pickup_rate, n_days))
    returns = rng.poisson(level_draw() * np.tile(return_rate, n_days))

    start = datetime(2018, 1, 1)
    temps = 15.0 + rng.normal(0, 0.5, size=n_days * 24)
    weather = WeatherTable(hours=np.datetime64(start, "h") + np.arange(n_days * 24),
                           temperature_c=temps, rain_probability=np.zeros(n_days * 24))
    series = DemandSeries(
        station="synthetic",
        interval_minutes=interval_minutes,
        first_day=start.date(),
        counts=np.stack([pickups, returns], axis=1).reshape(n_days, slots, 2),
        covariates=build_covariates(
            weather, (start.date(), start.date() + timedelta(days=n_days - 1)), interval_minutes),
    )
    train_days = int(n_days * train_fraction)
    val_days = int(n_days * val_fraction)
    split = DataSplit(
        train=series.days(0, train_days),
        validation=series.days(train_days, train_days + val_days),
        test=series.days(train_days + val_days, n_days),
    )
    return split, pickup_rate, return_rate


def replay_one(events: EventStream, s: int, capacity: int,
               penalties: PenaltyConfig = PenaltyConfig()) -> tuple[int, int, float]:
    """Lost pickups, lost returns and their cost when ``events`` are replayed
    from start ``s``: a pickup at an empty station is lost, a return at a full
    one is lost, and either leaves the inventory unchanged."""
    inventory = s
    lost_p = lost_r = 0
    for kind in events.kinds.tolist():
        if kind == PICKUP:
            if inventory == 0:
                lost_p += 1
            else:
                inventory -= 1
        else:
            if inventory == capacity:
                lost_r += 1
            else:
                inventory += 1
    return lost_p, lost_r, penalties.lost_pickup * lost_p + penalties.lost_return * lost_r
