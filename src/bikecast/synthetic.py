"""Synthetic data generators.

Two generators back the demo workload and the benchmark harness:

* a full-year trip/weather/station corpus with commute structure and
  nonlinear weather response, so covariate-aware models have something real
  to learn that calendar averages and a linear fit cannot capture;
* a single peaked day (morning pickups, evening returns) for the
  bias-sensitivity study.

Everything is deterministic given its seed. The sinusoidal Poisson rate
fixture, whose true rate is known exactly, serves only the tests and lives in
``tests/oracles.py``.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from datetime import date, datetime, time, timedelta

import numpy as np

from .ingest import PICKUP, RETURN, DemandSeries, EventStream


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


# -- full-year corpus -----------------------------------------------------


@dataclass(frozen=True)
class StationSpec:
    station_id: str
    capacity: int
    profile: str  # "residential" or "business"


DEFAULT_STATIONS = (
    StationSpec("101", 34, "residential"),
    StationSpec("102", 42, "business"),
    StationSpec("103", 28, "residential"),
    StationSpec("104", 38, "business"),
    StationSpec("105", 30, "residential"),
    StationSpec("106", 46, "business"),
)


def _commute_shape(hour: float, weekday: bool, profile: str, start: bool) -> float:
    """Relative trip-start intensity; destinations mirror it via the flow matrix."""
    if weekday:
        morning = np.exp(-0.5 * ((hour - 8.2) / 1.3) ** 2)
        evening = np.exp(-0.5 * ((hour - 17.6) / 1.5) ** 2)
        if (profile == "residential") == start:
            return 1.15 * morning + 0.18 * evening + 0.06
        return 0.18 * morning + 1.15 * evening + 0.06
    midday = np.exp(-0.5 * ((hour - 14.5) / 2.2) ** 2)
    return 0.6 * midday + 0.05


def _daylight(doy: int) -> float:
    """Evening ridership factor driven by how early it gets dark.

    Bottoms out around the winter solstice; near 1 all summer. Hits evening
    trips only, so the pickup/return balance of a day drifts with the season
    on top of anything temperature and rain do. The drift is slow enough for
    a trailing window to track but is invisible to covariate models: the
    calendar date is not one of their inputs.
    """
    return 1.0 - 0.45 * ((1.0 + np.cos(2.0 * np.pi * (doy - 355) / 365.0)) / 2.0) ** 1.5


def _weather_factor(temp_c: np.ndarray, rain: np.ndarray, hour: float = 12.0,
                    doy: int = 172) -> np.ndarray:
    """Saturating response to warmth, multiplicative rain suppression.

    Mornings react harder to bad weather than evenings (commuters caught in
    town still ride home), so weather shifts the day's net flow, not just its
    volume. A linear read of temperature and rain cannot track that. Evenings
    additionally carry the darkness factor.
    """
    morning = hour < 12.0
    warmth = _sigmoid((temp_c - (13.0 if morning else 3.0)) / 3.2)
    rain_hit = 0.85 if morning else 0.2
    factor = (0.2 + 0.8 * warmth) * (1.0 - rain_hit * rain)
    if not morning:
        factor = factor * _daylight(doy)
    return factor


def generate_weather(year: int, seed: int) -> list[tuple[datetime, float, float]]:
    """Hourly temperature and rain probability for one calendar year."""
    rng = np.random.default_rng(seed)
    start = datetime(year, 1, 1)
    n_hours = ((datetime(year + 1, 1, 1) - start).days) * 24
    rows = []
    rain_level = 0.03
    temp_noise = 0.0
    for k in range(n_hours):
        ts = start + timedelta(hours=k)
        doy = ts.timetuple().tm_yday
        seasonal = 10.0 - 15.0 * np.cos(2.0 * np.pi * doy / 365.0)
        daily = 4.0 * np.sin(2.0 * np.pi * (ts.hour - 9) / 24.0)
        temp_noise = 0.9 * temp_noise + rng.normal(0, 0.8)
        temp = seasonal + daily + temp_noise
        if ts.hour == 0:
            # day-scale rain regimes, wet winters and dry summers
            wet_p = 0.26 + 0.19 * np.cos(2.0 * np.pi * doy / 365.0)
            if rng.random() < wet_p:
                rain_level = float(np.clip(rng.beta(1.1, 1.4), 0, 1))
            else:
                rain_level = float(np.clip(rain_level * 0.4, 0, 0.03))
        rain = float(np.clip(rain_level + rng.normal(0, 0.03), 0.0, 1.0))
        rows.append((ts, round(float(temp), 2), round(rain, 3)))
    return rows


def generate_trips(
    year: int,
    stations: tuple[StationSpec, ...],
    weather: list[tuple[datetime, float, float]],
    seed: int,
    base_rate: float = 32.0,
) -> list[tuple[datetime, datetime, str, str]]:
    """Trip quadruples (start_time, end_time, origin, destination).

    Origin intensity follows the commute shape scaled by the weather factor;
    destinations prefer stations of the opposite profile so returns peak
    against the grain of pickups.
    """
    rng = np.random.default_rng(seed)
    by_hour = {ts: (t, r) for ts, t, r in weather}
    opposite = {"residential": "business", "business": "residential"}
    trips = []
    start = datetime(year, 1, 1)
    n_hours = ((datetime(year + 1, 1, 1) - start).days) * 24
    for k in range(n_hours):
        ts = start + timedelta(hours=k)
        temp, rain = by_hour[ts]
        factor = float(_weather_factor(np.asarray(temp), np.asarray(rain),
                                       hour=ts.hour + 0.5,
                                       doy=ts.timetuple().tm_yday))
        weekday = ts.weekday() < 5
        for origin in stations:
            shape = _commute_shape(ts.hour + 0.5, weekday, origin.profile, start=True)
            n = rng.poisson(base_rate * shape * factor)
            if n == 0:
                continue
            others = [s for s in stations if s.station_id != origin.station_id]
            prefer = [s for s in others if s.profile == opposite[origin.profile]]
            minutes = rng.uniform(0, 60, size=n)
            durations = rng.lognormal(mean=np.log(14.0), sigma=0.45, size=n)
            for j in range(n):
                pool = prefer if rng.random() < 0.8 and prefer else others
                dest = pool[rng.integers(len(pool))]
                t0 = ts + timedelta(minutes=float(minutes[j]))
                t1 = t0 + timedelta(minutes=float(durations[j]))
                trips.append((t0, t1, origin.station_id, dest.station_id))
    trips.sort(key=lambda t: t[0])
    return trips


def write_corpus(out_dir: str, year: int = 2018, seed: int = 7,
                 stations: tuple[StationSpec, ...] = DEFAULT_STATIONS,
                 base_rate: float = 32.0) -> dict[str, str]:
    """Write trips.csv, weather.csv and stations.csv; returns their paths."""
    os.makedirs(out_dir, exist_ok=True)
    ss = np.random.SeedSequence(seed)
    weather_seed, trip_seed = (int(s.generate_state(1)[0]) for s in ss.spawn(2))
    weather = generate_weather(year, weather_seed)
    trips = generate_trips(year, stations, weather, trip_seed, base_rate=base_rate)

    paths = {
        "trips": os.path.join(out_dir, "trips.csv"),
        "weather": os.path.join(out_dir, "weather.csv"),
        "stations": os.path.join(out_dir, "stations.csv"),
    }
    with open(paths["trips"], "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["starttime", "stoptime", "start station id", "end station id"])
        for t0, t1, a, b in trips:
            writer.writerow([t0.isoformat(sep=" "), t1.isoformat(sep=" "), a, b])
    with open(paths["weather"], "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["timestamp", "temperature_c", "rain_probability"])
        for ts, temp, rain in weather:
            writer.writerow([ts.isoformat(sep=" "), f"{temp:.2f}", f"{rain:.3f}"])
    with open(paths["stations"], "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["station_id", "capacity", "profile"])
        for s in stations:
            writer.writerow([s.station_id, s.capacity, s.profile])
    return paths


# -- peaked reference day ----------------------------------------------------


def peaked_day_rates(interval_minutes: int = 60, pickup_peak: float = 20.0,
                     return_peak: float = 20.0, width_hours: float = 0.35,
                     base: float = 0.3) -> tuple[np.ndarray, np.ndarray]:
    """Hourly-rate curves: pickups spike mid-morning, returns in the evening.

    The spikes are narrow so each side's daily total lands near half the
    reference capacity of 40: the morning needs about that many bikes and the
    evening about that many free docks, which puts the optimal inventory in
    the interior where both shortage risks are live.
    """
    slots = 1440 // interval_minutes
    hours = (np.arange(slots) + 0.5) * (interval_minutes / 60.0)
    pickup = pickup_peak * np.exp(-0.5 * ((hours - 8.5) / width_hours) ** 2) + base
    ret = return_peak * np.exp(-0.5 * ((hours - 18.0) / width_hours) ** 2) + base
    return pickup, ret


def peaked_day(seed: int = 3, interval_minutes: int = 60,
               day: date = date(2018, 6, 5)) -> tuple[DemandSeries, EventStream]:
    """One realized day drawn from the peaked curves, as counts plus events.

    The event stream and the count series describe the same draw, so replay
    and counts-as-rates constructions agree with each other. The default seed
    gives a day whose pickup and return totals are balanced; heavily lopsided
    draws push the optimal inventory toward a capacity bound, which is not
    the regime the bias study is about.
    """
    rng = np.random.default_rng(seed)
    pickup_rate, return_rate = peaked_day_rates(interval_minutes)
    hours_per = interval_minutes / 60.0
    pickups = rng.poisson(pickup_rate * hours_per)
    returns = rng.poisson(return_rate * hours_per)

    start = datetime.combine(day, time.min)
    times: list[datetime] = []
    kinds: list[int] = []
    for i in range(len(pickups)):
        base = start + timedelta(minutes=i * interval_minutes)
        for kind, n in ((PICKUP, pickups[i]), (RETURN, returns[i])):
            for off in sorted(rng.uniform(0, interval_minutes, size=n)):
                times.append(base + timedelta(minutes=float(off)))
                kinds.append(kind)
    stream = EventStream(station="peaked", times=times, kinds=kinds)
    series = DemandSeries(
        station="peaked",
        interval_minutes=interval_minutes,
        start=start,
        pickups=pickups,
        returns=returns,
    )
    return series, stream
