"""Trip ingestion: parsing, event streams, interval counts, covariates, splits.

Everything downstream consumes per-interval pickup/return counts aligned with
an exogenous covariate matrix (weather + calendar encodings). This module
turns raw trip and weather files into that shape.

A trip file is read once, in one pass, into a columnar :class:`TripTable`
(start time, end time, start station, end station). The table becomes one
sorted :class:`EventStream` per selected station; the stream feeds the
interval counts and, written with :func:`events_to_csv` as
``demand/events_<sid>.csv``, the replay that scores each day's decision, so
the trip file is never parsed again after ingest.

Under ``demand/`` ingest also writes each station's counts
(``station_<sid>.csv``) and, once, the weather it parsed (``weather.csv``).
Covariates are not stored: :func:`build_covariates`, the one place that
knows their encoding, rebuilds them from the weather.

Conventions fixed here and relied on elsewhere:

* interval boundaries are left-closed, right-open;
* simultaneous events order pickups before returns;
* a day starts at local midnight (the overnight rebalancing epoch);
* weather gaps are forward-filled, never back-filled.
"""

from __future__ import annotations

import csv
import io
import math
import os
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import date, datetime, time, timedelta
from operator import itemgetter

import numpy as np

from .errors import ConfigError, DataError, FormatError, RowError

PICKUP = "pickup"
RETURN = "return"

VALID_INTERVALS = (15, 30, 60)


@dataclass
class TripTable:
    """Parsed trips as four parallel columns, one entry per kept row."""

    start_times: list[datetime]
    end_times: list[datetime]
    start_stations: list[str]
    end_stations: list[str]

    def __len__(self) -> int:
        return len(self.start_times)


@dataclass
class EventStream:
    """Chronological pickup/return events at one station."""

    station: str
    events: list[tuple[datetime, str]]

    def sort(self) -> None:
        # PICKUP < RETURN as strings, so plain tuple order puts pickups first
        # at equal times and the comparison never leaves C
        self.events.sort()

    def slice_day(self, day: date) -> "EventStream":
        """The events of one day; relies on the stream being sorted."""
        lo = datetime.combine(day, time.min)
        hi = lo + timedelta(days=1)
        first = bisect_left(self.events, lo, key=itemgetter(0))
        last = bisect_left(self.events, hi, lo=first, key=itemgetter(0))
        return EventStream(station=self.station, events=self.events[first:last])


@dataclass
class CovariateMatrix:
    """Per-interval exogenous features.

    Columns: temperature_c, rain_probability, a 7-wide day-of-week one-hot
    block (Monday first) and a time-of-day one-hot block with one slot per
    interval of the day.
    """

    values: np.ndarray
    columns: list[str]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[1] != len(self.columns):
            raise DataError("covariate values and column labels disagree in shape")
        rain = self.column("rain_probability")
        if np.any((rain < 0) | (rain > 1)):
            raise DataError("rain_probability outside [0, 1]")
        for prefix in ("dow_", "tod_"):
            block = self.block(prefix)
            sums = block.sum(axis=1)
            if not np.allclose(sums, 1.0, atol=0, rtol=0):
                raise DataError(f"one-hot block {prefix}* does not sum to 1 on every row")

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.columns.index(name)]

    def block(self, prefix: str) -> np.ndarray:
        idx = [i for i, c in enumerate(self.columns) if c.startswith(prefix)]
        return self.values[:, idx]

    def rows(self, lo: int, hi: int) -> "CovariateMatrix":
        return CovariateMatrix(values=self.values[lo:hi].copy(), columns=list(self.columns))

    def __len__(self) -> int:
        return self.values.shape[0]


@dataclass
class DemandSeries:
    """Aligned per-interval pickup counts, return counts and covariates."""

    station: str
    interval_minutes: int
    start: datetime
    pickups: np.ndarray
    returns: np.ndarray
    covariates: CovariateMatrix | None = None

    def __post_init__(self):
        self.pickups = np.asarray(self.pickups, dtype=np.int64)
        self.returns = np.asarray(self.returns, dtype=np.int64)
        if self.interval_minutes not in VALID_INTERVALS:
            raise ConfigError(f"interval must be one of {VALID_INTERVALS}, got {self.interval_minutes}")
        if np.any(self.pickups < 0) or np.any(self.returns < 0):
            raise DataError("counts must be non-negative")
        if len(self.pickups) != len(self.returns):
            raise DataError("pickup and return series differ in length")
        if (len(self.pickups) * self.interval_minutes) % 1440 != 0:
            raise DataError("series must tile whole days")
        if self.start.time() != time.min:
            raise DataError("series must start at local midnight")
        if self.covariates is not None and len(self.covariates) != len(self.pickups):
            raise DataError("covariate rows do not match the number of intervals")

    def __len__(self) -> int:
        return len(self.pickups)

    @property
    def intervals_per_day(self) -> int:
        return 1440 // self.interval_minutes

    @property
    def n_days(self) -> int:
        return len(self) // self.intervals_per_day

    def times(self) -> list[datetime]:
        step = timedelta(minutes=self.interval_minutes)
        return [self.start + i * step for i in range(len(self))]

    def rows(self, lo: int, hi: int) -> "DemandSeries":
        cov = self.covariates.rows(lo, hi) if self.covariates is not None else None
        return DemandSeries(
            station=self.station,
            interval_minutes=self.interval_minutes,
            start=self.start + timedelta(minutes=lo * self.interval_minutes),
            pickups=self.pickups[lo:hi].copy(),
            returns=self.returns[lo:hi].copy(),
            covariates=cov,
        )

    def day(self, day_index: int) -> "DemandSeries":
        n = self.intervals_per_day
        if not 0 <= day_index < self.n_days:
            raise DataError(f"day index {day_index} outside [0, {self.n_days})")
        return self.rows(day_index * n, (day_index + 1) * n)


@dataclass
class DataSplit:
    train: DemandSeries
    validation: DemandSeries
    test: DemandSeries


# start time, stop time, start station and end station in the Citi Bike schema
TRIP_COLUMNS = ("starttime", "stoptime", "start station id", "end station id")


def _parse_timestamp(raw: str, line_number: int) -> datetime:
    try:
        stamp = datetime.fromisoformat(raw.strip())
    except ValueError:
        raise RowError(line_number, f"unparseable timestamp {raw!r}") from None
    if stamp.tzinfo is not None:
        raise RowError(line_number, f"timestamp {raw!r} carries a UTC offset; "
                                    f"timestamps must be naive local time")
    return stamp


@contextmanager
def _open_text(source):
    """A text stream over ``source``, closed on exit only if opened here.

    A path is opened and closed. A binary stream that the caller owns is
    wrapped, and the wrapper is detached on exit, so the caller's stream stays
    open. Text streams pass through untouched.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", newline="") as fh:
            yield fh
    elif isinstance(source, io.IOBase) and not isinstance(source, io.TextIOBase):
        wrapper = io.TextIOWrapper(source, encoding="utf-8")
        try:
            yield wrapper
        finally:
            wrapper.detach()
    else:
        yield source


def parse_trips(source) -> TripTable:
    """Read a trip CSV with the :data:`TRIP_COLUMNS` into a :class:`TripTable`.

    ``source`` may be a path or an open stream. Rows are read by column index
    in one pass; no per-row object is built beyond the kept values. Malformed
    rows are never skipped silently but raise :class:`RowError` with the
    offending line number.
    """
    with _open_text(source) as stream:
        reader = csv.reader(stream)
        header = next(reader, None)
        if header is None:
            raise FormatError("trip file is empty (no header row)")
        for col in TRIP_COLUMNS:
            if col not in header:
                raise FormatError(f"trip file is missing required column {col!r}")
        # the last column of a repeated name wins, as with csv.DictReader
        index = {name: i for i, name in enumerate(header)}
        i_t0, i_t1, i_s0, i_s1 = (index[col] for col in TRIP_COLUMNS)
        width = max(i_t0, i_t1, i_s0, i_s1) + 1

        start_times, end_times, start_stations, end_stations = [], [], [], []
        for row in reader:
            if not row:
                continue  # blank line
            if len(row) < width:
                row += [""] * (width - len(row))
            line = reader.line_num
            start_station = row[i_s0].strip()
            end_station = row[i_s1].strip()
            if not start_station or not end_station:
                raise RowError(line, "empty station id")
            start_time = _parse_timestamp(row[i_t0], line)
            end_time = _parse_timestamp(row[i_t1], line)
            if end_time < start_time:
                raise RowError(line, f"trip ends before it starts: {start_time} -> {end_time}")
            start_times.append(start_time)
            end_times.append(end_time)
            start_stations.append(start_station)
            end_stations.append(end_station)
    return TripTable(start_times, end_times, start_stations, end_stations)


def to_event_streams(trips: TripTable, stations: Iterable[str]) -> dict[str, EventStream]:
    """Explode trips into pickup/return event streams for the given stations.

    Each trip contributes a pickup at its start station and a return at its
    end station; events at other stations are never built. Streams come back
    time-sorted with pickups ordered before returns at identical timestamps,
    keyed by station id in sorted order. A station with no events gets no
    stream.
    """
    events: dict[str, list[tuple[datetime, str]]] = {sid: [] for sid in sorted(set(stations))}
    for kind, times, where in ((PICKUP, trips.start_times, trips.start_stations),
                               (RETURN, trips.end_times, trips.end_stations)):
        for ts, station in zip(times, where):
            if station in events:
                events[station].append((ts, kind))
    streams = {}
    for station, found in events.items():
        if found:
            stream = EventStream(station=station, events=found)
            stream.sort()
            streams[station] = stream
    return streams


def top_stations(trips: TripTable, n: int = 30) -> list[str]:
    """The ``n`` most active stations by total pickup count, busiest first."""
    counts = Counter(trips.start_stations)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [station for station, _ in ranked[:n]]


def events_to_csv(stream: EventStream) -> str:
    """Serialize a stream as ``time,kind`` rows; the times round-trip exactly."""
    lines = ["time,kind\n"]
    lines.extend(f"{ts.isoformat(sep=' ')},{kind}\n" for ts, kind in stream.events)
    return "".join(lines)


def events_from_csv(source, station: str) -> EventStream:
    """Inverse of :func:`events_to_csv`; comment lines starting with # are skipped."""
    # each event refers to the module's kind string, not a copy per row
    kinds = {PICKUP: PICKUP, RETURN: RETURN}
    with _open_text(source) as text:
        lines = (ln for ln in text if not ln.startswith("#"))
        if next(lines, "").rstrip("\r\n") != "time,kind":
            raise FormatError("event CSV must start with a time,kind header")
        events = []
        for line in lines:
            stamp, _, kind = line.rstrip("\r\n").partition(",")
            if kind not in kinds:
                raise FormatError(f"unknown event kind {kind!r} in event CSV")
            events.append((datetime.fromisoformat(stamp), kinds[kind]))
    stream = EventStream(station=station, events=events)
    stream.sort()  # slice_day relies on the order; a sorted file costs one pass
    return stream


def aggregate(
    events: EventStream,
    interval_minutes: int,
    day_range: tuple[date, date],
) -> DemandSeries:
    """Count events into left-closed, right-open intervals tiling whole days.

    ``day_range`` is (first day, last day), both inclusive. Intervals with no
    events are explicit zeros; events outside the range are ignored.
    """
    if interval_minutes not in VALID_INTERVALS:
        raise ConfigError(f"interval must be one of {VALID_INTERVALS}, got {interval_minutes}")
    first, last = day_range
    if last < first:
        raise ConfigError(f"day range is empty: {first} to {last}")
    start = datetime.combine(first, time.min)
    n_days = (last - first).days + 1
    n = n_days * (1440 // interval_minutes)

    pickups = np.zeros(n, dtype=np.int64)
    returns = np.zeros(n, dtype=np.int64)
    for ts, kind in events.events:
        offset_min = (ts - start).total_seconds() / 60.0
        idx = int(offset_min // interval_minutes)
        if offset_min < 0 or idx >= n:
            continue
        if kind == PICKUP:
            pickups[idx] += 1
        else:
            returns[idx] += 1
    return DemandSeries(
        station=events.station,
        interval_minutes=interval_minutes,
        start=start,
        pickups=pickups,
        returns=returns,
    )


@dataclass
class WeatherTable:
    """Hourly weather observations keyed by (naive, local) hour timestamps."""

    observations: dict[datetime, tuple[float, float]] = field(default_factory=dict)

    def add(self, ts: datetime, temperature_c: float, rain_probability: float) -> None:
        if ts.minute or ts.second or ts.microsecond:
            raise DataError(f"weather timestamps must be on the hour, got {ts}")
        if not 0.0 <= rain_probability <= 1.0:
            raise DataError(f"rain_probability {rain_probability} outside [0, 1] at {ts}")
        if not math.isfinite(temperature_c):
            raise DataError(f"temperature_c {temperature_c} is not finite at {ts}")
        self.observations[ts] = (float(temperature_c), float(rain_probability))


def parse_weather(source) -> WeatherTable:
    """Read an hourly weather CSV (timestamp, temperature_c, rain_probability)."""
    with _open_text(source) as stream:
        reader = csv.DictReader(stream)
        if reader.fieldnames is None:
            raise FormatError("weather file is empty (no header row)")
        for col in ("timestamp", "temperature_c", "rain_probability"):
            if col not in reader.fieldnames:
                raise FormatError(f"weather file is missing required column {col!r}")
        table = WeatherTable()
        for row in reader:
            line = reader.line_num
            ts = _parse_timestamp(row["timestamp"] or "", line)
            try:
                temp = float(row["temperature_c"])
                rain = float(row["rain_probability"])
            except (TypeError, ValueError):
                raise RowError(line, "unparseable weather values") from None
            try:
                table.add(ts, temp, rain)
            except DataError as exc:
                raise RowError(line, str(exc)) from None
    return table


def parse_stations(source) -> dict[str, int]:
    """Read station metadata (station_id, capacity); capacities must be positive."""
    with _open_text(source) as stream:
        reader = csv.DictReader(stream)
        if reader.fieldnames is None:
            raise FormatError("station file is empty (no header row)")
        for col in ("station_id", "capacity"):
            if col not in reader.fieldnames:
                raise FormatError(f"station file is missing required column {col!r}")
        capacities = {}
        for row in reader:
            line = reader.line_num
            sid = (row["station_id"] or "").strip()
            if not sid:
                raise RowError(line, "empty station id")
            try:
                cap = int(row["capacity"])
            except (TypeError, ValueError):
                raise RowError(line, f"unparseable capacity {row['capacity']!r}") from None
            if cap <= 0:
                raise RowError(line, f"capacity must be positive, got {cap}")
            capacities[sid] = cap
    return capacities


def covariate_columns(interval_minutes: int) -> list[str]:
    n_slots = 1440 // interval_minutes
    return (
        ["temperature_c", "rain_probability"]
        + [f"dow_{d}" for d in range(7)]
        + [f"tod_{s}" for s in range(n_slots)]
    )


def build_covariates(
    weather: WeatherTable,
    day_range: tuple[date, date],
    interval_minutes: int,
) -> CovariateMatrix:
    """Expand hourly weather plus calendar one-hots to the interval grid.

    Sub-hourly intervals replicate their hour's measurement. Missing hours are
    forward-filled from the most recent observation; a gap at the very start
    of the range has nothing to fill from and raises :class:`DataError`.
    """
    if interval_minutes not in VALID_INTERVALS:
        raise ConfigError(f"interval must be one of {VALID_INTERVALS}, got {interval_minutes}")
    first, last = day_range
    n_days = (last - first).days + 1
    n_slots = 1440 // interval_minutes
    columns = covariate_columns(interval_minutes)
    values = np.zeros((n_days * n_slots, len(columns)))

    start = datetime.combine(first, time.min)
    step = timedelta(minutes=interval_minutes)
    last_obs: tuple[float, float] | None = None
    last_hour_checked: datetime | None = None
    for i in range(n_days * n_slots):
        t = start + i * step
        hour = t.replace(minute=0)
        if hour != last_hour_checked:
            if hour in weather.observations:
                last_obs = weather.observations[hour]
            elif last_obs is None:
                raise DataError(f"no weather observation at or before {hour}")
            last_hour_checked = hour
        temp, rain = last_obs
        values[i, 0] = temp
        values[i, 1] = rain
        values[i, 2 + t.weekday()] = 1.0
        slot = (t.hour * 60 + t.minute) // interval_minutes
        values[i, 9 + slot] = 1.0
    return CovariateMatrix(values=values, columns=columns)


def _add_months(d: date, months: int) -> date:
    month_index = d.month - 1 + months
    year = d.year + month_index // 12
    return date(year, month_index % 12 + 1, d.day)


def split(series: DemandSeries) -> DataSplit:
    """Chronological 9/1/2-month split of a series spanning 12 whole months."""
    start = series.start
    if start.day != 1:
        raise ConfigError("split requires the series to start on the first of a month")
    first = start.date()
    end_date = _add_months(first, 12)
    expected_days = (end_date - first).days
    if series.n_days != expected_days:
        raise ConfigError(
            f"split requires exactly 12 calendar months ({expected_days} days), "
            f"got {series.n_days} days"
        )
    per_day = series.intervals_per_day
    train_end = (_add_months(first, 9) - first).days * per_day
    val_end = (_add_months(first, 10) - first).days * per_day
    return DataSplit(
        train=series.rows(0, train_end),
        validation=series.rows(train_end, val_end),
        test=series.rows(val_end, len(series)),
    )


def demand_to_csv(series: DemandSeries) -> str:
    """Serialize the counts as ``interval_start,pickups,returns`` rows, no covariates."""
    lines = ["interval_start,pickups,returns\n"]
    lines.extend(f"{ts.isoformat(sep=' ')},{p},{r}\n" for ts, p, r in
                 zip(series.times(), series.pickups.tolist(), series.returns.tolist()))
    return "".join(lines)


def demand_from_csv(source, station: str, interval_minutes: int) -> DemandSeries:
    """Inverse of :func:`demand_to_csv`; comment lines starting with # are skipped.

    A short, blank or unparseable row raises :class:`RowError` with its line number.
    """
    with _open_text(source) as text:
        lines = ((n, ln.rstrip("\r\n")) for n, ln in enumerate(text, 1)
                 if not ln.startswith("#"))
        if next(lines, (0, ""))[1] != "interval_start,pickups,returns":
            raise FormatError("demand CSV must start with an interval_start,pickups,returns header")
        times, pickups, returns = [], [], []
        for n, line in lines:
            fields = line.split(",")
            if len(fields) != 3:
                raise RowError(n, f"expected interval_start,pickups,returns, got {line!r}")
            times.append(_parse_timestamp(fields[0], n))
            try:
                pickups.append(int(fields[1]))
                returns.append(int(fields[2]))
            except ValueError:
                raise RowError(n, f"unparseable counts in {line!r}") from None
    if not times:
        raise FormatError("demand CSV has no data rows")
    return DemandSeries(
        station=station,
        interval_minutes=interval_minutes,
        start=times[0],
        pickups=np.array(pickups),
        returns=np.array(returns),
    )


def weather_to_csv(weather: WeatherTable) -> str:
    """Serialize for :func:`parse_weather`; ``repr`` values parse back to the same floats."""
    lines = ["timestamp,temperature_c,rain_probability\n"]
    lines.extend(f"{ts.isoformat(sep=' ')},{temp!r},{rain!r}\n"
                 for ts, (temp, rain) in sorted(weather.observations.items()))
    return "".join(lines)
