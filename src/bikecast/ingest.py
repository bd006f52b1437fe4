"""Trip ingestion: parsing, event streams, interval counts, covariates, splits.

Everything downstream consumes per-interval pickup/return counts aligned with
an exogenous covariate matrix (weather + calendar encodings). This module
turns raw trip and weather files into that shape.

Times travel as numpy ``datetime64[us]`` columns from parse to replay, never
as one ``datetime`` object per row:

* a trip file is read once, in chunks of rows, into a columnar
  :class:`TripTable` (start and end times, start and end stations);
* each selected station's trips become one :class:`EventStream`, a sorted
  time column beside a pickup/return kind column, which feeds the interval
  counts (:func:`aggregate`) and, written with :func:`events_to_csv` as
  ``demand/events_<sid>.csv``, the replay that scores each day's decision,
  so the trip file is never parsed again after ingest;
* the hourly weather is a :class:`WeatherTable` of three columns, from which
  :func:`build_covariates`, the one place that knows their encoding, builds
  the covariates. They are not stored.

Under ``demand/`` ingest also writes each station's counts
(``station_<sid>.csv``) and, once, the weather it parsed (``weather.csv``).

Timestamps are read as :func:`datetime.fromisoformat` reads them, one string
at a time, with surrounding blanks stripped and UTC offsets refused.
A bad row anywhere raises :class:`RowError` with its physical line number,
and with the file's path when the reader was given one.

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
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import date, datetime, time, timedelta
from itertools import compress, repeat
from operator import attrgetter, is_, itemgetter

import numpy as np

from .errors import ConfigError, DataError, FormatError, RowError

# event kinds; pickups sort before returns at equal times
PICKUP, RETURN = 0, 1
KIND_NAMES = ("pickup", "return")

VALID_INTERVALS = (15, 30, 60)

_NAT = np.datetime64("NaT", "us")


@dataclass(eq=False)
class TripTable:
    """Parsed trips as four parallel columns, one entry per kept row.

    ``start_times`` and ``end_times`` are ``datetime64[us]`` arrays;
    ``start_stations`` and ``end_stations`` are string arrays of the stripped
    station ids.
    """

    start_times: np.ndarray
    end_times: np.ndarray
    start_stations: np.ndarray
    end_stations: np.ndarray

    def __len__(self) -> int:
        return len(self.start_times)


@dataclass(eq=False)
class EventStream:
    """Pickup/return events at one station as two columns, in replay order.

    ``times`` is a ``datetime64[us]`` array and ``kinds`` an ``int8`` array of
    :data:`PICKUP` or :data:`RETURN`, one entry per event. The constructor
    sorts both by time, pickups before returns at equal times, so a stream is
    always in the order a replay walks it.
    """

    station: str
    times: np.ndarray
    kinds: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype="datetime64[us]")
        kinds = np.asarray(self.kinds, dtype=np.int8)
        if times.ndim != 1 or times.shape != kinds.shape:
            raise DataError("event times and kinds must be 1-D and equal length")
        if not np.all((kinds == PICKUP) | (kinds == RETURN)):
            raise DataError(f"event kinds must be {PICKUP} (pickup) or {RETURN} (return)")
        order = np.lexsort((kinds, times))
        self.times = times[order]
        self.kinds = kinds[order]

    def slice_day(self, day: date) -> "EventStream":
        """The events of one day, found by binary search in the sorted times."""
        lo = np.datetime64(day, "us")
        first, last = np.searchsorted(self.times, [lo, lo + np.timedelta64(1, "D")])
        return EventStream(station=self.station, times=self.times[first:last],
                           kinds=self.kinds[first:last])


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
WEATHER_COLUMNS = ("timestamp", "temperature_c", "rain_probability")

# rows turned into columns at a time: the row objects of a chunk this size
# stay in cache, and 8 times larger chunks parsed a trip file 20-30% slower
_CHUNK_ROWS = 2048

_KIND_CODES = {name: kind for kind, name in enumerate(KIND_NAMES)}


def _parse_timestamp(raw: str, line_number: int) -> datetime:
    try:
        stamp = datetime.fromisoformat(raw.strip())
    except ValueError:
        raise RowError(line_number, f"unparseable timestamp {raw!r}") from None
    if stamp.tzinfo is not None:
        raise RowError(line_number, f"timestamp {raw!r} carries a UTC offset; "
                                    f"timestamps must be naive local time")
    return stamp


_EPOCH_DAY = date(1970, 1, 1).toordinal()


def _timestamp_or_none(raw: str) -> datetime | None:
    try:
        return _parse_timestamp(raw, 0)
    except RowError:
        return None


def _timestamps(strings) -> np.ndarray:
    """Each string as :func:`_parse_timestamp` reads it, as ``datetime64[us]``; NaT where it refuses.

    The strings go through :func:`datetime.fromisoformat` one at a time; a
    column with a string it refuses, or with a UTC offset, goes through
    :func:`_parse_timestamp` instead. The datetimes become microseconds since
    the epoch from their fields, several times faster than numpy converts
    ``datetime`` objects.
    """
    try:
        stamps = list(map(datetime.fromisoformat, map(str.strip, strings)))
    except ValueError:
        stamps = None
    if stamps is None or any(map(attrgetter("tzinfo"), stamps)):
        stamps = list(map(_timestamp_or_none, strings))
    n = len(stamps)
    refused = np.fromiter(map(is_, stamps, repeat(None)), bool, n)
    if refused.any():
        stamps = [datetime.min if stamp is None else stamp for stamp in stamps]
    micros = np.fromiter(map(datetime.toordinal, stamps), np.int64, n) - _EPOCH_DAY
    for field, scale in (("hour", 24), ("minute", 60), ("second", 60), ("microsecond", 1_000_000)):
        micros = micros * scale + np.fromiter(map(attrgetter(field), stamps), np.int64, n)
    times = micros.view("datetime64[us]")
    times[refused] = _NAT
    return times


def _iso_strings(times: np.ndarray) -> list[str]:
    """Each time spelled as ``datetime.isoformat(sep=" ")``: a fraction only when nonzero."""
    if not len(times):
        return []
    text = np.datetime_as_string(times, unit="us")  # 2018-06-01T07:58:30.143447
    chars = text.view(np.uint32).reshape(len(text), -1)
    chars[:, 10] = ord(" ")
    chars[times == times.astype("datetime64[s]"), 19:] = 0
    return text.tolist()


@contextmanager
def _open_text(source):
    """A text stream over ``source``, closed on exit only if opened here.

    A path is opened and closed, and a :class:`RowError` or
    :class:`FormatError` raised while reading it names the path. A binary
    stream that the caller owns is wrapped, and the wrapper is detached on
    exit, so the caller's stream stays open. Text streams and other
    iterables of lines pass through untouched.
    """
    if isinstance(source, (str, os.PathLike)):
        path = os.fspath(source)
        with open(path, "r", newline="") as fh:
            try:
                yield fh
            except RowError as exc:
                raise RowError(exc.line_number, exc.reason, path) from None
            except FormatError as exc:
                raise FormatError(f"{path}: {exc}") from None
    elif isinstance(source, io.IOBase) and not isinstance(source, io.TextIOBase):
        wrapper = io.TextIOWrapper(source, encoding="utf-8")
        try:
            yield wrapper
        finally:
            wrapper.detach()
    else:
        yield source


def _header_index(reader, what: str, required: tuple[str, ...]) -> tuple[int, ...]:
    """Column index of each required name; the last column of a repeated name wins.

    Blank lines before the header are skipped, as they are between rows.
    """
    header = next(filter(None, reader), None)
    if header is None:
        raise FormatError(f"{what} file is empty (no header row)")
    for col in required:
        if col not in header:
            raise FormatError(f"{what} file is missing required column {col!r}")
    index = {name: i for i, name in enumerate(header)}
    return tuple(index[col] for col in required)


def _column_chunks(stream, what: str, names: tuple[str, ...]):
    """The named columns of a CSV with a header, a chunk of rows at a time.

    Yields one list of strings per name and the rows' physical line numbers.
    ``csv.reader`` splits the rows; blank lines are dropped and short rows
    padded with empty fields, as a row-by-row reader treats them.
    """
    reader = csv.reader(stream)
    columns = _header_index(reader, what, names)
    pick, width = itemgetter(*columns), max(columns) + 1
    rows: list[tuple[str, ...]] = []
    numbers: list[int] = []
    for row in reader:
        if len(row) < width:
            if not row:
                continue
            row += [""] * (width - len(row))
        rows.append(pick(row))
        numbers.append(reader.line_num)
        if len(rows) == _CHUNK_ROWS:
            yield list(map(list, zip(*rows))), numbers
            rows, numbers = [], []
    if rows:
        yield list(map(list, zip(*rows))), numbers


def _string_array(values: list[str]) -> np.ndarray:
    """``values`` as a string array; given the width, numpy skips a slow search for it."""
    width = np.fromiter(map(len, values), np.intp, len(values)).max(initial=1)
    return np.array(values, dtype=f"<U{width}")


def _check_trip(line: int, start_raw: str, end_raw: str, origin: str, dest: str) -> None:
    """The rules of one trip row, in order; raises :class:`RowError` for a bad row."""
    if not origin or not dest:
        raise RowError(line, "empty station id")
    start_time = _parse_timestamp(start_raw, line)
    end_time = _parse_timestamp(end_raw, line)
    if end_time < start_time:
        raise RowError(line, f"trip ends before it starts: {start_time} -> {end_time}")


def parse_trips(source) -> TripTable:
    """Read a trip CSV with the :data:`TRIP_COLUMNS` into a :class:`TripTable`.

    ``source`` may be a path or an open stream. ``csv.reader`` splits the
    rows, so quoted fields, blank lines and short rows read as a row-by-row
    reader reads them. Each chunk of rows becomes columns: each time column
    is parsed in one :func:`_timestamps` call and each station column is
    stripped into one array. Malformed rows are never skipped silently but
    raise :class:`RowError` with the offending line number; the first bad row
    of a chunk is checked again on its own, so the message is the one its
    first broken rule gives.
    """
    with _open_text(source) as stream:
        parts = []
        for (starts, ends, origins, dests), numbers in _column_chunks(
                stream, "trip", TRIP_COLUMNS):
            n = len(starts)
            times = _timestamps(starts + ends)
            start_times, end_times = times[:n], times[n:]
            ids = _string_array(list(map(str.strip, origins + dests)))
            origin_ids, dest_ids = ids[:n], ids[n:]
            bad = ((origin_ids == "") | (dest_ids == "") | np.isnat(start_times)
                   | np.isnat(end_times) | (end_times < start_times))
            if bad.any():
                i = int(np.argmax(bad))
                _check_trip(numbers[i], starts[i], ends[i], origin_ids[i], dest_ids[i])
            parts.append((start_times, end_times, origin_ids, dest_ids))
    if not parts:
        no_times, no_ids = np.empty(0, "datetime64[us]"), np.empty(0, str)
        return TripTable(no_times, no_times, no_ids, no_ids)
    return TripTable(*(np.concatenate(column) for column in zip(*parts)))


def to_event_streams(trips: TripTable, stations: Iterable[str]) -> dict[str, EventStream]:
    """Explode trips into pickup/return event streams for the given stations.

    Each trip contributes a pickup at its start station and a return at its
    end station; a station's events are masked out of the trip columns, and
    events at other stations are never built. Streams come back sorted by
    :class:`EventStream`, keyed by station id in sorted order. A station with
    no events gets no stream.
    """
    streams = {}
    for station in sorted(set(stations)):
        picked = trips.start_stations == station
        returned = trips.end_stations == station
        counts = [np.count_nonzero(picked), np.count_nonzero(returned)]
        if sum(counts):
            streams[station] = EventStream(
                station=station,
                times=np.concatenate((trips.start_times[picked], trips.end_times[returned])),
                kinds=np.repeat(np.array([PICKUP, RETURN], dtype=np.int8), counts))
    return streams


def top_stations(trips: TripTable, n: int = 30) -> list[str]:
    """The ``n`` most active stations by total pickup count, busiest first."""
    stations, counts = np.unique(trips.start_stations, return_counts=True)
    # unique sorts the ids, so a stable sort on the counts breaks ties by id
    return stations[np.argsort(-counts, kind="stable")[:n]].tolist()


def events_to_csv(stream: EventStream) -> str:
    """Serialize a stream as ``time,kind`` rows; the times round-trip exactly."""
    names = np.array(KIND_NAMES)[stream.kinds].tolist()
    return "time,kind\n" + "".join(map("{},{}\n".format, _iso_strings(stream.times), names))


def _kept_lines(stream, header: str, message: str) -> tuple[list[int], list[str]]:
    """Physical line numbers and texts of the rows after a kept CSV's header.

    Lines end in LF or CR LF, and the ends are stripped. Comment lines
    (starting with #) are skipped. A first line other than ``header`` raises
    :class:`FormatError` with ``message``.
    """
    lines = stream.read().split("\n")
    if lines[-1] == "":
        lines.pop()  # the text ends with a line break
    kept = ~np.fromiter(map(str.startswith, lines, repeat("#")), bool, len(lines))
    rows = list(map(str.rstrip, compress(lines, kept.tolist()), repeat("\r")))
    if not rows or rows[0] != header:
        raise FormatError(message)
    return (np.flatnonzero(kept)[1:] + 1).tolist(), rows[1:]


def events_from_csv(source, station: str) -> EventStream:
    """Inverse of :func:`events_to_csv`; comment lines starting with # are skipped.

    An unknown kind raises :class:`FormatError`, and a bad time
    :class:`RowError` with its line number.
    """
    with _open_text(source) as text:
        numbers, lines = _kept_lines(text, "time,kind",
                                     "event CSV must start with a time,kind header")
        fields = list(map(str.partition, lines, repeat(",")))
        stamps, names = list(map(itemgetter(0), fields)), list(map(itemgetter(2), fields))
        kinds = np.fromiter(map(_KIND_CODES.get, names, repeat(-1)), np.int8, len(names))
        times = _timestamps(stamps)
        bad = (kinds < 0) | np.isnat(times)
        if bad.any():
            i = int(np.argmax(bad))
            if kinds[i] < 0:
                raise FormatError(f"unknown event kind {names[i]!r} in event CSV")
            _parse_timestamp(stamps[i], numbers[i])
    return EventStream(station=station, times=times, kinds=kinds)


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

    slot = ((events.times - np.datetime64(start, "us"))
            // np.timedelta64(interval_minutes, "m"))
    inside = (slot >= 0) & (slot < n)
    pickups, returns = (np.bincount(slot[inside & (events.kinds == kind)], minlength=n)
                        for kind in (PICKUP, RETURN))
    return DemandSeries(
        station=events.station,
        interval_minutes=interval_minutes,
        start=start,
        pickups=pickups,
        returns=returns,
    )


def _check_observation(ts: datetime, temperature_c: float, rain_probability: float) -> None:
    """The rules of one weather observation, in order; raises :class:`DataError`."""
    if ts.minute or ts.second or ts.microsecond:
        raise DataError(f"weather timestamps must be on the hour, got {ts}")
    if not 0.0 <= rain_probability <= 1.0:
        raise DataError(f"rain_probability {rain_probability} outside [0, 1] at {ts}")
    if not math.isfinite(temperature_c):
        raise DataError(f"temperature_c {temperature_c} is not finite at {ts}")


def _bad_observations(hours: np.ndarray, temperature_c: np.ndarray,
                      rain_probability: np.ndarray) -> np.ndarray:
    """Where :func:`_check_observation` would refuse, as a mask."""
    return ((hours != hours.astype("datetime64[h]"))
            | ~((rain_probability >= 0.0) & (rain_probability <= 1.0))
            | ~np.isfinite(temperature_c))


@dataclass(eq=False)
class WeatherTable:
    """Hourly weather as three parallel columns, one row per hour, sorted by hour.

    ``hours`` is a ``datetime64[us]`` array of naive local hours;
    ``temperature_c`` and ``rain_probability`` are float arrays. The
    constructor checks every observation (on the hour, rain in [0, 1], a
    finite temperature) and sorts by hour; of repeated hours the last given
    wins.
    """

    hours: np.ndarray
    temperature_c: np.ndarray
    rain_probability: np.ndarray

    def __post_init__(self):
        hours = np.asarray(self.hours, dtype="datetime64[us]")
        temps = np.asarray(self.temperature_c, dtype=float)
        rains = np.asarray(self.rain_probability, dtype=float)
        if hours.ndim != 1 or not hours.shape == temps.shape == rains.shape:
            raise DataError("weather hours, temperatures and rain must be 1-D and equal length")
        bad = _bad_observations(hours, temps, rains)
        if bad.any():
            i = int(np.argmax(bad))
            _check_observation(hours[i].item(), float(temps[i]), float(rains[i]))
        order = np.argsort(hours, kind="stable")
        hours = hours[order]
        last = np.append(hours[1:] != hours[:-1], True)[:len(hours)]
        self.hours = hours[last]
        self.temperature_c = temps[order[last]]
        self.rain_probability = rains[order[last]]


def _weather_table(numbers: list[int], stamps: list[str], temps: list[str],
                   rains: list[str]) -> WeatherTable:
    """The table of parsed weather columns; the first bad row raises :class:`RowError`.

    The bad row is checked again on its own, so the message is the one its
    first broken rule gives.
    """
    hours = _timestamps(stamps)
    try:
        values = [np.fromiter(map(float, col), float, len(col)) for col in (temps, rains)]
    except ValueError:
        values = None
    if values is None or np.isnat(hours).any() or _bad_observations(hours, *values).any():
        for line, stamp, temp, rain in zip(numbers, stamps, temps, rains):
            ts = _parse_timestamp(stamp, line)
            try:
                _check_observation(ts, float(temp), float(rain))
            except ValueError:
                raise RowError(line, "unparseable weather values") from None
            except DataError as exc:
                raise RowError(line, str(exc)) from None
    return WeatherTable(hours, *values)


def parse_weather(source) -> WeatherTable:
    """Read an hourly weather CSV (timestamp, temperature_c, rain_probability).

    Blank lines are skipped. A bad row raises :class:`RowError` with its
    line number.
    """
    with _open_text(source) as stream:
        columns: list[list[str]] = [[], [], []]
        numbers: list[int] = []
        for chunk, chunk_numbers in _column_chunks(stream, "weather", WEATHER_COLUMNS):
            for column, part in zip(columns, chunk):
                column += part
            numbers += chunk_numbers
        return _weather_table(numbers, *columns)


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
    rows = np.arange(max(n_days, 0) * n_slots)
    hours = (np.datetime64(first, "h") + rows * interval_minutes // 60).astype("datetime64[us]")
    # the latest observation at or before each interval's hour
    observed = np.searchsorted(weather.hours, hours, side="right") - 1
    if len(rows) and (observed[0] < 0 or weather.hours[observed[0]] != hours[0]):
        raise DataError(f"no weather observation at or before {hours[0].item()}")

    values = np.zeros((len(rows), len(columns)))
    values[:, 0] = weather.temperature_c[observed]
    values[:, 1] = weather.rain_probability[observed]
    values[rows, 2 + (first.weekday() + rows // n_slots) % 7] = 1.0
    values[rows, 9 + rows % n_slots] = 1.0
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
    starts = (np.datetime64(series.start, "us")
              + np.arange(len(series)) * np.timedelta64(series.interval_minutes, "m"))
    return "interval_start,pickups,returns\n" + "".join(map(
        "{},{},{}\n".format, _iso_strings(starts), series.pickups.tolist(),
        series.returns.tolist()))


def _check_demand_rows(numbers: list[int], lines: list[str], interval_minutes: int) -> None:
    """The rules of each demand row, row by row; raises :class:`RowError` at the first bad one."""
    step = timedelta(minutes=interval_minutes)
    start = None
    for i, (n, line) in enumerate(zip(numbers, lines)):
        fields = line.split(",")
        if len(fields) != 3:
            raise RowError(n, f"expected interval_start,pickups,returns, got {line!r}")
        stamp = _parse_timestamp(fields[0], n)
        try:
            int(fields[1]), int(fields[2])
        except ValueError:
            raise RowError(n, f"unparseable counts in {line!r}") from None
        if start is None:
            start = stamp
        if stamp != start + i * step:
            raise RowError(n, f"interval_start {stamp} out of sequence: expected "
                              f"{start + i * step}, {interval_minutes} minutes per row")


def demand_from_csv(source, station: str, interval_minutes: int) -> DemandSeries:
    """Inverse of :func:`demand_to_csv`; comment lines starting with # are skipped.

    Row i must start ``i`` intervals after the first row, so a row out of
    order, repeated or missing is an error. A short, blank, unparseable or
    out-of-sequence row raises :class:`RowError` with its line number.
    """
    with _open_text(source) as text:
        numbers, lines = _kept_lines(
            text, "interval_start,pickups,returns",
            "demand CSV must start with an interval_start,pickups,returns header")
        if not lines:
            raise FormatError("demand CSV has no data rows")
        rows = list(map(str.split, lines, repeat(",")))
        counts = None
        if all(len(row) == 3 for row in rows):
            stamps, pickups, returns = (list(map(itemgetter(i), rows)) for i in range(3))
            starts = _timestamps(stamps)
            try:
                counts = [np.fromiter(map(int, col), np.int64, len(col))
                          for col in (pickups, returns)]
            except ValueError:
                pass
        step = np.timedelta64(interval_minutes, "m")
        if counts is None or not np.array_equal(
                starts, starts[0] + np.arange(len(starts)) * step):
            _check_demand_rows(numbers, lines, interval_minutes)
    return DemandSeries(
        station=station,
        interval_minutes=interval_minutes,
        start=starts[0].item(),
        pickups=counts[0],
        returns=counts[1],
    )


def weather_to_csv(weather: WeatherTable) -> str:
    """Serialize for :func:`parse_weather`; ``repr`` values parse back to the same floats."""
    return "timestamp,temperature_c,rain_probability\n" + "".join(map(
        "{},{!r},{!r}\n".format, _iso_strings(weather.hours), weather.temperature_c.tolist(),
        weather.rain_probability.tolist()))

