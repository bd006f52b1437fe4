"""Trip ingestion: parsing, event streams, interval counts, covariates, splits.

Everything downstream consumes per-interval pickup/return counts aligned with
an exogenous covariate array (weather + calendar encodings). This module
turns raw trip and weather files into that shape.

Times travel as numpy ``datetime64[us]`` columns from parse to replay, never
as one ``datetime`` object per row:

* a trip file is read once, in chunks of rows, into a columnar
  :class:`TripTable` (start and end times, start and end stations); ingest
  reads a large one in byte ranges, one :func:`parse_trips` call per range
  over the lanes of its worker processes, and concatenates the tables;
* each selected station's trips become one :class:`EventStream`, a sorted
  time column beside a pickup/return kind column, which feeds the interval
  counts (:func:`aggregate`). Cut to the days of the test split and written
  with :func:`events_to_csv` as ``demand/events_<sid>.csv``, it is the replay
  that scores each test day's decision, so the trip file is never parsed
  again after ingest;
* the hourly weather is a :class:`WeatherTable` of three columns, from which
  :func:`build_covariates`, the one place that knows their encoding, builds
  the covariates: one array per run, shared by every station's series and
  never copied. They are not stored.

Under ``demand/`` ingest also writes each station's counts
(``station_<sid>.csv``) and, once, the weather it parsed (``weather.csv``).

Every CSV the package reads, input or kept, goes through one row reader,
:func:`_column_chunks`. Timestamps are read as :func:`datetime.fromisoformat`
reads them, with surrounding blanks stripped and UTC offsets refused; numbers
by one converter, :func:`_converted`, which refuses digit-group underscores
and digits beyond ASCII.

Each row rule is stated once: a reader builds its columns, then hands
:func:`_check_rows` one mask per rule, with the words of its fault, in the
order a row is checked. The first bad row raises :class:`RowError`, worded by
the first rule it breaks, with its physical line number and, when the reader
was given one, the file's path.

Conventions fixed here and relied on elsewhere:

* interval boundaries are left-closed, right-open;
* simultaneous events order pickups before returns;
* a day starts at local midnight (the overnight rebalancing epoch);
* weather gaps are forward-filled, never back-filled.
"""

from __future__ import annotations

import csv
import os
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import date, datetime, time, timedelta
from itertools import accumulate, compress, islice, repeat
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

    def slice_day(self, day: date, n_days: int = 1) -> "EventStream":
        """The events of ``n_days`` days from ``day``, found by binary search in
        the sorted times."""
        lo = np.datetime64(day, "us")
        first, last = np.searchsorted(self.times, [lo, lo + np.timedelta64(n_days, "D")])
        return EventStream(station=self.station, times=self.times[first:last],
                           kinds=self.kinds[first:last])


@dataclass
class DemandSeries:
    """Aligned per-interval pickup counts, return counts and covariates.

    ``covariates`` is the array of :func:`build_covariates`, which every
    station of a run shares. :meth:`rows`, :meth:`day` and :func:`split`
    return views of the counts and the covariates; they copy no array.
    """

    station: str
    interval_minutes: int
    start: datetime
    pickups: np.ndarray
    returns: np.ndarray
    covariates: np.ndarray | None = None

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
        return DemandSeries(
            station=self.station,
            interval_minutes=self.interval_minutes,
            start=self.start + timedelta(minutes=lo * self.interval_minutes),
            pickups=self.pickups[lo:hi],
            returns=self.returns[lo:hi],
            covariates=None if self.covariates is None else self.covariates[lo:hi],
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
STATION_COLUMNS = ("station_id", "capacity")
# the kept demand and event files; their headers must be exactly these
DEMAND_COLUMNS = ("interval_start", "pickups", "returns")
EVENT_COLUMNS = ("time", "kind")

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
    :class:`FormatError` raised while reading it names the path. Text streams
    and other iterables of lines pass through untouched.
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
    else:
        yield source


def _column_chunks(stream, what: str, names: tuple[str, ...], exact: bool = False):
    """The named columns of a CSV with a header, a chunk of rows at a time:
    the one reader of every CSV the package reads.

    Yields one list of strings per name and the rows' physical line numbers,
    :data:`_CHUNK_ROWS` rows of ``csv.reader`` at a time. The header is found
    by name, the last of a repeated name winning; with ``exact`` it must be
    ``names`` and nothing else. Blank lines are skipped, short rows padded
    with empty fields, and fields beyond the named columns are not read.

    A row's number is the line it ends on, counted from ``reader.line_num``
    at the chunk's two ends. Only a chunk spanning more lines than rows, as
    when a quoted field holds a line break, counts the LF, CR LF and lone CR
    line ends (those of ``open(newline="")``) inside each row's fields.
    """
    reader = csv.reader(stream)
    header = next(filter(None, reader), None)
    if header is None:
        raise FormatError(f"{what} file is empty (no header row)")
    for col in names:
        if col not in header:
            raise FormatError(f"{what} file is missing required column {col!r}")
    if exact and header != list(names):
        raise FormatError(f"{what} file has the columns {','.join(header)}, "
                          f"not {','.join(names)}")
    index = {name: i for i, name in enumerate(header)}
    columns = [index[col] for col in names]
    width = max(columns) + 1
    end = reader.line_num
    while rows := list(islice(reader, _CHUNK_ROWS)):
        start, end = end, reader.line_num
        numbers = range(start + 1, end + 1)
        if len(numbers) > len(rows):
            breaks = (sum(f.count("\n") + f.count("\r") - f.count("\r\n") for f in row)
                      for row in rows)
            numbers = list(accumulate(breaks, lambda n, b: n + b + 1, initial=start))[1:]
        try:
            picked = [list(map(itemgetter(i), rows)) for i in columns]
        except IndexError:  # a short row, or a blank line, which reads as an empty row
            kept = list(map(bool, rows))
            numbers = compress(numbers, kept)
            rows = [row + [""] * (width - len(row)) for row in compress(rows, kept)]
            if not rows:
                continue
            picked = [list(map(itemgetter(i), rows)) for i in columns]
        yield picked, list(numbers)


def _columns(stream, what: str, names: tuple[str, ...],
             exact: bool = False) -> tuple[list[int], list[list[str]]]:
    """The line numbers and the named columns of every row of
    :func:`_column_chunks`, whose header, with ``exact``, must be ``names``.
    Every line is read as a CSV line: one that begins with ``#`` is a row."""
    numbers: list[int] = []
    columns: list[list[str]] = [[] for _ in names]
    for chunk, chunk_numbers in _column_chunks(stream, what, names, exact):
        numbers += chunk_numbers
        for column, part in zip(columns, chunk):
            column += part
    return numbers, columns


def _string_array(values: list[str]) -> np.ndarray:
    """``values`` as a string array; given the width, numpy skips a slow search for it."""
    width = np.fromiter(map(len, values), np.intp, len(values)).max(initial=1)
    return np.array(values, dtype=f"<U{width}")


def _check_rows(numbers, rules) -> None:
    """Raise :class:`RowError` at the first row that any rule flags, worded by
    the first rule that flags that row.

    ``rules`` are ``(mask, message)`` pairs in the order a row is checked: the
    mask flags the rows that break the rule, and ``message(i)`` words the
    fault of row i, or raises the error itself, as :func:`_parse_timestamp`
    does. Row i is on line ``numbers[i]``; with ``numbers`` None, as for a
    table built in code, the error is a :class:`DataError` without a line.
    """
    bad = np.logical_or.reduce([mask for mask, _ in rules])
    if bad.any():
        i = int(np.argmax(bad))
        reason = next(message(i) for mask, message in rules if mask[i])
        raise DataError(reason) if numbers is None else RowError(numbers[i], reason)


def _time_rule(raws: list[str], times: np.ndarray, numbers: list[int]):
    """The rule that each field of a time column parsed (:func:`_timestamps`)."""
    return np.isnat(times), lambda i: _parse_timestamp(raws[i], numbers[i])


def _converted(name: str, column: list[str], kind):
    """``column`` converted by ``kind`` into an array (of objects unless
    ``kind`` is int or float), and the rule that each field converted, worded
    ``unparseable <name> '<field>'``.

    A column that converts whole takes one ``np.fromiter`` pass; only one
    that does not goes field by field, a refused field reading as zero. A
    field with a digit-group underscore or a character beyond ASCII is
    refused, though ``int("2_0")`` and ``int("٢٠")`` are 20, and so is an
    integer beyond ``int64``. Blanks around a number are accepted, as they
    are around ids and timestamps, which are stripped.
    """
    n = len(column)
    dtype = kind if kind in (int, float) else object
    refused = np.zeros(n, bool)
    rule = refused, lambda i: f"unparseable {name} {column[i]!r}"
    joined = "".join(column)
    if "_" not in joined and joined.isascii():
        try:
            return np.fromiter(map(kind, column), dtype, n), rule
        except (ValueError, OverflowError):
            pass
    values = np.zeros(n, dtype)
    for i, field in enumerate(column):
        try:
            values[i] = kind(field)
            refused[i] = "_" in field or not field.isascii()
        except (ValueError, OverflowError):
            refused[i] = True
    return values, rule


def parse_trips(source) -> TripTable:
    """Read a trip CSV with the :data:`TRIP_COLUMNS` into a :class:`TripTable`.

    ``source`` may be a path or an open stream. In each chunk of
    :func:`_column_chunks`, each time column is parsed in one
    :func:`_timestamps` call and each station column is stripped into one
    array. Malformed rows are never skipped silently: the first bad row
    raises :class:`RowError` with its line number, worded by the first rule
    it breaks (:func:`_check_rows`): a station id is empty, the start or the
    end time does not parse, the trip ends before it starts.
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
            _check_rows(numbers, [
                ((origin_ids == "") | (dest_ids == ""), lambda i: "empty station id"),
                _time_rule(starts, start_times, numbers),
                _time_rule(ends, end_times, numbers),
                (end_times < start_times,
                 lambda i: f"trip ends before it starts: {start_times[i].item()} -> "
                           f"{end_times[i].item()}"),
            ])
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
    """Serialize a stream as :data:`EVENT_COLUMNS` rows; the times round-trip exactly."""
    names = np.array(KIND_NAMES)[stream.kinds].tolist()
    return ",".join(EVENT_COLUMNS) + "\n" + "".join(map(
        "{},{}\n".format, _iso_strings(stream.times), names))


def events_from_csv(source, station: str) -> EventStream:
    """Inverse of :func:`events_to_csv`: the rows of ``source`` under exactly
    the :data:`EVENT_COLUMNS` header. ``source`` is a path, a stream or the
    lines that :func:`.artifacts.read` hands over, its config line blanked.

    The first bad row raises :class:`RowError` with its line number, worded by
    the first rule it breaks: an unknown kind, then a bad time.
    """
    with _open_text(source) as stream:
        numbers, (stamps, names) = _columns(stream, "event", EVENT_COLUMNS, exact=True)
        kinds = np.fromiter(map(_KIND_CODES.get, names, repeat(-1)), np.int8, len(names))
        times = _timestamps(stamps)
        _check_rows(numbers, [(kinds < 0, lambda i: f"unknown event kind {names[i]!r}"),
                              _time_rule(stamps, times, numbers)])
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


def _observation_rules(hours: np.ndarray, temperature_c: np.ndarray,
                       rain_probability: np.ndarray):
    """The rules of each weather observation, in order, for :func:`_check_rows`."""
    return [
        (hours != hours.astype("datetime64[h]"),
         lambda i: f"weather timestamps must be on the hour, got {hours[i].item()}"),
        (~((rain_probability >= 0.0) & (rain_probability <= 1.0)),
         lambda i: f"rain_probability {rain_probability[i]} outside [0, 1] at {hours[i].item()}"),
        (~np.isfinite(temperature_c),
         lambda i: f"temperature_c {temperature_c[i]} is not finite at {hours[i].item()}"),
    ]


@dataclass(eq=False)
class WeatherTable:
    """Hourly weather as three parallel columns, one row per hour, sorted by hour.

    ``hours`` is a ``datetime64[us]`` array of naive local hours;
    ``temperature_c`` and ``rain_probability`` are float arrays. The
    constructor checks every observation by the rules that
    :func:`parse_weather` checks too (on the hour, rain in [0, 1], a finite
    temperature), raising :class:`DataError` for the first bad one, and sorts
    by hour; of repeated hours the last given wins.
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
        _check_rows(None, _observation_rules(hours, temps, rains))
        order = np.argsort(hours, kind="stable")
        hours = hours[order]
        last = np.append(hours[1:] != hours[:-1], True)[:len(hours)]
        self.hours = hours[last]
        self.temperature_c = temps[order[last]]
        self.rain_probability = rains[order[last]]


def parse_weather(source) -> WeatherTable:
    """Read an hourly weather CSV (timestamp, temperature_c, rain_probability).

    The first bad row raises :class:`RowError` with its line number, worded by
    the first rule it breaks: the timestamp, then each value, does not
    parse; then the observation rules of :class:`WeatherTable`.
    """
    with _open_text(source) as stream:
        numbers, (stamps, temps, rains) = _columns(stream, "weather", WEATHER_COLUMNS)
        hours = _timestamps(stamps)
        temperature_c, temp_rule = _converted("temperature_c", temps, float)
        rain_probability, rain_rule = _converted("rain_probability", rains, float)
        _check_rows(numbers, [_time_rule(stamps, hours, numbers), temp_rule, rain_rule,
                              *_observation_rules(hours, temperature_c, rain_probability)])
    return WeatherTable(hours, temperature_c, rain_probability)


def parse_stations(source) -> dict[str, int]:
    """Read station metadata with the :data:`STATION_COLUMNS` into ``{id: capacity}``.

    The first bad row raises :class:`RowError` with its line number, worded by
    the first rule it breaks: the id is empty, the capacity does not parse or
    is not positive, the station is listed on an earlier row.
    """
    with _open_text(source) as stream:
        numbers, (sids, caps) = _columns(stream, "station", STATION_COLUMNS)
        ids = _string_array(list(map(str.strip, sids)))
        capacities, cap_rule = _converted("capacity", caps, int)
        _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
        _check_rows(numbers, [
            (ids == "", lambda i: "empty station id"),
            cap_rule,
            (capacities <= 0, lambda i: f"capacity must be positive, got {capacities[i]}"),
            (first[inverse] != np.arange(len(ids)), lambda i: f"station {ids[i]} is listed twice"),
        ])
    return dict(zip(ids.tolist(), capacities.tolist()))


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
) -> np.ndarray:
    """Expand hourly weather plus calendar one-hots to the interval grid: one
    float row per interval, in the column order of :func:`covariate_columns`.

    Sub-hourly intervals replicate their hour's measurement. Missing hours are
    forward-filled from the most recent observation; a gap at the very start
    of the range has nothing to fill from and raises :class:`DataError`.
    """
    if interval_minutes not in VALID_INTERVALS:
        raise ConfigError(f"interval must be one of {VALID_INTERVALS}, got {interval_minutes}")
    first, last = day_range
    n_days = (last - first).days + 1
    n_slots = 1440 // interval_minutes
    rows = np.arange(max(n_days, 0) * n_slots)
    hours = (np.datetime64(first, "h") + rows * interval_minutes // 60).astype("datetime64[us]")
    # the latest observation at or before each interval's hour
    observed = np.searchsorted(weather.hours, hours, side="right") - 1
    if len(rows) and (observed[0] < 0 or weather.hours[observed[0]] != hours[0]):
        raise DataError(f"no weather observation at or before {hours[0].item()}")

    values = np.zeros((len(rows), 9 + n_slots))
    values[:, 0] = weather.temperature_c[observed]
    values[:, 1] = weather.rain_probability[observed]
    values[rows, 2 + (first.weekday() + rows // n_slots) % 7] = 1.0
    values[rows, 9 + rows % n_slots] = 1.0
    return values


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
    """Serialize the counts as :data:`DEMAND_COLUMNS` rows, no covariates."""
    starts = (np.datetime64(series.start, "us")
              + np.arange(len(series)) * np.timedelta64(series.interval_minutes, "m"))
    return ",".join(DEMAND_COLUMNS) + "\n" + "".join(map(
        "{},{},{}\n".format, _iso_strings(starts), series.pickups.tolist(),
        series.returns.tolist()))


def demand_from_csv(source, station: str, interval_minutes: int) -> DemandSeries:
    """Inverse of :func:`demand_to_csv`: the rows of ``source`` under exactly
    the :data:`DEMAND_COLUMNS` header. ``source`` is a path, a stream or the
    lines that :func:`.artifacts.read` hands over, its config line blanked.

    The first bad row raises :class:`RowError` with its line number, worded by
    the first rule it breaks: its start does not parse, a count does not
    parse, a count is negative, or row i does not start ``i`` intervals after
    the first row, as when a row is out of order, repeated or missing. A short
    row reads empty counts, which do not parse.
    """
    with _open_text(source) as stream:
        numbers, (stamps, pickups, returns) = _columns(stream, "demand", DEMAND_COLUMNS, exact=True)
        if not numbers:
            raise FormatError("demand file has no data rows")
        starts = _timestamps(stamps)
        pickups, pickup_rule = _converted("pickups", pickups, int)
        returns, return_rule = _converted("returns", returns, int)
        expected = starts[0] + np.arange(len(starts)) * np.timedelta64(interval_minutes, "m")
        _check_rows(numbers, [
            _time_rule(stamps, starts, numbers), pickup_rule, return_rule,
            (pickups < 0, lambda i: f"pickups must be non-negative, got {pickups[i]}"),
            (returns < 0, lambda i: f"returns must be non-negative, got {returns[i]}"),
            (starts != expected, lambda i: f"interval_start {starts[i].item()} out of sequence: "
                                           f"expected {expected[i].item()}, "
                                           f"{interval_minutes} minutes per row"),
        ])
    return DemandSeries(
        station=station,
        interval_minutes=interval_minutes,
        start=starts[0].item(),
        pickups=pickups,
        returns=returns,
    )


def weather_to_csv(weather: WeatherTable) -> str:
    """Serialize for :func:`parse_weather`; ``repr`` values parse back to the same floats."""
    return ",".join(WEATHER_COLUMNS) + "\n" + "".join(map(
        "{},{!r},{!r}\n".format, _iso_strings(weather.hours), weather.temperature_c.tolist(),
        weather.rain_probability.tolist()))

