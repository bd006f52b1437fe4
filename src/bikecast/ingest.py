"""Trip ingestion: parsing, event streams, interval counts, covariates, splits.

Everything downstream consumes a station's :class:`DemandSeries`: its
pickup and return counts as one (days, slots, 2) array, the shape of a
forecast, aligned with a (days, slots, width) covariate array (weather +
calendar encodings). This class alone knows that layout. This module turns
raw trip and weather files into that shape.

Times travel as numpy ``datetime64[us]`` columns from parse to replay, never
as one ``datetime`` object per row:

* a trip file is read once, in chunks of rows, into a columnar
  :class:`TripTable` (start and end times, start and end stations); ingest
  reads a large one in byte ranges, one :func:`parse_trips` call per range
  over the lanes of its worker processes, and concatenates the tables;
* each selected station's trips become one :class:`EventStream`, a sorted
  time column beside a pickup/return kind column, which feeds the interval
  counts (:func:`aggregate`, one ``bincount`` of ``2 * slot + kind``). Cut
  to the days of the test split and written with :func:`events_to_csv` as
  ``demand/events_<sid>.csv``, it is the replay that scores each test day's
  decision, so the trip file is never parsed again after ingest;
* the hourly weather is a :class:`WeatherTable` of three columns, from which
  :func:`build_covariates`, the one place that knows their encoding, builds
  the covariates: one array per run, shared by every station's series and
  never copied. They are not stored.

Under ``demand/`` ingest also writes each station's counts
(``station_<sid>.csv``) and, once, the weather it parsed (``weather.csv``).

A parser reads lines or a stream, never a path. :func:`read_input` opens the
three input files (trips, weather, stations) as UTF-8, and
:func:`.artifacts.read` the kept ones; each names its file in the errors the
parser raises.

Every CSV the package reads, input or kept, goes through one row reader,
:func:`_column_chunks`, and each of its columns through one converter,
:func:`_converted`, by the kind its parser names: :func:`_table` reads a whole
file so. Timestamps are read as :func:`datetime.fromisoformat` reads them,
with surrounding blanks stripped and UTC offsets refused; numbers refuse
digit-group underscores and digits beyond ASCII.

Each row rule is stated once: a reader builds its columns, then hands
:func:`_check_rows` one mask per rule, with the words of its fault, in the
order a row is checked. The first bad row raises :class:`RowError`, worded by
the first rule it breaks, with its physical line number and, once its opener
adds it, the file's path.

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
from dataclasses import dataclass
from datetime import date, datetime, timedelta
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
    """A station's counts per day, interval and event kind, with covariates.

    ``counts`` is one ``(days, slots, 2)`` int64 array, the shape of a
    forecast: its last axis holds pickups then returns, indexed by the kind
    codes :data:`PICKUP` and :data:`RETURN`. Day 0 is ``first_day`` and slot 0
    starts at its local midnight. ``covariates`` is the ``(days, slots,
    width)`` array of :func:`build_covariates`, which every station of a run
    shares. :meth:`days` and :func:`split` return views of both; they copy no
    array.
    """

    station: str
    interval_minutes: int
    first_day: date
    counts: np.ndarray
    covariates: np.ndarray | None = None

    def __post_init__(self):
        if self.interval_minutes not in VALID_INTERVALS:
            raise ConfigError(f"interval must be one of {VALID_INTERVALS}, got {self.interval_minutes}")
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.shape[1:] != (self.intervals_per_day, 2):
            raise DataError(f"counts must be (days, {self.intervals_per_day}, 2), "
                            f"got {self.counts.shape}")
        if np.any(self.counts < 0):
            raise DataError("counts must be non-negative")
        if self.covariates is not None and self.covariates.shape[:2] != self.counts.shape[:2]:
            raise DataError("covariate rows do not match the number of intervals")

    @property
    def intervals_per_day(self) -> int:
        return 1440 // self.interval_minutes

    @property
    def n_days(self) -> int:
        return len(self.counts)

    @property
    def pickups(self) -> np.ndarray:
        """The pickup count of every interval, in time order, as a new flat array."""
        return self.counts[..., PICKUP].ravel()

    @property
    def returns(self) -> np.ndarray:
        """The return count of every interval, in time order, as a new flat array."""
        return self.counts[..., RETURN].ravel()

    def days(self, lo: int, hi: int) -> "DemandSeries":
        """Days ``lo`` to ``hi - 1`` of the series."""
        return DemandSeries(
            station=self.station,
            interval_minutes=self.interval_minutes,
            first_day=self.first_day + timedelta(days=lo),
            counts=self.counts[lo:hi],
            covariates=None if self.covariates is None else self.covariates[lo:hi],
        )


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


def read_input(path: str, parse):
    """``parse(stream)`` of the input file at ``path``, opened as UTF-8 text.

    A missing file raises :class:`DataError`. A :class:`RowError` or
    :class:`FormatError` that ``parse`` raises names the file, and so does the
    :class:`RowError` of a byte that is not UTF-8, at the line of the first
    such byte, counting LF, CR LF and lone CR line ends as the parsers do.
    """
    if not os.path.exists(path):
        raise DataError(f"input file not found: {path}")
    with open(path, newline="", encoding="utf-8") as stream:
        try:
            return parse(stream)
        except RowError as exc:
            raise RowError(exc.line_number, exc.reason, path) from None
        except FormatError as exc:
            raise FormatError(f"{path}: {exc}") from None
        except UnicodeDecodeError:
            with open(path, "rb") as fh:
                head = fh.read()
            try:
                head.decode("utf-8")
            except UnicodeDecodeError as exc:
                head = head[:exc.start]
            line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
            raise RowError(line, "not UTF-8 text", path) from None


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


def _table(lines, what: str, names: tuple[str, ...], kinds: tuple, exact: bool = False):
    """The line numbers of every row of :func:`_column_chunks` (whose header,
    with ``exact``, must be ``names``), the named columns, column i converted by
    ``kinds[i]`` (:func:`_converted`), and the rule of each column, in order.
    Every line is read as a CSV line: one that begins with ``#`` is a row."""
    numbers: list[int] = []
    columns: list[list[str]] = [[] for _ in names]
    for chunk, chunk_numbers in _column_chunks(lines, what, names, exact):
        numbers += chunk_numbers
        for column, part in zip(columns, chunk):
            column += part
    values, rules = zip(*map(_converted, names, columns, kinds, repeat(numbers)))
    return numbers, values, rules


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


def _converted(name: str, column: list[str], kind, numbers: list[int]):
    """``column``, whose rows are on the lines ``numbers``, converted by
    ``kind``, and the rule that each field converted.

    A ``str`` column is kept as the list read, and its rule flags no field. A
    ``datetime`` column is read by :func:`_timestamps`, its rule worded by
    :func:`_parse_timestamp`. Any other ``kind`` converts field by field into
    an array (of objects unless ``kind`` is int or float), its rule worded
    ``unparseable <name> '<field>'``.

    A column that converts whole takes one ``np.fromiter`` pass; only one
    that does not goes field by field, a refused field reading as zero. A
    field with a digit-group underscore or a character beyond ASCII is
    refused, though ``int("2_0")`` and ``int("٢٠")`` are 20, and so is an
    integer beyond ``int64``. Blanks around a number are accepted, as they
    are around ids and timestamps, which are stripped.
    """
    n = len(column)
    if kind is str:
        return column, (np.zeros(n, bool), None)
    if kind is datetime:
        times = _timestamps(column)
        return times, (np.isnat(times), lambda i: _parse_timestamp(column[i], numbers[i]))
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


def parse_trips(stream) -> TripTable:
    """Read the lines of a trip CSV with the :data:`TRIP_COLUMNS` into a
    :class:`TripTable`.

    In each chunk of :func:`_column_chunks`, each time column is converted in
    one :func:`_converted` call and the station columns are stripped into one
    array. Malformed rows are never skipped silently: the first bad row
    raises :class:`RowError` with its line number, worded by the first rule
    it breaks (:func:`_check_rows`): a station id is empty, the start or the
    end time does not parse, the trip ends before it starts.
    """
    parts = []
    for (starts, ends, origins, dests), numbers in _column_chunks(stream, "trip", TRIP_COLUMNS):
        start_times, start_rule = _converted(TRIP_COLUMNS[0], starts, datetime, numbers)
        end_times, end_rule = _converted(TRIP_COLUMNS[1], ends, datetime, numbers)
        n = len(starts)
        ids = _string_array(list(map(str.strip, origins + dests)))
        origin_ids, dest_ids = ids[:n], ids[n:]
        _check_rows(numbers, [
            ((origin_ids == "") | (dest_ids == ""), lambda i: "empty station id"),
            start_rule,
            end_rule,
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


def events_from_csv(lines, station: str) -> EventStream:
    """Inverse of :func:`events_to_csv`: the rows of ``lines`` (a stream, or
    the lines that :func:`.artifacts.read` hands over, its config line
    blanked) under exactly the :data:`EVENT_COLUMNS` header.

    The first bad row raises :class:`RowError` with its line number, worded by
    the first rule it breaks: an unknown kind, then a bad time.
    """
    numbers, (times, names), (time_rule, _) = _table(lines, "event", EVENT_COLUMNS,
                                                     (datetime, str), exact=True)
    kinds = np.fromiter(map(_KIND_CODES.get, names, repeat(-1)), np.int8, len(names))
    _check_rows(numbers, [(kinds < 0, lambda i: f"unknown event kind {names[i]!r}"), time_rule])
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
    shape = ((last - first).days + 1, 1440 // interval_minutes, 2)
    n = shape[0] * shape[1]
    slot = (events.times - np.datetime64(first, "us")) // np.timedelta64(interval_minutes, "m")
    inside = (slot >= 0) & (slot < n)
    counts = np.bincount(2 * slot[inside] + events.kinds[inside], minlength=2 * n)
    return DemandSeries(events.station, interval_minutes, first, counts.reshape(shape))


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


def parse_weather(lines) -> WeatherTable:
    """Read the lines of an hourly weather CSV with the :data:`WEATHER_COLUMNS`.

    The first bad row raises :class:`RowError` with its line number, worded by
    the first rule it breaks: the timestamp, then each value, does not
    parse; then the observation rules of :class:`WeatherTable`.
    """
    numbers, (hours, temperature_c, rain_probability), rules = _table(
        lines, "weather", WEATHER_COLUMNS, (datetime, float, float))
    _check_rows(numbers, [*rules, *_observation_rules(hours, temperature_c, rain_probability)])
    return WeatherTable(hours, temperature_c, rain_probability)


def parse_stations(lines) -> dict[str, int]:
    """Read the lines of a station CSV with the :data:`STATION_COLUMNS` into
    ``{id: capacity}``.

    The first bad row raises :class:`RowError` with its line number, worded by
    the first rule it breaks: the id is empty, the capacity does not parse or
    is not positive, the station is listed on an earlier row.
    """
    numbers, (sids, capacities), (_, capacity_rule) = _table(lines, "station", STATION_COLUMNS,
                                                             (str, int))
    ids = _string_array(list(map(str.strip, sids)))
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    _check_rows(numbers, [
        (ids == "", lambda i: "empty station id"),
        capacity_rule,
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


def check_weather_covers(weather: WeatherTable, day_range: tuple[date, date]) -> None:
    """Raise :class:`DataError` unless ``weather`` holds an observation at the
    first hour of ``day_range``, or the range is empty: forward filling has
    nothing to fill that hour from."""
    first, last = day_range
    hour = np.datetime64(first, "us")
    if first <= last and hour not in weather.hours:
        raise DataError(f"no weather observation at or before {hour.item()}")


def build_covariates(
    weather: WeatherTable,
    day_range: tuple[date, date],
    interval_minutes: int,
) -> np.ndarray:
    """Expand hourly weather plus calendar one-hots to the interval grid: a
    (days, slots, width) float array, each interval's row in the column order
    of :func:`covariate_columns`.

    Sub-hourly intervals replicate their hour's measurement. Missing hours are
    forward-filled from the most recent observation; a gap at the very start
    of the range has nothing to fill from (:func:`check_weather_covers`).
    """
    if interval_minutes not in VALID_INTERVALS:
        raise ConfigError(f"interval must be one of {VALID_INTERVALS}, got {interval_minutes}")
    check_weather_covers(weather, day_range)
    first, last = day_range
    n_days = (last - first).days + 1
    n_slots = 1440 // interval_minutes
    rows = np.arange(max(n_days, 0) * n_slots)
    hours = (np.datetime64(first, "h") + rows * interval_minutes // 60).astype("datetime64[us]")
    # the latest observation at or before each interval's hour
    observed = np.searchsorted(weather.hours, hours, side="right") - 1

    values = np.zeros((len(rows), 9 + n_slots))
    values[:, 0] = weather.temperature_c[observed]
    values[:, 1] = weather.rain_probability[observed]
    values[rows, 2 + (first.weekday() + rows // n_slots) % 7] = 1.0
    values[rows, 9 + rows % n_slots] = 1.0
    return values.reshape(-1, n_slots, values.shape[1])


def _add_months(d: date, months: int) -> date:
    month_index = d.month - 1 + months
    year = d.year + month_index // 12
    return date(year, month_index % 12 + 1, d.day)


def split(series: DemandSeries) -> DataSplit:
    """Chronological 9/1/2-month split of a series spanning 12 whole months."""
    first = series.first_day
    if first.day != 1:
        raise ConfigError("split requires the series to start on the first of a month")
    end_date = _add_months(first, 12)
    expected_days = (end_date - first).days
    if series.n_days != expected_days:
        raise ConfigError(
            f"split requires exactly 12 calendar months ({expected_days} days), "
            f"got {series.n_days} days"
        )
    train_end = (_add_months(first, 9) - first).days
    val_end = (_add_months(first, 10) - first).days
    return DataSplit(
        train=series.days(0, train_end),
        validation=series.days(train_end, val_end),
        test=series.days(val_end, series.n_days),
    )


def demand_to_csv(series: DemandSeries) -> str:
    """Serialize the counts as :data:`DEMAND_COLUMNS` rows, no covariates."""
    counts = series.counts.reshape(-1, 2)
    starts = (np.datetime64(series.first_day, "us")
              + np.arange(len(counts)) * np.timedelta64(series.interval_minutes, "m"))
    return ",".join(DEMAND_COLUMNS) + "\n" + "".join(map(
        "{},{},{}\n".format, _iso_strings(starts), *counts.T.tolist()))


def demand_from_csv(lines, station: str, interval_minutes: int) -> DemandSeries:
    """Inverse of :func:`demand_to_csv`: the rows of ``lines`` (a stream, or
    the lines that :func:`.artifacts.read` hands over, its config line
    blanked) under exactly the :data:`DEMAND_COLUMNS` header.

    The first bad row raises :class:`RowError` with its line number, worded by
    the first rule it breaks: its start does not parse, a count does not
    parse, a count is negative, or row i does not start ``i`` intervals after
    the first row, as when a row is out of order, repeated or missing. A short
    row reads empty counts, which do not parse. Rows that do not tile whole
    days, or do not start at local midnight, raise :class:`DataError`.
    """
    numbers, (starts, pickups, returns), rules = _table(lines, "demand", DEMAND_COLUMNS,
                                                        (datetime, int, int), exact=True)
    if not numbers:
        raise FormatError("demand file has no data rows")
    expected = starts[0] + np.arange(len(starts)) * np.timedelta64(interval_minutes, "m")
    _check_rows(numbers, [
        *rules,
        (pickups < 0, lambda i: f"pickups must be non-negative, got {pickups[i]}"),
        (returns < 0, lambda i: f"returns must be non-negative, got {returns[i]}"),
        (starts != expected, lambda i: f"interval_start {starts[i].item()} out of sequence: "
                                       f"expected {expected[i].item()}, "
                                       f"{interval_minutes} minutes per row"),
    ])
    if (len(numbers) * interval_minutes) % 1440:
        raise DataError("series must tile whole days")
    if starts[0] != starts[0].astype("datetime64[D]"):
        raise DataError("series must start at local midnight")
    counts = np.stack([pickups, returns], axis=1).reshape(-1, 1440 // interval_minutes, 2)
    return DemandSeries(station, interval_minutes, starts[0].item().date(), counts)


def weather_to_csv(weather: WeatherTable) -> str:
    """Serialize for :func:`parse_weather`; ``repr`` values parse back to the same floats."""
    return ",".join(WEATHER_COLUMNS) + "\n" + "".join(map(
        "{},{!r},{!r}\n".format, _iso_strings(weather.hours), weather.temperature_c.tolist(),
        weather.rain_probability.tolist()))

