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

A parser reads lines or a stream, never a path. :func:`read_input` opens
every data file the package reads as text, as UTF-8: the three input files
(trips, weather, stations) and, for :func:`.artifacts.read`, the kept ones. It names
the file in the errors the parser raises, and the line of a byte that is not
UTF-8.

Every CSV the package reads, input or kept, goes through one row reader,
:func:`_column_chunks`, and each of its columns through one converter,
:func:`_converted`, by the kind its parser names: :func:`_table` reads a whole
file so. The reader splits each block of lines in one numpy pass over its
bytes (:func:`_split_lines`), and a column leaves it as those bytes and the
places of its fields in them (:class:`_Fields`). ``csv.reader`` reads the
header, and reads rows only from the first block that pass does not take, as
one with a line break inside quotes, to the end of the file.

A timestamp reads as :func:`_parse_timestamp` reads it: as
:func:`datetime.fromisoformat` does, with surrounding blanks stripped, UTC
offsets refused and only a blank or ``T`` after a ``YYYY-MM-DD`` date. A
column's canonical spellings (``YYYY-MM-DD HH:MM:SS``, a ``T`` or a blank
between, an optional fraction of 1-6 digits) are decoded together from its
bytes; only other spellings go through :func:`_parse_timestamp` one at a
time, as strings. Station ids are gathered from the bytes, and only those
with a blank at an end or a byte beyond ASCII go through ``str.strip``
(:func:`_stripped`). Numbers refuse digit-group underscores and digits beyond
ASCII.

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
from itertools import accumulate, chain, compress, islice, repeat

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

# lines split at a time, about 130 KB of a trip file: blocks of 512 lines
# parsed one half again slower, and blocks of 8192 no faster
_CHUNK_ROWS = 2048

_KIND_CODES = {name: kind for kind, name in enumerate(KIND_NAMES)}


def _parse_timestamp(raw: str, line_number: int) -> datetime:
    text = raw.strip()
    try:
        stamp = datetime.fromisoformat(text)
        # fromisoformat takes any one character after a YYYY-MM-DD date as
        # the separator, so 2018-06-01507:00:00 would read as 07:00:00
        if text[4:5] == "-" and text[5:6] != "W" and text[10:11] not in ("", " ", "T"):
            raise ValueError
    except ValueError:
        raise RowError(line_number, f"unparseable timestamp {raw!r}") from None
    if stamp.tzinfo is not None:
        raise RowError(line_number, f"timestamp {raw!r} carries a UTC offset; "
                                    f"timestamps must be naive local time")
    return stamp


def _timestamp_or_none(raw: str) -> datetime | None:
    try:
        return _parse_timestamp(raw, 0)
    except RowError:
        return None


# The canonical spelling, YYYY-MM-DD HH:MM:SS (or a T between) with an optional
# fraction of 1-6 digits, and its widths. A "0" marks a digit: a byte minus this
# template is at most 9 where it holds a "0", and 0 where it holds a separator.
_CANONICAL = np.frombuffer(b"0000-00-00 00:00:00.000000", np.uint8)
_CANONICAL_WIDTHS = (19, 21, 22, 23, 24, 25, 26)
_LIMITS = np.where(_CANONICAL == ord("0"), 9, 0).astype(np.uint8)
# the start and size of the digits of year, month, day, hour, minute, second
# and microsecond, and the place value of each byte's digit in them
_FIELDS = ((0, 4), (5, 2), (8, 2), (11, 2), (14, 2), (17, 2), (20, 6))
_PLACES = np.array([[10.0 ** (start + size - 1 - i) if start <= i < start + size else 0.0
                     for start, size in _FIELDS] for i in range(len(_CANONICAL))])
# days in and days before each month; months 0 and 13 stand for any out of range
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31, 0])
_DAYS_BEFORE = np.concatenate(([0], np.cumsum(_MONTH_DAYS[:-1])))
_EPOCH_DAY = date(1970, 1, 1).toordinal()


def _decoded(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which rows of ``block``, a ``uint8`` array of strings of one canonical
    width, one row each, spell a canonical timestamp of a real date and time,
    and each row's microseconds since the epoch (of no meaning where not)."""
    width = block.shape[1]
    digits = block - _CANONICAL[:width]
    digits[:, 10] *= block[:, 10] != ord("T")  # a T separates date and time as a blank does
    ok = np.ones(len(block), bool)
    # the rows of the few bad bytes: three times faster than any(axis=1)
    ok[np.flatnonzero(digits > _LIMITS[:width]) // width] = False
    year, month, day, hour, minute, second, micro = (digits @ _PLACES[:width]).astype(np.int64).T
    month = np.minimum(month, 13)
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    ok &= ((year >= 1) & (day >= 1) & (day <= _MONTH_DAYS[month] + (leap & (month == 2)))
           & (hour < 24) & (minute < 60) & (second < 60))
    past = year - 1  # date.toordinal, counted in whole years, months and days
    ordinal = (365 * past + past // 4 - past // 100 + past // 400
               + _DAYS_BEFORE[month] + (leap & (month > 2)) + day)
    seconds = ((ordinal - _EPOCH_DAY) * 24 + hour) * 3600 + minute * 60 + second
    return ok, seconds * 1_000_000 + micro


def _timestamps(column: _Fields) -> np.ndarray:
    """Each field of ``column`` as :func:`_parse_timestamp` reads it, as
    ``datetime64[us]``; NaT where it refuses.

    The fields of each canonical width in bytes are gathered from the
    column's bytes and decoded as one block (:func:`_decoded`), which checks
    every byte and the range of every field; a byte beyond ASCII is in no
    canonical spelling. Every other field, and every one the block check
    refuses, goes through :func:`_parse_timestamp` on its own, as a string.
    """
    n = len(column)
    widths = column.ends - column.starts
    micros = np.zeros(n, np.int64)
    decoded = np.zeros(n, bool)
    for width in set(widths.tolist()).intersection(_CANONICAL_WIDTHS):
        rows = np.flatnonzero(widths == width)
        windows = np.lib.stride_tricks.sliding_window_view(
            np.frombuffer(column.raw, np.uint8), width)
        decoded[rows], micros[rows] = _decoded(windows[column.starts[rows]])
    times = micros.view("datetime64[us]")
    for i in np.flatnonzero(~decoded).tolist():
        stamp = _timestamp_or_none(column[i])
        times[i] = _NAT if stamp is None else stamp
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
    """``parse(stream)`` of the file at ``path``, opened as UTF-8 text: the
    opener of every input and of every kept text file.

    A missing file raises :class:`DataError`. What ``parse`` raises names the
    file: a :class:`RowError` gets its path, and any other
    :class:`DataError`, ``ValueError`` or ``KeyError`` that does not start
    with it becomes a :class:`FormatError` that does. A byte that is not UTF-8
    raises :class:`RowError` at the line of the first such byte, counting LF,
    CR LF and lone CR line ends as the parsers do.
    """
    if not os.path.exists(path):
        raise DataError(f"input file not found: {path}")
    with open(path, newline="", encoding="utf-8") as stream:
        try:
            return parse(stream)
        except RowError as exc:
            raise RowError(exc.line_number, exc.reason, path) from None
        except UnicodeDecodeError:
            with open(path, "rb") as fh:
                head = fh.read()
            try:
                head.decode("utf-8")
            except UnicodeDecodeError as exc:
                head = head[:exc.start]
            line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
            raise RowError(line, "not UTF-8 text", path) from None
        except (DataError, ValueError, KeyError) as exc:
            if isinstance(exc, DataError) and str(exc).startswith(path):
                raise
            raise FormatError(f"{path}: {exc}") from None


@dataclass(eq=False)
class _Fields:
    """The fields of one column of CSV rows: field i is bytes
    ``starts[i]:ends[i]`` of ``raw``, UTF-8 text. Indexed or iterated, it
    gives its fields as strings."""

    raw: bytes
    starts: np.ndarray
    ends: np.ndarray

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, i: int) -> str:
        return self.raw[self.starts[i]:self.ends[i]].decode()

    def __iter__(self):
        raw, bounds = self.raw, zip(self.starts.tolist(), self.ends.tolist())
        if raw.isascii():  # a byte is a character: slice the text, decoded once
            text = raw.decode()
            return iter([text[s:e] for s, e in bounds])
        return iter([raw[s:e].decode() for s, e in bounds])


def _fields_of(strings: Iterable[str]) -> _Fields:
    """``strings`` as :class:`_Fields`."""
    encoded = [s.encode() for s in strings]
    lengths = np.fromiter(map(len, encoded), np.intp, len(encoded))
    ends = np.cumsum(lengths)
    return _Fields(b"".join(encoded), ends - lengths, ends)


def _joined(parts: list[_Fields]) -> _Fields:
    """The fields of ``parts``, one after another, as one :class:`_Fields`."""
    offsets = np.cumsum([0] + [len(part.raw) for part in parts])
    starts = [np.empty(0, np.intp)] + [part.starts + o for part, o in zip(parts, offsets)]
    ends = [np.empty(0, np.intp)] + [part.ends + o for part, o in zip(parts, offsets)]
    return _Fields(b"".join(part.raw for part in parts), np.concatenate(starts),
                   np.concatenate(ends))


_LF, _CR, _COMMA, _QUOTE = b"\n\r,\""
# the bytes that may stand beside a quote that wraps a field
_SEPARATOR = np.isin(np.arange(256), (_LF, _CR, _COMMA))


def _split_lines(raw: bytes, columns: list[int], start: int):
    """The fields ``columns`` of each non-blank line of ``raw``, UTF-8 text of
    whole lines of which the first is line ``start + 1``, and those lines'
    numbers; None where ``csv.reader`` might read a row otherwise.

    Lines end in LF or CR LF, and fields at the commas outside quotes. A field
    wrapped whole in one pair of quotes, on one line and with no quote
    inside, is the bytes between them, as ``csv.reader`` reads it. None
    stands for a lone CR, any other quote, a row with too few fields, or a
    line longer than ``csv.field_size_limit()``, which may hold a field that
    ``csv.reader`` refuses. A NUL is a byte like any other, as it is to
    ``csv.reader`` since Python 3.11.
    """
    if b"\r" in raw and raw.count(b"\r") != raw.count(b"\r\n"):
        return None
    raw += b"" if raw.endswith(b"\n") else b"\n"
    data = np.frombuffer(raw, np.uint8)
    breaks = np.flatnonzero(data == _LF)
    starts = np.concatenate(([0], breaks[:-1] + 1))
    ends = breaks - (data[breaks - 1] == _CR)  # at a LF in place 0, data[-1] is the last LF
    if (ends - starts).max() > csv.field_size_limit():
        return None
    commas = np.flatnonzero(data == _COMMA)
    if b'"' in raw:
        quotes = np.flatnonzero(data == _QUOTE)
        opens, closes = quotes[::2], quotes[1::2]
        if (len(quotes) % 2
                or not _SEPARATOR[data[opens - 1]].all()
                or not _SEPARATOR[data[closes + 1]].all()
                or np.any(np.searchsorted(breaks, opens) != np.searchsorted(breaks, closes))):
            return None
        pair = np.searchsorted(opens, commas) - 1  # the last quote opened before each comma
        commas = commas[(pair < 0) | (commas > closes[pair])]
    kept = np.flatnonzero(ends > starts)  # blank lines are skipped but keep their numbers
    starts, ends = starts[kept], ends[kept]
    first = np.searchsorted(commas, starts)
    count = np.searchsorted(commas, ends) - first
    if len(kept) and count.min() < max(columns):
        return None
    fields = []
    for j in columns:
        field_starts = starts if j == 0 else commas[first + j - 1] + 1
        field_ends = ends.copy()
        inner = count > j
        field_ends[inner] = commas[first[inner] + j]
        quoted = data[field_starts] == _QUOTE
        fields.append(_Fields(raw, field_starts + quoted, field_ends - quoted))
    return fields, (start + 1 + kept).tolist()


def _column_chunks(stream, what: str, names: tuple[str, ...], exact: bool = False):
    """The named columns of a CSV with a header, a chunk of rows at a time:
    the one reader of every CSV the package reads.

    Yields, per chunk, one :class:`_Fields` per name and the rows' physical
    line numbers. The header is found by name, the last of a repeated name
    winning; with ``exact`` it must be ``names`` and nothing else. Blank lines
    are skipped, short rows padded with empty fields, and fields beyond the
    named columns are not read.

    ``csv.reader`` reads the header. The body is read in blocks of
    :data:`_CHUNK_ROWS` lines, each encoded once and split in one pass over
    its bytes (:func:`_split_lines`), a chunk per block. From the first block
    that pass does not take to the end of the file, where a quoted field may
    hold line breaks, ``csv.reader`` reads the rows, :data:`_CHUNK_ROWS` a
    chunk. There a row's number is the line it ends on, counted from
    ``reader.line_num`` at the chunk's two ends; only a chunk spanning more
    lines than rows counts the LF, CR LF and lone CR line ends (those of
    ``open(newline="")``) inside each row's fields. A line that
    ``csv.reader`` refuses, as for a field beyond ``csv.field_size_limit()``,
    raises :class:`RowError` with its words, at the line the reader stopped on.
    """
    lines = iter(stream)
    reader = csv.reader(lines)
    start = 0  # the lines before those of reader
    try:
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
        while block := list(islice(lines, _CHUNK_ROWS)):
            chunk = _split_lines("".join(block).encode(), columns, end)
            if chunk is None:
                start, reader = end, csv.reader(chain(block, lines))
                break
            if chunk[1]:
                yield chunk
            end += len(block)
        while rows := list(islice(reader, _CHUNK_ROWS)):
            first, end = end, start + reader.line_num
            numbers = range(first + 1, end + 1)
            if len(numbers) > len(rows):
                breaks = (sum(f.count("\n") + f.count("\r") - f.count("\r\n") for f in row)
                          for row in rows)
                numbers = list(accumulate(breaks, lambda n, b: n + b + 1, initial=first))[1:]
                # the last row ends where the reader stopped, even if a quote
                # left open to the end of the file holds that line's end
                numbers[-1] = end
            kept = list(map(bool, rows))  # a blank line reads as an empty row
            rows = [row + [""] * (width - len(row)) for row in compress(rows, kept)]
            if rows:
                yield ([_fields_of(row[i] for row in rows) for i in columns],
                       list(compress(numbers, kept)))
    except csv.Error as exc:
        raise RowError(start + reader.line_num, str(exc)) from None


def _table(lines, what: str, names: tuple[str, ...], kinds: tuple, exact: bool = False):
    """The line numbers of every row of :func:`_column_chunks` (whose header,
    with ``exact``, must be ``names``), the named columns, column i converted by
    ``kinds[i]`` (:func:`_converted`), and the rule of each column, in order.
    Every line is read as a CSV line: one that begins with ``#`` is a row."""
    numbers: list[int] = []
    parts: list[list[_Fields]] = [[] for _ in names]
    for chunk, chunk_numbers in _column_chunks(lines, what, names, exact):
        numbers += chunk_numbers
        for column, part in zip(parts, chunk):
            column.append(part)
    columns = map(_joined, parts)
    values, rules = zip(*map(_converted, names, columns, kinds, repeat(numbers)))
    return numbers, values, rules


def _string_array(values: list[str]) -> np.ndarray:
    """``values`` as a string array; given the width, numpy skips a slow search for it."""
    width = np.fromiter(map(len, values), np.intp, len(values)).max(initial=1)
    return np.array(values, dtype=f"<U{width}")


# the ASCII bytes that str.strip strips
_BLANK = np.isin(np.arange(256), tuple(b" \t\n\v\f\r\x1c\x1d\x1e\x1f"))


def _stripped(fields: _Fields) -> np.ndarray:
    """Each field stripped as ``str.strip`` strips it, as a string array.

    The fields are gathered from the bytes into one zero-padded array. Where
    they are ASCII with no blank at either end, stripping leaves them as they
    are; otherwise they are decoded and stripped one by one.
    """
    widths = fields.ends - fields.starts
    width = max(int(widths.max(initial=0)), 1)
    inside = np.arange(width) < widths[:, None]
    text = np.zeros((len(widths), width), np.uint8)
    text[inside] = np.frombuffer(fields.raw, np.uint8)[
        (fields.starts[:, None] + np.arange(width))[inside]]
    last = text[np.arange(len(text)), np.maximum(widths - 1, 0)]
    if text.max(initial=0) >= 0x80 or _BLANK[text[:, 0]].any() or _BLANK[last].any():
        return _string_array([field.strip() for field in fields])
    # an ASCII byte is its code point, and U pads with zeros as text does
    return text.astype(np.uint32).view(f"U{width}").ravel()


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


def _converted(name: str, fields: _Fields, kind, numbers: list[int]):
    """``fields``, whose rows are on the lines ``numbers``, converted by
    ``kind``, and the rule that each field converted.

    A ``str`` column is a list of the strings read, and its rule flags no
    field. A ``datetime`` column is read from its bytes by
    :func:`_timestamps`, its rule worded by :func:`_parse_timestamp`. Any
    other ``kind`` converts string by string into an array (of objects unless
    ``kind`` is int or float), its rule worded ``unparseable <name>
    '<field>'``.

    A column that converts whole takes one ``np.fromiter`` pass; only one
    that does not goes field by field, a refused field reading as zero. A
    field with a digit-group underscore or a character beyond ASCII is
    refused, though ``int("2_0")`` and ``int("٢٠")`` are 20, and so is an
    integer beyond ``int64``. Blanks around a number are accepted, as they
    are around ids and timestamps, which are stripped.
    """
    n = len(fields)
    if kind is datetime:
        times = _timestamps(fields)
        return times, (np.isnat(times), lambda i: _parse_timestamp(fields[i], numbers[i]))
    column = list(fields)
    if kind is str:
        return column, (np.zeros(n, bool), None)
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
        ids = _stripped(_joined([origins, dests]))
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

