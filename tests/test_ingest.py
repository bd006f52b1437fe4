"""Trip parsing, interval aggregation, covariates, and the chronological split."""

import csv
import dataclasses
import gc
import io
import warnings
from datetime import date, datetime, time, timedelta
from pathlib import Path

import numpy as np
import pytest
from conftest import demand_series
from hypothesis import given, settings
from hypothesis import strategies as st

from bikecast import artifacts
from bikecast.config import RunConfig
from bikecast.errors import ConfigError, DataError, DomainError, FormatError, RowError
from bikecast import ingest
from bikecast.ingest import (
    KIND_NAMES,
    PICKUP,
    RETURN,
    VALID_INTERVALS,
    DemandSeries,
    EventStream,
    WeatherTable,
    _parse_timestamp,
    _timestamps,
    aggregate,
    build_covariates,
    covariate_columns,
    demand_from_csv,
    demand_to_csv,
    events_from_csv,
    events_to_csv,
    parse_stations,
    parse_trips,
    parse_weather,
    read_input,
    split,
    to_event_streams,
    top_stations,
    weather_to_csv,
)

TRIPS_CSV = """starttime,stoptime,start station id,end station id
2018-06-01 07:58:30,2018-06-01 08:14:02,A,B
2018-06-01 08:59:59,2018-06-01 09:10:00,A,C
2018-06-01 09:00:00,2018-06-01 09:20:00,B,A
2018-06-02 10:30:00,2018-06-02 10:45:00,C,A
"""


def pairs(stream: EventStream) -> list[tuple[datetime, int]]:
    """The stream's events as (time, kind) pairs, in its order."""
    return list(zip(stream.times.tolist(), stream.kinds.tolist()))


def columns(trips) -> tuple[list, ...]:
    """The trip table's four columns as lists of Python values."""
    return (trips.start_times.tolist(), trips.end_times.tolist(),
            trips.start_stations.tolist(), trips.end_stations.tolist())


def test_parse_trips_basic():
    trips = parse_trips(io.StringIO(TRIPS_CSV))
    assert len(trips) == 4
    assert trips.start_times.dtype == trips.end_times.dtype == np.dtype("datetime64[us]")
    assert trips.start_stations.tolist() == ["A", "A", "B", "C"]
    assert trips.end_stations.tolist() == ["B", "C", "A", "A"]
    assert trips.start_times[0].item() == datetime(2018, 6, 1, 7, 58, 30)
    assert trips.end_times[0].item() == datetime(2018, 6, 1, 8, 14, 2)


def test_event_streams_are_built_only_for_the_given_stations():
    trips = parse_trips(io.StringIO(TRIPS_CSV))
    streams = to_event_streams(trips, ["B", "Z"])
    # B is the end of the first trip and the start of the third; Z has no events
    assert list(streams) == ["B"]
    assert pairs(streams["B"]) == [(datetime(2018, 6, 1, 8, 14, 2), RETURN),
                                   (datetime(2018, 6, 1, 9, 0), PICKUP)]


def test_parse_trips_missing_column():
    with pytest.raises(FormatError):
        parse_trips(io.StringIO("starttime,stoptime,start station id\n"))


def test_parse_trips_bad_timestamp_reports_line():
    bad = TRIPS_CSV + "not-a-date,2018-06-03 00:00:00,A,B\n"
    with pytest.raises(RowError) as err:
        parse_trips(io.StringIO(bad))
    assert err.value.line_number == 6


def test_parse_trips_reads_a_four_digit_fraction_of_a_second():
    # the 2018 Citi Bike files stamp trips to a ten-thousandth of a second
    trips = parse_trips(io.StringIO(trip_file(("2018-01-01 13:50:57.4340",
                                               "2018-01-01 14:02:03.0010"))))
    assert trips.start_times.tolist() == [datetime(2018, 1, 1, 13, 50, 57, 434000)]
    assert trips.end_times.tolist() == [datetime(2018, 1, 1, 14, 2, 3, 1000)]


def test_parse_trips_rejects_offset_aware_timestamps():
    aware = TRIPS_CSV + "2018-06-03 10:00:00+00:00,2018-06-03 10:20:00+00:00,A,B\n"
    with pytest.raises(RowError, match="UTC offset") as err:
        parse_trips(io.StringIO(aware))
    assert err.value.line_number == 6


def test_parse_trips_rejects_reversed_interval():
    bad = "starttime,stoptime,start station id,end station id\n" \
          "2018-06-01 10:00:00,2018-06-01 09:00:00,A,B\n"
    with pytest.raises(RowError):
        parse_trips(io.StringIO(bad))


@pytest.mark.parametrize("row, message", [
    pytest.param("2018-06-03 10:00:00,2018-06-03 10:20:00, ,B", "empty station id",
                 id="blank-start-station"),
    pytest.param("2018-06-03 10:00:00,2018-06-03 10:20:00,A,", "empty station id",
                 id="empty-end-station"),
    pytest.param("2018-06-03 10:00:00,2018-06-03 10:20:00,A", "empty station id",
                 id="short-row"),
    pytest.param("not-a-date,2018-06-03 10:20:00,A,B", "unparseable timestamp",
                 id="bad-start-time"),
    pytest.param("2018-06-03 10:00:00,2018-06-03 25:00:00,A,B", "unparseable timestamp",
                 id="bad-end-time"),
    pytest.param("2018-06-03 10:00:00+00:00,2018-06-03 10:20:00,A,B", "UTC offset",
                 id="aware-start-time"),
    pytest.param("2018-06-03 10:00:00,2018-06-03 10:20:00-05:00,A,B", "UTC offset",
                 id="aware-end-time"),
    pytest.param("2018-06-03 10:20:00,2018-06-03 10:00:00,A,B", "ends before it starts",
                 id="reversed"),
])
def test_parse_trips_row_errors_carry_their_line(row, message):
    # the blank line before the bad row counts: line numbers are physical lines
    text = TRIPS_CSV + "\n" + row + "\n" + "2018-06-04 10:00:00,2018-06-04 10:20:00,A,B\n"
    with pytest.raises(RowError, match=message) as err:
        parse_trips(io.StringIO(text))
    assert err.value.line_number == 7


def quoted_citi_bike_file(text: str) -> str:
    """``text`` in the public Citi Bike layout: extra columns, every field quoted."""
    out = ['"tripduration","starttime","stoptime","start station id","start station name",'
           '"end station id","end station name","bikeid"']
    for line in text.splitlines()[1:]:
        t0, t1, a, b = line.split(",")
        fields = ["600", t0, t1, a, f"{a} St, north side", b, f"{b} Ave", "31956"]
        out.append(",".join(f'"{f}"' for f in fields))
    return "\n".join(out) + "\n"


def test_parse_trips_reads_a_fully_quoted_file():
    quoted = quoted_citi_bike_file(TRIPS_CSV)
    assert quoted.startswith('"tripduration","starttime","stoptime"')
    assert columns(parse_trips(io.StringIO(quoted))) == columns(parse_trips(io.StringIO(TRIPS_CSV)))


def reference_event_streams(trips) -> dict[str, list]:
    """One pickup and one return per trip, sorted by (time, pickups first)."""
    events: dict[str, list] = {}
    for t0, t1, a, b in zip(*columns(trips)):
        events.setdefault(a, []).append((t0, PICKUP))
        events.setdefault(b, []).append((t1, RETURN))
    return {station: sorted(ev, key=lambda e: (e[0], 0 if e[1] == PICKUP else 1))
            for station, ev in sorted(events.items())}


def every_station(trips) -> set[str]:
    return set(trips.start_stations.tolist()) | set(trips.end_stations.tolist())


def test_event_streams_match_the_per_trip_reference_on_a_corpus(corpus):
    trips = read_input(corpus["trips"], parse_trips)
    streams = to_event_streams(trips, every_station(trips))
    reference = reference_event_streams(trips)
    assert list(streams) == list(reference)
    for station, stream in streams.items():
        assert stream.station == station
        assert pairs(stream) == reference[station]


def test_event_streams_put_pickups_first_at_equal_times():
    text = ("starttime,stoptime,start station id,end station id\n"
            "2018-06-01 09:00:00,2018-06-01 09:30:00,B,A\n"
            "2018-06-01 09:30:00,2018-06-01 09:45:00,A,C\n"
            "2018-06-01 09:30:00,2018-06-01 09:30:00,A,A\n")
    trips = parse_trips(io.StringIO(text))
    streams = to_event_streams(trips, every_station(trips))
    assert {s: pairs(st) for s, st in streams.items()} == reference_event_streams(trips)
    at = datetime(2018, 6, 1, 9, 30)
    assert pairs(streams["A"]) == [(at, PICKUP), (at, PICKUP), (at, RETURN), (at, RETURN)]
    stream = EventStream(station="A", times=[at, at], kinds=[RETURN, PICKUP])
    assert pairs(stream) == [(at, PICKUP), (at, RETURN)]


def test_slice_day_matches_the_linear_filter():
    midnight, next_midnight = datetime(2018, 6, 2), datetime(2018, 6, 3)
    tick = timedelta(microseconds=1)
    times = [midnight - tick, midnight, midnight, midnight + timedelta(hours=5),
             next_midnight - tick, next_midnight, next_midnight + timedelta(hours=1)]
    stream = EventStream(station="S", times=[t for t in times for _ in (RETURN, PICKUP)],
                         kinds=[k for _ in times for k in (RETURN, PICKUP)])
    for day in (date(2018, 5, 1), date(2018, 6, 1), date(2018, 6, 2), date(2018, 6, 3),
                date(2018, 6, 4)):
        lo = datetime.combine(day, time.min)
        expected = [e for e in pairs(stream) if lo <= e[0] < lo + timedelta(days=1)]
        sliced = stream.slice_day(day)
        assert sliced.station == "S"
        assert pairs(sliced) == expected, day
    assert pairs(stream.slice_day(date(2018, 6, 2)))[:2] == [(midnight, PICKUP)] * 2
    assert pairs(stream.slice_day(date(2018, 6, 3)))[0] == (next_midnight, PICKUP)


@pytest.mark.parametrize("microsecond", [0, 143447])
def test_events_csv_roundtrip_is_exact(microsecond):
    base = datetime(2018, 6, 1, 7, 58, 30, microsecond)
    stream = EventStream(
        station="A",
        times=[base, base, base + timedelta(minutes=3), base + timedelta(days=40, microseconds=1)],
        kinds=[PICKUP, RETURN, RETURN, PICKUP])
    text = events_to_csv(stream)
    lines = text.splitlines()
    assert lines[0] == "time,kind"
    assert lines[1] == f"{base.isoformat(sep=' ')},pickup"
    assert lines[1:] == [f"{t.isoformat(sep=' ')},{KIND_NAMES[k]}" for t, k in pairs(stream)]
    back = events_from_csv(io.StringIO(text), "A")
    assert back.station == stream.station
    assert pairs(back) == pairs(stream)


def test_events_csv_rejects_malformed_files():
    with pytest.raises(FormatError):
        events_from_csv(io.StringIO("\n"), "A")
    with pytest.raises(RowError, match="line 2: unknown event kind 'dock'"):
        events_from_csv(io.StringIO("time,kind\n2018-06-01 07:00:00,dock\n"), "A")


def _demand_text() -> str:
    return demand_to_csv(demand_series(np.ones(24, dtype=np.int64),
                                       np.zeros(24, dtype=np.int64)))


READERS = {
    "trips": (TRIPS_CSV, parse_trips),
    "weather": ("timestamp,temperature_c,rain_probability\n2018-06-01 00:00:00,15.0,0.2\n",
                parse_weather),
    "stations": ("station_id,capacity\nA,20\n", parse_stations),
    "demand": (_demand_text(), lambda src: demand_from_csv(src, "A", 60)),
}


@pytest.mark.parametrize("kind", sorted(READERS))
def test_readers_close_only_the_files_they_open(tmp_path, kind):
    text, read = READERS[kind]
    path = tmp_path / "input.csv"
    path.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        read_input(str(path), read)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    with open(path, newline="") as owned:
        read(owned)
        gc.collect()
        assert not owned.closed


def test_parse_trips_repeated_column_reads_the_last():
    # the csv.DictReader rule: a later column of the same name wins
    text = ("starttime,stoptime,start station id,end station id,end station id\n"
            "2018-06-01 07:00:00,2018-06-01 07:30:00,X,old,Y\n")
    assert parse_trips(io.StringIO(text)).end_stations.tolist() == ["Y"]


def test_event_streams_order_and_kinds():
    trips = parse_trips(io.StringIO(TRIPS_CSV))
    streams = to_event_streams(trips, ["A", "B", "C"])
    assert set(streams) == {"A", "B", "C"}
    a = pairs(streams["A"])
    assert all(a[i][0] <= a[i + 1][0] for i in range(len(a) - 1))
    # A: two pickups, two returns
    kinds = [k for _, k in a]
    assert kinds.count(PICKUP) == 2
    assert kinds.count(RETURN) == 2


def test_top_stations_orders_by_pickups_then_id():
    trips = parse_trips(io.StringIO(TRIPS_CSV))
    # pickups: A=2, B=1, C=1 -> B before C on id tie-break
    assert top_stations(trips, 3) == ["A", "B", "C"]
    assert top_stations(trips, 1) == ["A"]


def test_aggregate_boundaries_left_closed():
    trips = parse_trips(io.StringIO(TRIPS_CSV))
    streams = to_event_streams(trips, ["A"])
    series = aggregate(streams["A"], 60, (date(2018, 6, 1), date(2018, 6, 2)))
    assert series.counts.shape == (2, 24, 2)
    by_hour = series.counts[..., PICKUP]
    assert by_hour[0, 7] == 1  # 07:58 pickup
    assert by_hour[0, 8] == 1  # 08:59:59 stays in hour 8
    ret = series.counts[..., RETURN]
    assert ret[0, 9] == 1  # B->A return lands at 09:20
    assert ret[1, 10] == 1  # C->A return next day


def test_aggregate_ignores_out_of_range_events():
    trips = parse_trips(io.StringIO(TRIPS_CSV))
    streams = to_event_streams(trips, ["A"])
    series = aggregate(streams["A"], 60, (date(2018, 6, 2), date(2018, 6, 2)))
    assert series.pickups.sum() == 0
    assert series.returns.sum() == 1


def test_aggregate_rejects_bad_interval():
    trips = parse_trips(io.StringIO(TRIPS_CSV))
    streams = to_event_streams(trips, ["A"])
    with pytest.raises(ConfigError):
        aggregate(streams["A"], 45, (date(2018, 6, 1), date(2018, 6, 1)))


def test_aggregate_rejects_an_empty_day_range():
    stream = to_event_streams(parse_trips(io.StringIO(TRIPS_CSV)), ["A"])["A"]
    with pytest.raises(ConfigError) as err:
        aggregate(stream, 60, (date(2018, 6, 2), date(2018, 6, 1)))
    assert str(err.value) == "day range is empty: 2018-06-02 to 2018-06-01"


def test_parse_stations_and_errors():
    good = "station_id,capacity\nA,20\nB,31\n"
    caps = parse_stations(io.StringIO(good))
    assert caps == {"A": 20, "B": 31}
    with pytest.raises(RowError):
        parse_stations(io.StringIO("station_id,capacity\nA,-3\n"))
    with pytest.raises(RowError, match="^line 3: station A is listed twice$"):
        parse_stations(io.StringIO("station_id,capacity\nA,20\nA,30\n"))
    with pytest.raises(FormatError):
        parse_stations(io.StringIO("station_id\nA\n"))


def test_parse_weather_validates_hours():
    good = "timestamp,temperature_c,rain_probability\n2018-06-01 00:00:00,15.0,0.2\n"
    table = parse_weather(io.StringIO(good))
    assert observations(table)[datetime(2018, 6, 1, 0)] == (15.0, 0.2)
    off_hour = "timestamp,temperature_c,rain_probability\n2018-06-01 00:30:00,15.0,0.2\n"
    with pytest.raises(RowError):
        parse_weather(io.StringIO(off_hour))
    bad_rain = "timestamp,temperature_c,rain_probability\n2018-06-01 00:00:00,15.0,1.4\n"
    with pytest.raises(RowError):
        parse_weather(io.StringIO(bad_rain))


@pytest.mark.parametrize("temperature", ["nan", "inf", "-inf"])
def test_parse_weather_rejects_non_finite_temperature(temperature):
    text = ("timestamp,temperature_c,rain_probability\n"
            "2018-06-01 00:00:00,15.0,0.2\n"
            f"2018-06-01 01:00:00,{temperature},0.2\n")
    with pytest.raises(RowError, match="not finite") as err:
        parse_weather(io.StringIO(text))
    assert err.value.line_number == 3
    with pytest.raises(DataError):
        WeatherTable([datetime(2018, 6, 1)], [float(temperature)], [0.2])


def observations(table: WeatherTable) -> dict[datetime, tuple[float, float]]:
    """The table as {hour: (temperature, rain)}, in its order."""
    return {ts: (t, r) for ts, t, r in zip(table.hours.tolist(), table.temperature_c.tolist(),
                                          table.rain_probability.tolist())}


def weather_table(obs: dict[datetime, tuple[float, float]]) -> WeatherTable:
    return WeatherTable(list(obs), [t for t, _ in obs.values()], [r for _, r in obs.values()])


def hourly_observations(first: date, n_days: int, temp=12.0,
                        rain=0.1) -> dict[datetime, tuple[float, float]]:
    start = datetime.combine(first, datetime.min.time())
    return {start + timedelta(hours=h): (temp, rain) for h in range(n_days * 24)}


def weather_for_days(first: date, n_days: int, temp=12.0, rain=0.1) -> WeatherTable:
    return weather_table(hourly_observations(first, n_days, temp, rain))


def test_covariate_columns_layout():
    cols = covariate_columns(60)
    assert cols[:2] == ["temperature_c", "rain_probability"]
    assert cols[2:9] == [f"dow_{d}" for d in range(7)]
    assert len(cols) == 2 + 7 + 24
    assert len(covariate_columns(15)) == 2 + 7 + 96


def test_build_covariates_one_hots_sum_to_one():
    table = weather_for_days(date(2018, 6, 1), 2)
    values = build_covariates(table, (date(2018, 6, 1), date(2018, 6, 2)), 30)
    assert values.shape == (2, 48, 2 + 7 + 48)
    np.testing.assert_allclose(values[..., 2:9].sum(axis=-1), 1.0)
    np.testing.assert_allclose(values[..., 9:].sum(axis=-1), 1.0)
    # 2018-06-01 is a Friday, and each slot's one-hot is its own
    assert values[0, 0, 2 + 4] == values[1, 0, 2 + 5] == 1.0
    np.testing.assert_array_equal(values[1, :, 9:], np.eye(48))


def test_build_covariates_forward_fills_gaps():
    obs = hourly_observations(date(2018, 6, 1), 1, temp=20.0)
    del obs[datetime(2018, 6, 1, 5)]
    cov = build_covariates(weather_table(obs), (date(2018, 6, 1), date(2018, 6, 1)), 60)
    assert cov[0, 5, 0] == 20.0  # filled from hour 4


def test_build_covariates_leading_gap_is_an_error():
    obs = hourly_observations(date(2018, 6, 1), 1)
    del obs[datetime(2018, 6, 1, 0)]
    with pytest.raises(DataError):
        build_covariates(weather_table(obs), (date(2018, 6, 1), date(2018, 6, 1)), 60)


def test_sub_hourly_intervals_replicate_hourly_weather():
    table = weather_for_days(date(2018, 6, 1), 1, temp=17.5)
    cov = build_covariates(table, (date(2018, 6, 1), date(2018, 6, 1)), 15)
    assert np.all(cov[0, 0:4, 0] == 17.5)


def test_attach_covariates_validates_length():
    series = demand_series(np.zeros(24, dtype=np.int64), np.zeros(24, dtype=np.int64))
    table = weather_for_days(date(2018, 6, 1), 2)
    cov = build_covariates(table, (date(2018, 6, 1), date(2018, 6, 2)), 60)
    with pytest.raises(DataError):
        dataclasses.replace(series, covariates=cov)


def test_split_needs_month_aligned_year():
    series = DemandSeries("A", 60, date(2018, 1, 1), np.zeros((365, 24, 2), dtype=np.int64))
    parts = split(series)
    # 9 months train (Jan..Sep), 1 month validation (Oct), 2 test (Nov, Dec)
    assert parts.train.n_days == 273
    assert parts.validation.n_days == 31
    assert parts.test.n_days == 61
    assert parts.validation.first_day == date(2018, 10, 1)
    assert parts.test.first_day == date(2018, 11, 1)

    short = DemandSeries("A", 60, date(2018, 1, 1), np.zeros((100, 24, 2), dtype=np.int64))
    with pytest.raises(ConfigError):
        split(short)


def test_split_and_day_slice_the_series_without_copying():
    # every station of a run shares one covariate array, so a slice that
    # copied it would cost a matrix per station and split
    first = date(2018, 1, 1)
    series = demand_series(
        np.arange(365 * 24, dtype=np.int64), np.ones(365 * 24, dtype=np.int64), first_day=first,
        covariates=build_covariates(weather_for_days(first, 365), (first, date(2018, 12, 31)), 60),
    )
    parts = split(series)
    for part in (parts.train, parts.validation, parts.test, series.days(0, 1),
                 series.days(364, 365), parts.test.days(3, 4)):
        for name in ("counts", "covariates"):
            assert np.shares_memory(getattr(part, name), getattr(series, name)), name
    day = series.days(31, 32)
    assert day.first_day == date(2018, 2, 1)
    np.testing.assert_array_equal(day.covariates, series.covariates[31:32])
    np.testing.assert_array_equal(parts.test.days(3, 4).pickups,
                                  series.pickups[(304 + 3) * 24:][:24])


def test_split_rejects_mid_month_start():
    series = DemandSeries("A", 60, date(2018, 1, 15), np.zeros((365, 24, 2), dtype=np.int64))
    with pytest.raises(ConfigError):
        split(series)


def test_demand_series_validates_whole_days():
    # counts are (days, slots, 2): a day cut short, or three processes, is refused
    for shape in ((1, 25, 2), (24, 2), (1, 24, 3)):
        with pytest.raises(DataError) as err:
            DemandSeries("A", 60, date(2018, 6, 1), np.zeros(shape, dtype=np.int64))
        assert str(err.value) == f"counts must be (days, 24, 2), got {shape}"


def test_demand_csv_roundtrip_keeps_only_counts():
    table = weather_for_days(date(2018, 6, 1), 1, temp=21.0, rain=0.3)
    cov = build_covariates(table, (date(2018, 6, 1), date(2018, 6, 1)), 60)
    rng = np.random.default_rng(0)
    series = demand_series(rng.poisson(3, 24).astype(np.int64),
                           rng.poisson(2, 24).astype(np.int64), covariates=cov)
    text = demand_to_csv(series)
    lines = text.splitlines()
    assert lines[0] == "interval_start,pickups,returns"
    assert lines[1] == f"2018-06-01 00:00:00,{series.pickups[0]},{series.returns[0]}"
    back = demand_from_csv(io.StringIO(text), station="A", interval_minutes=60)
    np.testing.assert_array_equal(back.pickups, series.pickups)
    np.testing.assert_array_equal(back.returns, series.returns)
    assert back.first_day == series.first_day
    assert back.covariates is None


def kept_config(tmp_path) -> RunConfig:
    """A run config whose artifacts live under ``tmp_path``."""
    return RunConfig(trips_path="", weather_path="", stations_path="", out_dir=str(tmp_path),
                     seed=1, start_date="2018-06-01", end_date="2018-06-01")


def test_read_takes_the_config_line_off_a_demand_file(tmp_path):
    series = demand_series(np.ones(24, dtype=np.int64), np.zeros(24, dtype=np.int64))
    config = kept_config(tmp_path)
    artifacts.write(config, "demand", demand_to_csv(series), "A")
    back = artifacts.read(config, "demand", demand_from_csv, "A", 60, sid="A")
    assert back.pickups.sum() == 24


@pytest.mark.parametrize("first, last, message", [
    pytest.param(0, 23, "series must tile whole days", id="cut-mid-day"),
    pytest.param(1, 25, "series must start at local midnight", id="starts-at-one"),
])
def test_read_refuses_a_demand_file_that_does_not_tile_days_from_midnight(tmp_path, first, last,
                                                                          message):
    rows = [f"{datetime(2018, 6, 1) + timedelta(hours=h)},{h % 5},0\n" for h in range(48)]
    config = kept_config(tmp_path)
    artifacts.write(config, "demand", "interval_start,pickups,returns\n"
                    + "".join(rows[first:last]), "A")
    with pytest.raises(DataError) as err:
        artifacts.read(config, "demand", demand_from_csv, "A", 60, sid="A")
    assert str(err.value) == f"{artifacts.path(config, 'demand', 'A')}: {message}"


@pytest.mark.parametrize("row, message", [
    pytest.param("2018-06-01 03:00:00,1", "unparseable returns ''", id="short-row"),
    pytest.param("2018-06-01 03:00:00,1,x", "unparseable returns 'x'", id="non-integer"),
    pytest.param("2018-06-01 03:00:00,1.5,0", "unparseable pickups '1.5'", id="fractional"),
    pytest.param("yesterday,1,0", "unparseable timestamp", id="bad-time"),
    pytest.param("2018-06-01 03:00:00,1,-1", "^line 6: returns must be non-negative, got -1$",
                 id="negative"),
])
def test_demand_csv_row_errors_carry_their_line(row, message):
    # the config line, blanked by artifacts.read, counts: line numbers are physical lines
    series = demand_series(np.ones(24, dtype=np.int64), np.zeros(24, dtype=np.int64))
    lines = ("\n" + demand_to_csv(series)).splitlines()
    lines[5] = row
    with pytest.raises(RowError, match=message) as err:
        demand_from_csv(io.StringIO("\n".join(lines) + "\n"), station="A", interval_minutes=60)
    assert err.value.line_number == 6


def _kept_events() -> str:
    return events_to_csv(EventStream("A", [datetime(2018, 6, 1, h, 30) for h in range(6)],
                                     [PICKUP, RETURN] * 3))


def _kept_forecast() -> str:
    rates = np.full((2, 24, 2), 1.25)
    rates[..., 0] = [[0.5], [1.5]]
    return artifacts.forecast_to_csv(date(2018, 11, 1), rates)


def _kept_decisions() -> str:
    rows = [f"2018-11-0{d},{name},{d + 2},{d / 4}" for name in ("ha", "lr") for d in (1, 2)]
    return ",".join(artifacts.DECISION_COLUMNS) + "\n" + "\n".join(rows) + "\n"


def _read_demand(lines: list[str]):
    series = demand_from_csv(lines, "A", 60)
    return series.first_day, series.counts.tolist()


def _read_forecast(lines: list[str]):
    days, rates = artifacts._forecasts(lines, 60)
    return days, rates.tolist()


def _read_decisions(lines: list[str]):
    days = [date(2018, 11, 1), date(2018, 11, 2)]
    return artifacts.parse_decisions(lines, ["ha", "lr"], days, 20)


# each kind of CSV that only the package writes: its text without the config
# line, and a parser of its lines, as artifacts.read hands them over, whose
# values compare with ==
KEPT = {
    "demand": (_demand_text, _read_demand),
    "events": (_kept_events, lambda lines: pairs(events_from_csv(lines, "A"))),
    "forecast": (_kept_forecast, _read_forecast),
    "decisions": (_kept_decisions, _read_decisions),
}


def _lines(text: str) -> list[str]:
    return text.splitlines(keepends=True)


@pytest.mark.parametrize("kind", sorted(KEPT))
def test_kept_csv_skips_blank_lines_and_names_the_physical_line_of_a_bad_row(tmp_path, kind):
    text, parse = KEPT[kind]
    config = kept_config(tmp_path)
    artifacts.write(config, kind, text(), "A", "ha")
    path = Path(artifacts.path(config, kind, "A", "ha"))
    lines = path.read_text().splitlines()

    def read():
        return artifacts.read(config, kind, parse, sid="A", name="ha")

    expected = read()
    lines.insert(3, "")  # between the first and the second row
    path.write_text("\n".join(lines) + "\n")
    assert read() == expected
    # config line, header, row, blank line, row: the third row is on line 6
    lines[5] = ",".join(["garbled", *next(csv.reader([lines[5]]))[1:]])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(RowError) as err:
        read()
    assert err.value.line_number == 6
    assert "'garbled'" in err.value.reason


@pytest.mark.parametrize("kind", sorted(KEPT))
def test_a_kept_field_past_the_csv_limit_is_refused_at_its_line(tmp_path, kind):
    text, parse = KEPT[kind]
    config = kept_config(tmp_path)
    artifacts.write(config, kind, text(), "A", "ha")
    path = Path(artifacts.path(config, kind, "A", "ha"))
    lines = path.read_text().splitlines()
    lines[3] = '"' + "7" * 200_000 + '"' + lines[3][lines[3].index(","):]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(RowError) as err:
        artifacts.read(config, kind, parse, sid="A", name="ha")
    assert str(err.value) == f"{path}: line 4: field larger than field limit (131072)"


@pytest.mark.parametrize("kind", sorted(KEPT))
def test_demand_csv_rejects_a_covariate_header(kind):
    # the header of a kept file must be exactly its columns: an old demand
    # file with its covariates is refused, not read by name
    text, parse = KEPT[kind]
    header, rest = text().split("\n", 1)
    with pytest.raises(FormatError, match=f"has the columns {header},temperature_c, "
                                          f"not {header}$"):
        parse(_lines(f"{header},temperature_c\n{rest}"))


@pytest.mark.parametrize("temperature, rain", [
    (0.1 + 0.2, 0.1 + 0.2), (-0.0, 0.0), (1 / 3, 1.0), (-12.345678901234567, 5e-324)])
def test_weather_csv_roundtrip_is_exact(temperature, rain):
    table = WeatherTable([datetime(2018, 6, 1, 1), datetime(2018, 6, 1, 0)],
                         [10.0, temperature], [0.5, rain])
    assert table.hours.tolist() == [datetime(2018, 6, 1, 0), datetime(2018, 6, 1, 1)]
    text = weather_to_csv(table)
    assert text.splitlines()[0] == "timestamp,temperature_c,rain_probability"
    back = parse_weather(io.StringIO(text))
    assert observations(back) == observations(table)
    assert list(observations(back)) == sorted(observations(table))
    assert str(observations(back)[datetime(2018, 6, 1, 0)][0]) == str(temperature)


@pytest.mark.parametrize("read, text, message", [
    pytest.param(parse_stations, "station_id,capacity\nA,20\nB,2_0\n",
                 "line 3: unparseable capacity '2_0'", id="stations"),
    pytest.param(_read_demand, _demand_text().replace("\n2018-06-01 01:00:00,1,0\n",
                                                      "\n2018-06-01 01:00:00,1_0,0\n"),
                 "line 3: unparseable pickups '1_0'", id="demand"),
    pytest.param(parse_weather, "timestamp,temperature_c,rain_probability\n"
                                "2018-06-01 00:00:00,15.0,0.2\n2018-06-01 01:00:00,1_5.0,0.2\n",
                 "line 3: unparseable temperature_c '1_5.0'", id="weather"),
    pytest.param(_read_decisions, _kept_decisions().replace(",ha,4,", ",ha,0_4,"),
                 "line 3: unparseable s_star '0_4'", id="decisions"),
    pytest.param(_read_forecast, _kept_forecast().replace("\n2018-11-01,1,0.5,",
                                                          "\n2018-11-01,1,0_5,"),
                 "line 3: unparseable pickup_rate '0_5'", id="forecast"),
    pytest.param(parse_stations, "station_id,capacity\nA,20\nB,\u0662\u0660\n",
                 "line 3: unparseable capacity '\u0662\u0660'", id="non-ascii"),
])
def test_digit_group_underscores_are_refused_with_their_line(read, text, message):
    # int("2_0") and int("\u0662\u0660") (Arabic-Indic digits) are 20, and
    # float("0_5") is 5.0: a hand-damaged file must not load
    assert message.split("'")[1] in text
    with pytest.raises(RowError) as err:
        read(_lines(text))
    assert f"line {err.value.line_number}: {err.value.reason}" == message


@pytest.mark.parametrize("row, message", [
    pytest.param("2018-06-01 01:00:00,abc,0.2", "unparseable temperature_c 'abc'",
                 id="temperature"),
    pytest.param("2018-06-01 01:00:00,15.0,x", "unparseable rain_probability 'x'", id="rain"),
    pytest.param("2018-06-01 01:00:00,abc,x", "unparseable temperature_c 'abc'", id="both"),
])
def test_an_unparseable_weather_value_names_its_column(row, message):
    text = f"timestamp,temperature_c,rain_probability\n2018-06-01 00:00:00,15.0,0.2\n{row}\n"
    with pytest.raises(RowError) as err:
        parse_weather(io.StringIO(text))
    assert str(err.value) == f"line 3: {message}"


def test_a_count_beyond_int64_is_unparseable():
    lines = _demand_text().splitlines()
    lines[2] = "2018-06-01 01:00:00,99999999999999999999,0"
    with pytest.raises(RowError) as err:
        demand_from_csv(io.StringIO("\n".join(lines) + "\n"), "A", 60)
    assert str(err.value) == "line 3: unparseable pickups '99999999999999999999'"


def _rows_of(text: str, rows: dict[int, str]) -> str:
    """``text`` with the rows at the given 0-based line indices replaced."""
    lines = text.splitlines()
    for at, row in rows.items():
        lines[at] = row
    return "\n".join(lines) + "\n"


_WEATHER = ("timestamp,temperature_c,rain_probability\n" + "".join(
    f"2018-06-01 {h:02d}:00:00,1.0,0.5\n" for h in range(4)))

# per reader: a row that breaks two rules, which reports the earlier rule; and
# an earlier row that breaks a later rule before a later row that breaks an
# earlier one, which reports the earlier row. Each message is the one that
# checking the rows one by one, each rule in turn, gives.
RULE_ORDER = {
    "trips": (parse_trips, TRIPS_CSV, [
        ({2: "yesterday,2018-06-01 08:00:00,,B"}, "line 3: empty station id"),
        ({2: "2018-06-01 09:00:00,2018-06-01 08:00:00,A,B",
          3: "yesterday,2018-06-01 08:00:00,A,B"},
         "line 3: trip ends before it starts: 2018-06-01 09:00:00 -> 2018-06-01 08:00:00"),
    ]),
    "events": (lambda src: events_from_csv(src, "A"), _kept_events(), [
        ({2: "yesterday,dock"}, "line 3: unknown event kind 'dock'"),
        ({1: "yesterday,pickup", 2: "2018-06-01 07:00:00,dock"},
         "line 2: unparseable timestamp 'yesterday'"),
    ]),
    "weather": (parse_weather, _WEATHER, [
        ({2: "2018-06-01 01:30:00,nan,1.5"},
         "line 3: weather timestamps must be on the hour, got 2018-06-01 01:30:00"),
        ({2: "2018-06-01 01:00:00,nan,0.5", 3: "2018-06-01 02:00:00,1.0,1.5"},
         "line 3: temperature_c nan is not finite at 2018-06-01 01:00:00"),
    ]),
    "demand": (lambda src: demand_from_csv(src, "A", 60), _demand_text(), [
        ({4: "yesterday,x,0"}, "line 5: unparseable timestamp 'yesterday'"),
        ({4: "2018-06-01 09:00:00,1,0", 5: "2018-06-01 04:00:00,x,0"},
         "line 5: interval_start 2018-06-01 09:00:00 out of sequence: expected "
         "2018-06-01 03:00:00, 60 minutes per row"),
    ]),
}


@pytest.mark.parametrize("kind", sorted(RULE_ORDER))
def test_each_reader_reports_the_first_bad_row_by_its_first_broken_rule(kind):
    read, text, cases = RULE_ORDER[kind]
    for rows, message in cases:
        with pytest.raises(RowError) as err:
            read(io.StringIO(_rows_of(text, rows)))
        assert str(err.value) == message


def _hashed_first_row(text: str) -> str:
    header, first, *rest = _lines(text)
    return "".join([header, "#" + first, *rest])


@pytest.mark.parametrize("k, rate, message", [
    (0, -0.5, "pickup_rate -0.5 of 2018-11-02 slot 5 outside [0, inf)"),
    (1, np.nan, "return_rate nan of 2018-11-02 slot 5 outside [0, inf)"),
], ids=["negative-pickup", "nan-return"])
def test_a_forecast_rate_that_is_not_finite_and_non_negative_is_not_written(k, rate, message):
    rates = np.ones((2, 24, 2))
    rates[1, 5, k] = rate
    with pytest.raises(DomainError) as err:
        artifacts.forecast_to_csv(date(2018, 11, 1), rates)
    assert str(err.value) == message


@pytest.mark.parametrize("order, line", [("repeated", 50), ("reversed", 26)])
def test_a_forecast_day_that_repeats_or_goes_back_is_refused_at_its_first_row(order, line):
    header, *rows = _lines(_kept_forecast())
    first, second = rows[:24], rows[24:]
    body = first + second + first if order == "repeated" else second + first
    with pytest.raises(RowError) as err:
        _read_forecast([header, *body])
    assert err.value.line_number == line
    assert err.value.reason == ("2018-11-01 comes after 2018-11-02: the days of a forecast "
                                "must increase, each once")


# each kind of text artifact that a stage reads as CSV: its text after the
# config line, its parser, and what artifacts.read gives once the first row
# (line 3) begins with "#": the row, read, or refused by the rule it breaks
TEXT_KINDS = {
    "stations": ("station_id,capacity\nA,20\nB,7\n", parse_stations, {"#A": 20, "B": 7}),
    "weather": (_WEATHER, parse_weather, "line 3: unparseable timestamp '#2018-06-01 00:00:00'"),
    "demand": (_demand_text(), _read_demand,
               "line 3: unparseable timestamp '#2018-06-01 00:00:00'"),
    "events": (_kept_events(), KEPT["events"][1],
               "line 3: unparseable timestamp '#2018-06-01 00:30:00'"),
    "forecast": (_kept_forecast(), _read_forecast, "line 3: unparseable date '#2018-11-01'"),
    "decisions": (_kept_decisions(), _read_decisions, "line 3: unparseable date '#2018-11-01'"),
}


@pytest.mark.parametrize("kind", sorted(TEXT_KINDS))
def test_read_takes_off_the_config_line_alone(tmp_path, kind):
    text, parse, kept = TEXT_KINDS[kind]
    config = kept_config(tmp_path)
    file = artifacts.path(config, kind, "A", "ha")

    def read():
        return artifacts.read(config, kind, parse, sid="A", name="ha")

    artifacts.write(config, kind, _hashed_first_row(text), "A", "ha")
    if isinstance(kept, str):
        with pytest.raises(RowError) as err:
            read()
        assert str(err.value) == f"{file}: {kept}"
    else:
        assert read() == kept
    # a file that does not begin with the config line is refused
    Path(file).write_text(text)
    with pytest.raises(FormatError) as err:
        read()
    assert str(err.value) == (f"{file} does not begin with a config line; "
                              f"run the {artifacts.KINDS[kind][0]} stage again")


# -- the column parsers against the row-by-row rules ----------------------------------

# numpy's datetime64 parser would take "20180101" as year -279291, accept "2018",
# "2018-01", "" and "NaT", and shift "...Z" and "...+01:00" to UTC; fromisoformat
# has its own spellings. Every string here must come out of the column parsers
# exactly as _parse_timestamp reads it, or be refused with its message.
TIMESTAMP_SPELLINGS = [
    "2018-06-01 07:00:00", "2018-06-01 07:58:30", "2018-06-01T07:58:30",
    "2018-06-01T07:00:00", "2018-06-01t07:58:30", "2018-06-01_07:58:30",
    "2018-06-01/07:00:00", "2018-06-01507:00:00", "2018-06-01é07:00:00",
    "2018-06-01\x0007:00:00",
    "2018-06-01 07:58", "2018-06-01 07:00", "2018-06-01 07", "2018-06-01",
    "2018-06-01 07:58:30.1", "2018-06-01 07:58:30.12", "2018-06-01 07:58:30.123",
    "2018-06-01 07:58:30.1234", "2018-06-01 07:00:00.0000", "2018-06-01 07:58:30.12345",
    "2018-06-01 07:58:30.123456", "2018-06-01 07:58:30.1234567",
    "2018-06-01 07:58:30.", "2018-06-01 07:58:30,123",
    "20180101", "2018", "2018-01", "", "NaT", "nat",
    "2018-06-01 07:58:30Z", "2018-06-01 07:58:30+01:00", "2018-06-01 07:00:00-05:00",
    "2018-06-01 07:58:30.123456+00:00",
    " 2018-06-01 07:00:00", "2018-06-01 07:00:00 ", "\t2018-06-01 07:00:00",
    "2018-02-29 00:00:00", "2020-02-29 00:00:00", "1900-02-29 00:00:00",
    "2000-02-29 00:00:00", "2018-04-31 00:00:00", "2018-13-01 00:00:00",
    "2018-00-01 00:00:00", "2018-06-00 00:00:00", "2018-06-01 24:00:00",
    "2018-06-01 23:60:00", "2018-06-01 23:59:60", "0000-01-01 00:00:00",
    "0001-01-01 00:00:00", "9999-12-31 23:59:59.999999", "1969-12-31 23:59:59.999999",
    "+2018-06-01 07:58:30", "2018-06-01 7:58:30", "2018-6-01 07:58:30",
    "2018-06-01 07:58:3a", "2018/06/01 07:58:30", "2018-06-01 07-58-30",
    "2018-06-01 07:58:30.12a", "٢٠١٨-06-01 07:00:00", "2018-06-01 07:58:30é",
    "2018-a1-01 00:00:00", "2018-1:-01 00:00:00", "2018-06-01 ~7:00:00",
    "2018-W22", "2018-152",
]


def row_by_row(raw: str, line: int):
    """What _parse_timestamp makes of ``raw``: ("ok", datetime) or ("refused", message)."""
    try:
        return "ok", _parse_timestamp(raw, line)
    except RowError as exc:
        return "refused", str(exc)


def csv_text(header: list[str], rows: list[list[str]]) -> str:
    """A CSV file of ``rows``, fields quoted only where they must be."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def trip_file(*rows: tuple[str, str]) -> str:
    return csv_text(["starttime", "stoptime", "start station id", "end station id"],
                    [[t0, t1, "A", "B"] for t0, t1 in rows])


@pytest.mark.parametrize("raw", TIMESTAMP_SPELLINGS)
@pytest.mark.parametrize("copies", [1, 3], ids=["once", "three-times"])
def test_parse_trips_reads_each_spelling_as_parse_timestamp(raw, copies):
    # once or three times among canonical rows, in both time columns
    plain = ("2018-06-01 06:00:00.500000", "2018-06-01 06:10:00.250000")
    text = trip_file(plain, *[(raw, raw)] * copies, plain, plain, plain, plain)
    kind, expected = row_by_row(raw, 3)
    if kind == "ok":
        trips = parse_trips(io.StringIO(text))
        assert trips.start_times[1:1 + copies].tolist() == [expected] * copies
        assert trips.end_times[1:1 + copies].tolist() == [expected] * copies
    else:
        with pytest.raises(RowError) as err:
            parse_trips(io.StringIO(text))
        assert err.value.line_number == 3
        assert str(err.value) == expected


def weather_row_by_row(raw: str, line: int):
    """What the row-by-row weather rules make of a row stamped ``raw``."""
    kind, value = row_by_row(raw, line)
    if kind == "ok" and (value.minute or value.second or value.microsecond):
        return "refused", f"line {line}: weather timestamps must be on the hour, got {value}"
    return kind, value


@pytest.mark.parametrize("raw", TIMESTAMP_SPELLINGS)
@pytest.mark.parametrize("copies", [1, 3], ids=["once", "three-times"])
def test_parse_weather_reads_each_spelling_as_parse_timestamp(raw, copies):
    rows = ["2018-05-01 00:00:00"] + [raw] * copies + ["2018-05-01 01:00:00", "2018-05-01 02:00:00"]
    text = csv_text(["timestamp", "temperature_c", "rain_probability"],
                    [[stamp, f"{i}.5", "0.25"] for i, stamp in enumerate(rows)])
    kind, expected = weather_row_by_row(raw, 3)
    if kind == "ok":
        table = parse_weather(io.StringIO(text))
        # repeated hours keep the last row's values
        assert observations(table)[expected] == (copies + 0.5, 0.25)
    else:
        with pytest.raises(RowError) as err:
            parse_weather(io.StringIO(text))
        assert err.value.line_number == 3
        assert str(err.value) == expected


def test_timestamp_column_matches_parse_timestamp_on_random_spellings():
    rng = np.random.default_rng(5)
    base = np.datetime64("2018-01-01T00:00:00", "us")
    stamps = (base + rng.integers(0, 366 * 86_400_000_000, 4000)).tolist()
    spelled = []
    for ts in stamps:
        text = ts.isoformat(sep=" T"[int(rng.integers(2))])
        digits = int(rng.integers(0, 7))
        if "." in text:
            text = text[:20 + digits] if digits else text[:19]
        spelled.append(text)
    got = _timestamps(ingest._fields_of(spelled))
    assert got.tolist() == [_parse_timestamp(s, 0) for s in spelled]


def assert_column_reads_row_by_row(column: list[str]) -> None:
    """Each row of the time column ``column``, on lines 2 on, reads as
    _parse_timestamp reads it: its time, or NaT and the rule's words for a
    refusal."""
    numbers = list(range(2, len(column) + 2))
    times, (refused, words) = ingest._converted("time", ingest._fields_of(column), datetime,
                                                numbers)
    for i, raw in enumerate(column):
        kind, expected = row_by_row(raw, numbers[i])
        if kind == "ok":
            assert (refused[i], times[i].item()) == (False, expected), raw
        else:
            assert refused[i] and np.isnat(times[i]), raw
            with pytest.raises(RowError) as err:
                words(i)
            assert str(err.value) == expected


# any datetime, spelled at a canonical width: 19, or 21-26 with a fraction
CANONICAL_SPELLINGS = st.builds(
    lambda stamp, width, sep: stamp.isoformat(sep=sep, timespec="microseconds")[:width],
    st.datetimes(), st.sampled_from([19, 21, 22, 23, 24, 25, 26]), st.sampled_from(" T"))


@settings(max_examples=300, deadline=None)
@given(st.lists(CANONICAL_SPELLINGS, min_size=1, max_size=8))
def test_canonical_spellings_read_as_parse_timestamp(column):
    assert_column_reads_row_by_row(column)


@settings(max_examples=500, deadline=None)
@given(st.lists(CANONICAL_SPELLINGS, min_size=1, max_size=8), st.data())
def test_a_spelling_edited_by_one_character_reads_as_parse_timestamp(column, data):
    row = data.draw(st.integers(0, len(column) - 1))
    text = column[row]
    at = data.draw(st.integers(0, len(text) - 1))
    char = data.draw(st.sampled_from("0123456789-:. T,+Zé\x00") | st.characters())
    column[row] = data.draw(st.sampled_from([
        text[:at] + char + text[at + 1:], text[:at] + char + text[at:], text[:at] + text[at + 1:]]))
    assert_column_reads_row_by_row(column)


def count_fallbacks(monkeypatch) -> list[str]:
    """The strings that reach ingest._timestamp_or_none from here on, as a list
    that grows."""
    calls, fallback = [], ingest._timestamp_or_none
    monkeypatch.setattr(ingest, "_timestamp_or_none",
                        lambda raw: calls.append(raw) or fallback(raw))
    return calls


@pytest.mark.parametrize("odd", [None, "2018-06-01 07:58:30,123", "2018-06-01 07:58"],
                         ids=["canonical", "comma-fraction", "no-seconds"])
def test_a_column_of_mixed_widths_reads_row_by_row_and_only_an_odd_row_falls_back(monkeypatch,
                                                                                 odd):
    # an event file spells a whole second in 19 characters and any other in 26
    column = ["2018-06-01 07:58:30", "2018-06-01T07:58:31.143447", "2018-06-01 07:59:00.5"] * 3
    if odd is not None:
        column[4] = odd
    calls = count_fallbacks(monkeypatch)
    assert_column_reads_row_by_row(column)
    assert calls == ([] if odd is None else [odd])


def test_the_corpus_and_every_kept_time_column_decode_without_a_fallback_row(monkeypatch, corpus):
    calls = count_fallbacks(monkeypatch)
    trips = read_input(corpus["trips"], parse_trips)
    weather = read_input(corpus["weather"], parse_weather)
    stream = to_event_streams(trips, ["7"])["7"]
    demand = aggregate(stream, 15, (date(2018, 1, 1), date(2018, 12, 31)))
    demand_from_csv(io.StringIO(demand_to_csv(demand)), "7", 15)
    events_from_csv(io.StringIO(events_to_csv(stream)), "7")
    parse_weather(io.StringIO(weather_to_csv(weather)))
    assert len(trips) > 1000 and calls == []


def count_csv_blocks(monkeypatch) -> list[int]:
    """The first line of each block that ingest._split_lines leaves to
    csv.reader from here on, as a list that grows."""
    blocks, split = [], ingest._split_lines

    def counted(raw, columns, start):
        chunk = split(raw, columns, start)
        if chunk is None:
            blocks.append(start + 1)
        return chunk
    monkeypatch.setattr(ingest, "_split_lines", counted)
    return blocks


def test_inputs_and_kept_files_are_split_without_csv_reader(monkeypatch, tmp_path, corpus):
    # the byte pass takes every block of the inputs, of the kept files (read
    # as artifacts.read hands them over) and of a quoted Citi Bike layout
    blocks = count_csv_blocks(monkeypatch)
    trips = read_input(corpus["trips"], parse_trips)
    read_input(corpus["weather"], parse_weather)
    stream = to_event_streams(trips, ["7"])["7"]
    config = kept_config(tmp_path)
    artifacts.write(config, "demand", demand_to_csv(
        aggregate(stream, 15, (date(2018, 1, 1), date(2018, 12, 31)))), "7")
    artifacts.write(config, "events", events_to_csv(stream), "7")
    artifacts.read(config, "demand", demand_from_csv, "7", 15, sid="7")
    artifacts.read(config, "events", events_from_csv, "7", sid="7")
    quoted = quoted_citi_bike_file(Path(corpus["trips"]).read_text())
    for text in (quoted, quoted.replace("\n", "\r\n")):
        assert columns(parse_trips(io.StringIO(text, newline=""))) == columns(trips)
    assert len(trips) > 1000 and blocks == []


@pytest.mark.parametrize("separator", ["5", "x", "_"])
def test_a_date_and_time_joined_by_another_character_are_refused_at_their_line(separator):
    # fromisoformat takes any one character there: 2018-06-01507:00:00 read as 07:00:00
    stamp = f"2018-06-01{separator}07:00:00"
    trips = trip_file(("2018-06-01 06:00:00", "2018-06-01 06:30:00"), (stamp, "2018-06-01 08:00:00"))
    weather = csv_text(list(ingest.WEATHER_COLUMNS),
                       [["2018-06-01 06:00:00", "20.5", "0.1"], [stamp, "21.0", "0.1"]])
    for text, parse in ((trips, parse_trips), (weather, parse_weather)):
        with pytest.raises(RowError) as err:
            parse(io.StringIO(text))
        assert str(err.value) == f"line 3: unparseable timestamp {stamp!r}"
    assert _parse_timestamp("2018-06-01 07", 1) == datetime(2018, 6, 1, 7)
    assert _parse_timestamp("0001-01-01", 1) == datetime(1, 1, 1)


def test_a_row_whose_quote_stays_open_to_the_end_is_numbered_by_its_last_line():
    # the open quote takes the last line's end into the field; the file has 4 lines
    text = trip_file(("2018-06-01 06:00:00", "2018-06-01 06:30:00")) \
        + '2018-06-01 07:00:00,x,A,"B\nC\r\n'
    with pytest.raises(RowError) as err:
        parse_trips(io.StringIO(text, newline=""))
    assert str(err.value) == "line 4: unparseable timestamp 'x'"


def test_trip_row_errors_keep_the_order_of_the_row_rules():
    # the first bad row wins, and within it the first broken rule
    late = trip_file(("2018-06-01 07:00:00", "2018-06-01 08:00:00")) + "2018-06-01 09:00:00,x,A,\n"
    early_time = ("starttime,stoptime,start station id,end station id\n"
                  "2018-06-01 07:00:00,2018-06-01 08:00:00,A,B\n"
                  "yesterday,2018-06-01 08:00:00,A,B\n"
                  "2018-06-01 07:00:00,2018-06-01 08:00:00,,B\n")
    with pytest.raises(RowError, match="line 3: empty station id"):
        parse_trips(io.StringIO(late))
    with pytest.raises(RowError, match="line 3: unparseable timestamp 'yesterday'"):
        parse_trips(io.StringIO(early_time))


def test_parse_trips_numbers_lines_across_chunks_and_quoted_line_breaks(monkeypatch):
    monkeypatch.setattr(ingest, "_CHUNK_ROWS", 4)
    rows = [f"2018-06-01 07:{m:02d}:00,2018-06-01 08:{m:02d}:00,A,B" for m in range(10)]
    rows[2] = '2018-06-01 07:02:00,2018-06-01 08:02:00,"A",B'
    rows[5] = '2018-06-01 07:05:00,2018-06-01 08:05:00,"A\nnorth",B'  # spans two lines
    rows[7] = ""
    rows[8] = "2018-06-01 07:08:00,2018-06-01 06:00:00,A,B"
    text = "starttime,stoptime,start station id,end station id\n" + "\n".join(rows) + "\n"
    with pytest.raises(RowError, match="ends before it starts") as err:
        parse_trips(io.StringIO(text))
    # header, 5 rows, a row of two lines, a row, a blank line: row 8 is on line 11
    assert err.value.line_number == 11
    trips = parse_trips(io.StringIO(text.replace("08:08:00", "07:08:00").replace(
        "2018-06-01 06:00:00", "2018-06-01 08:08:00")))
    assert len(trips) == 9
    assert trips.start_stations.tolist()[5] == "A\nnorth"
    assert trips.start_times.tolist() == [datetime(2018, 6, 1, 7, m) for m in range(10) if m != 7]


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("chunk", [1, 3, 2048])
def test_column_chunks_number_rows_as_a_row_by_row_reader(tmp_path, monkeypatch, end, chunk):
    # quoted fields holding each kind of line break, blank lines and short rows
    monkeypatch.setattr(ingest, "_CHUNK_ROWS", chunk)
    rows = ["a,b,c", "1,2,3", "", '"x\r\ny",5,6', "7,8", "", "", '9,"p\rq\nr",0', "1,2,3",
            '"s\n\nt",,', "4,5,6"]
    path = tmp_path / "rows.csv"
    path.write_bytes(end.join(rows).encode() + end.encode())
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        expected = [(row[:2], reader.line_num) for row in reader if row]
    with open(path, newline="") as fh:
        chunks = list(ingest._column_chunks(fh, "test", ("a", "b")))
    got = [([a, b], n) for (a_col, b_col), numbers in chunks
           for a, b, n in zip(a_col, b_col, numbers)]
    assert got == expected


# field text: CSV's own bytes, a NUL, text beyond ASCII, and blanks that
# str.strip removes but bytes.strip does not
FIELD_TEXT = st.text(st.sampled_from(['a', '7', ' ', ',', '"', '\r', '\n', '\x00', 'é', '€',
                                      '\t', '\x1c', '\x1f', '\xa0']), max_size=5)
CSV_FIELD = st.builds(lambda text, quoted: '"' + text.replace('"', '""') + '"' if quoted else text,
                      FIELD_TEXT, st.booleans())
CSV_ROW = st.builds(lambda fields, end: ",".join(fields) + end,
                    st.lists(CSV_FIELD, max_size=5), st.sampled_from(["\n", "\r\n", "\r"]))


def reference_rows(text: str, names: tuple[str, ...]):
    """The named fields and line of each row of ``text`` as one ``csv.reader``
    reads them, or the RowError it stops with."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(filter(None, reader))
        columns = [header.index(name) for name in names]
        return [([(row + [""] * 5)[i] for i in columns], reader.line_num)
                for row in reader if row]
    except csv.Error as exc:
        return RowError(reader.line_num, str(exc))


@pytest.mark.parametrize("chunk", [1, 3, 2048])
@settings(max_examples=250, deadline=None)
@given(rows=st.lists(CSV_ROW, max_size=12), plain=st.lists(st.sampled_from(
    ["1,2,3\n", '"1","2,x","3"\r\n', '1"2,3",4,5\n', '"1"2,3,4\n', '1,2,"3\n4",5,6\n', "\n",
     " a\x1c,b,\xa0c \n"]), max_size=6),
       last=st.sampled_from(["", "x,y,z"]), limit=st.sampled_from([8, 131072]))
def test_column_chunks_read_as_csv_reader(chunk, rows, plain, last, limit):
    # rows the byte pass takes or must leave to csv.reader (a quote inside a
    # field, text after a closing quote, a quoted line break), then any rows;
    # a small field limit refuses some fields
    text = "a,b,c\n" + "".join(plain + rows) + last
    names = ("c", "a")
    old_limit = csv.field_size_limit(limit)
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "_CHUNK_ROWS", chunk)
            expected = reference_rows(text, names)
            try:
                chunks = list(ingest._column_chunks(io.StringIO(text, newline=""), "test", names))
            except RowError as exc:
                chunks, got = [], exc
            else:
                got = [(list(fields), n) for named, numbers in chunks
                       for *fields, n in zip(*named, numbers)]
    finally:
        csv.field_size_limit(old_limit)
    for named, _ in chunks:  # ids are stripped as str.strip strips them
        for column in named:
            stripped = ingest._stripped(column)
            reference = ingest._string_array([s.strip() for s in column])
            assert (stripped.dtype, stripped.tolist()) == (reference.dtype, reference.tolist())
    if isinstance(expected, RowError):
        assert isinstance(got, RowError) and str(got) == str(expected)
    else:
        assert got == expected


# -- the array operations against the per-event and per-interval loops -----------------


def reference_aggregate(events: EventStream, interval_minutes: int,
                        day_range: tuple[date, date]) -> tuple[np.ndarray, np.ndarray]:
    """The per-event loop: each event's offset in minutes, floored to its interval."""
    first, last = day_range
    start = datetime.combine(first, time.min)
    n = ((last - first).days + 1) * (1440 // interval_minutes)
    pickups = np.zeros(n, dtype=np.int64)
    returns = np.zeros(n, dtype=np.int64)
    for ts, kind in pairs(events):
        offset_min = (ts - start).total_seconds() / 60.0
        idx = int(offset_min // interval_minutes)
        if offset_min < 0 or idx >= n:
            continue
        if kind == PICKUP:
            pickups[idx] += 1
        else:
            returns[idx] += 1
    return pickups, returns


@pytest.mark.parametrize("interval", VALID_INTERVALS)
def test_aggregate_matches_the_per_event_loop(interval):
    rng = np.random.default_rng(interval)
    first = datetime(2018, 3, 10)
    tick = np.timedelta64(1, "us")
    # events spread over the range and a day either side, plus ones on and
    # one tick either side of every interval boundary of the first day
    spread = np.datetime64(first, "us") + rng.integers(
        -86_400_000_000, 5 * 86_400_000_000, 3000) * tick
    bounds = np.datetime64(first, "us") + np.arange(0, 1441, interval) * np.timedelta64(1, "m")
    times = np.concatenate([spread, bounds, bounds - tick, bounds + tick])
    stream = EventStream("S", times, rng.integers(0, 2, len(times)))
    day_range = (date(2018, 3, 10), date(2018, 3, 13))
    series = aggregate(stream, interval, day_range)
    pickups, returns = reference_aggregate(stream, interval, day_range)
    np.testing.assert_array_equal(series.pickups, pickups)
    np.testing.assert_array_equal(series.returns, returns)
    assert 0 < series.pickups.sum() + series.returns.sum() < len(times)


def reference_covariates(obs: dict[datetime, tuple[float, float]], day_range: tuple[date, date],
                         interval_minutes: int) -> np.ndarray:
    """The per-interval loop: forward-fill within the range, then the one-hots."""
    first, last = day_range
    n_slots = 1440 // interval_minutes
    n = ((last - first).days + 1) * n_slots
    values = np.zeros((n, 9 + n_slots))
    start = datetime.combine(first, time.min)
    last_obs = None
    for i in range(n):
        t = start + i * timedelta(minutes=interval_minutes)
        hour = t.replace(minute=0)
        if hour in obs:
            last_obs = obs[hour]
        elif last_obs is None:
            raise DataError(f"no weather observation at or before {hour}")
        values[i, 0], values[i, 1] = last_obs
        values[i, 2 + t.weekday()] = 1.0
        values[i, 9 + (t.hour * 60 + t.minute) // interval_minutes] = 1.0
    return values


@pytest.mark.parametrize("interval", VALID_INTERVALS)
def test_build_covariates_matches_the_per_interval_loop(interval):
    rng = np.random.default_rng(interval)
    obs = {ts: (float(rng.normal(10, 5)), float(rng.uniform()))
           for ts in hourly_observations(date(2018, 3, 9), 6)}
    # gaps to forward-fill, one of them across midnight; an observation the
    # day before the range, which must not fill anything
    for hour in (3, 4, 5, 23, 24, 25, 70):
        del obs[datetime(2018, 3, 10) + timedelta(hours=hour)]
    day_range = (date(2018, 3, 10), date(2018, 3, 13))
    cov = build_covariates(weather_table(obs), day_range, interval)
    assert isinstance(cov, np.ndarray)
    assert cov.shape == (4, 1440 // interval, len(covariate_columns(interval)))
    np.testing.assert_array_equal(cov.reshape(-1, cov.shape[2]),
                                  reference_covariates(obs, day_range, interval))

    del obs[datetime(2018, 3, 10)]
    with pytest.raises(DataError, match="2018-03-10 00:00:00") as err:
        build_covariates(weather_table(obs), day_range, interval)
    with pytest.raises(DataError) as ref:
        reference_covariates(obs, day_range, interval)
    assert str(err.value) == str(ref.value)


def test_weather_table_keeps_the_last_of_repeated_hours_and_checks_in_order():
    at = datetime(2018, 6, 1, 5)
    table = WeatherTable([at, at - timedelta(hours=1), at], [1.0, 2.0, 3.0], [0.1, 0.2, 0.3])
    assert observations(table) == {at - timedelta(hours=1): (2.0, 0.2), at: (3.0, 0.3)}
    # the first bad row wins, and within it the first broken rule
    with pytest.raises(DataError, match="temperature_c nan is not finite"):
        WeatherTable([at, at + timedelta(minutes=1)], [float("nan"), 1.0], [0.5, 0.5])
    with pytest.raises(DataError, match="on the hour"):
        WeatherTable([at + timedelta(minutes=1)], [float("nan")], [float("nan")])
    with pytest.raises(DataError, match="rain_probability nan outside"):
        WeatherTable([at], [float("nan")], [float("nan")])


# -- the kept artifacts ----------------------------------------------------------------------


def kept_demand_lines() -> list[str]:
    series = demand_series(np.arange(24), np.zeros(24, dtype=np.int64))
    return ("\n" + demand_to_csv(series)).splitlines()


@pytest.mark.parametrize("damage, line, message", [
    ("swap", 11, "interval_start 2018-06-01 09:00:00 out of sequence: expected "
                 "2018-06-01 08:00:00"),
    ("repeat", 12, "interval_start 2018-06-01 08:00:00 out of sequence: expected "
                   "2018-06-01 09:00:00"),
    ("drop", 11, "interval_start 2018-06-01 09:00:00 out of sequence: expected "
                 "2018-06-01 08:00:00"),
])
def test_demand_csv_rejects_rows_out_of_sequence(tmp_path, damage, line, message):
    lines = kept_demand_lines()
    # after the blanked config line and the header, line 11 holds 08:00 and line 12 09:00
    assert lines[10].startswith("2018-06-01 08:00:00,")
    if damage == "swap":
        lines[10], lines[11] = lines[11], lines[10]
    elif damage == "repeat":
        lines[11] = lines[10]
    else:
        del lines[10]
    text = "\n".join(lines) + "\n"
    with pytest.raises(RowError) as err:
        demand_from_csv(io.StringIO(text), station="A", interval_minutes=60)
    assert err.value.line_number == line
    assert err.value.reason.startswith(message)
    path = tmp_path / "station_A.csv"
    path.write_text(text)
    with pytest.raises(RowError) as err:
        read_input(str(path), lambda lines: demand_from_csv(lines, station="A",
                                                            interval_minutes=60))
    assert err.value.path == str(path)
    assert str(err.value).startswith(f"{path}: line {line}: {message}")


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
def test_a_byte_that_is_not_utf8_is_refused_at_the_line_a_parser_counts(tmp_path, ending):
    # line ends as the parsers count them: LF, CR LF and a lone CR each end a line
    path = tmp_path / "weather.csv"
    for bad, reason in ((b"1.5", "rain_probability 1.5 outside [0, 1]"),
                        (b"0.2\xe9", "not UTF-8 text")):
        rows = [b"timestamp,temperature_c,rain_probability"] + [
            f"2018-06-01 0{h}:00:00,15.0,0.2".encode() for h in range(6)]
        rows[4] = rows[4].replace(b"0.2", bad)
        path.write_bytes(ending.encode().join(rows))
        with pytest.raises(RowError) as err:
            read_input(str(path), parse_weather)
        assert str(err.value).startswith(f"{path}: line 5: {reason}")


def test_demand_csv_reads_the_counts_of_its_rows():
    back = demand_from_csv(io.StringIO("\n".join(kept_demand_lines()) + "\n"), "A", 60)
    np.testing.assert_array_equal(back.pickups, np.arange(24))
    assert back.first_day == date(2018, 6, 1)


def test_events_csv_bad_time_names_its_line_and_file(tmp_path):
    text = "\ntime,kind\n2018-06-01 07:00:00,pickup\n2018-06-31 07:00:00,return\n"
    path = tmp_path / "events_A.csv"
    path.write_text(text)
    with pytest.raises(RowError) as err:
        read_input(str(path), lambda lines: events_from_csv(lines, "A"))
    assert err.value.line_number == 4
    assert str(err.value) == f"{path}: line 4: unparseable timestamp '2018-06-31 07:00:00'"
    path.write_text(text.replace("return", "dock"))
    with pytest.raises(RowError) as err:
        read_input(str(path), lambda lines: events_from_csv(lines, "A"))
    assert str(err.value) == f"{path}: line 4: unknown event kind 'dock'"


def test_weather_without_rows_is_an_empty_table_that_covers_nothing():
    for text in ("timestamp,temperature_c,rain_probability\n",
                 "timestamp,temperature_c,rain_probability\n\n\n"):
        table = parse_weather(io.StringIO(text))
        assert len(table.hours) == len(table.temperature_c) == len(table.rain_probability) == 0
        with pytest.raises(DataError, match="no weather observation at or before"):
            build_covariates(table, (date(2018, 6, 1), date(2018, 6, 1)), 60)
    assert len(WeatherTable([], [], []).hours) == 0


def test_blank_lines_before_the_header_are_skipped():
    text = "\n\ntimestamp,temperature_c,rain_probability\n2018-06-01 00:00:00,7.5,0.5\n"
    assert observations(parse_weather(io.StringIO(text))) == {datetime(2018, 6, 1): (7.5, 0.5)}
    bad = text.replace(",0.5", ",1.5")
    with pytest.raises(RowError) as err:
        parse_weather(io.StringIO(bad))
    assert err.value.line_number == 4
    with pytest.raises(FormatError, match="weather file is empty"):
        parse_weather(io.StringIO("\n\n"))
    stations = "\n\nstation_id,capacity\nA,20\n"
    assert parse_stations(io.StringIO(stations)) == {"A": 20}
    with pytest.raises(RowError) as err:
        parse_stations(io.StringIO(stations.replace("20", "-3")))
    assert err.value.line_number == 4
    with pytest.raises(FormatError, match="station file is empty"):
        parse_stations(io.StringIO("\n\n"))
